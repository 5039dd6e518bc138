from fractions import Fraction
from itertools import combinations

import pytest

from conftest import FIXTURES, reassembled_brackets, ref_split_blocks
from lie_oracle import check_lie_by_triples
from qlie.errors import InputError
from qlie.formats import lie_from_dict, read_json
from qlie.lie import (
    LieAlgebra,
    abelian,
    casimir_from_pairing,
    direct_sum,
    heisenberg,
    sl,
    sl2,
    sl3,
    split_subalgebra,
    trace_pairing,
)
from qlie.polyvectors import ce_differential, check_lie, cohomology_dim, invariants
from qlie.tensors import ADJOINT, CECochain, SYM, TRIVIAL, WEDGE


def F(a, b=1):
    return Fraction(a, b)


def test_check_lie_on_factories():
    for g in (abelian(4), sl2(), sl3(), heisenberg(), direct_sum(sl2(), heisenberg())):
        assert check_lie(g).passed, g.name


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sl_factory(n):
    from qlie.manin import QuadraticLieAlgebra, check_quadratic

    g = sl(n)
    roots = n * (n - 1) // 2
    assert g.dim == n * n - 1 and check_lie(g).passed
    assert g.basis[: n - 1] == tuple(f"h{i + 1}" for i in range(n - 1))
    # simple roots first; the highest root E_1n is the last positive one
    assert g.basis[n - 1] == "e1" and g.basis[n - 2 + roots] == "e" + "".join(map(str, range(1, n)))
    assert g.extra["positive"] == list(range(n - 1, n - 1 + roots))
    assert g.extra["negative"] == list(range(n - 1 + roots, g.dim))
    # [e_a, f_a] lies in the Cartan and the trace form is invariant
    for p in g.extra["positive"]:
        f = g.index("f" + g.basis[p][1:])
        assert set(g.bracket(p, f)) <= set(g.extra["cartan"])
    assert check_quadratic(QuadraticLieAlgebra(g, trace_pairing(g))).passed


def test_sl_factory_range():
    for n in (1, 10):
        with pytest.raises(InputError, match="2 <= n <= 9"):
            sl(n)


def test_mutated_sl2_fails_with_witness():
    bad = sl2()
    # replace [e, f] = h by [e, f] = e
    bad._table[(0, 1)] = {0: F(1)}
    rep = check_lie(bad)
    assert not rep.passed
    assert rep.failure_kind == "jacobi"
    assert set(rep.witness) == {"e", "f", "h"}
    # oracle: J(e,f,h) = [[e,f],h] + [[f,h],e] + [[h,e],f]
    #        = [e,h] + [2f,e] + [2e,f] = -2e - 2h + 2h = -2e
    assert rep.residual == {"e": "-2"}


def test_jacobi_witness_after_skipped_triples():
    # the triples before the failing one have three zero brackets or pass
    # (the sl2 summand); the witness is still the least failing one
    bad = lie_from_dict(read_json(str(FIXTURES / "sl2_mutated.json"), {}))
    cases = {
        "abelian3(+)bad": direct_sum(abelian(3), bad),
        "sl2(+)abelian2(+)bad": direct_sum(sl2(), direct_sum(abelian(2), bad)),
        "bad(+)abelian3": direct_sum(bad, abelian(3)),
    }
    witnesses = {}
    for name, g in cases.items():
        rep = check_lie(g)
        assert not rep.passed and rep.failure_kind == "jacobi"
        assert (rep.passed, rep.witness, rep.residual) == check_lie_by_triples(g)
        witnesses[name] = rep.witness
    assert witnesses == {
        "abelian3(+)bad": ("e.2", "f.2", "h.2"),
        "sl2(+)abelian2(+)bad": ("e.2.2", "f.2.2", "h.2.2"),
        "bad(+)abelian3": ("e.1", "f.1", "h.1"),
    }
    assert check_lie_by_triples(direct_sum(sl3(), abelian(2)))[0]
    # a failing triple with one nonzero bracket, in each of its three places:
    # [x_p, x_q] = y and [x_t, y] = y give J(x1, x2, x3) = -+y
    for p, q in ((0, 1), (1, 2), (0, 2)):
        t = ({0, 1, 2} - {p, q}).pop()
        g = LieAlgebra("one-bracket", ["x1", "x2", "x3", "y"], {(p, q): {3: F(1)}, (t, 3): {3: F(1)}})
        rep = check_lie(g)
        assert (rep.passed, rep.witness, rep.residual) == check_lie_by_triples(g)
        assert rep.witness == ("x1", "x2", "x3")


def test_ce_differential_on_degree_zero_adjoint():
    g = sl2()
    x = CECochain(g, 0, ADJOINT, {((), (2,)): F(1)})  # x = h
    dx = ce_differential(x)
    assert dx.data == {((0,), (0,)): F(2), ((1,), (1,)): F(-2)}


def test_ce_differential_kills_invariants():
    g = sl2()
    c = casimir_from_pairing(g)
    assert (c.k, c.module) == (0, SYM(2))
    assert ce_differential(c).is_zero()


def test_ce_differential_abelian_zero(rng):
    g = abelian(3)
    x = CECochain(g, 1, WEDGE(2), {((0,), (1, 2)): F(3)})
    assert ce_differential(x).is_zero()


def test_ce_differential_squares_to_zero(rng):
    for g in (sl2(), heisenberg()):
        for k in (0, 1):
            for module in (TRIVIAL, ADJOINT, WEDGE(2), SYM(2)):
                for _ in range(25):
                    entries = {}
                    from test_ce_reference import module_basis

                    for down in combinations(range(g.dim), k):
                        for up in module_basis(g, module):
                            c = F(rng.randint(-2, 2), rng.randint(1, 2))
                            if c:
                                entries[(down, up)] = c
                    x = CECochain(g, k, module, entries)
                    assert ce_differential(ce_differential(x)).is_zero()


def test_invariants_sym2_sl2():
    g = sl2()
    basis = invariants(g, SYM(2))
    assert len(basis) == 1
    vec = basis[0]
    # the invariant line is spanned by e.f + 1/2 h.h (up to scale)
    ratio = vec.data[((), (0, 1))] / vec.data[((), (2, 2))]
    assert ratio == 2  # (e x f + f x e) coefficient twice the h x h one


def test_invariants_wedge3_sl2():
    g = sl2()
    basis = invariants(g, WEDGE(3))
    assert len(basis) == 1
    assert set(basis[0].data) == {((), (0, 1, 2))}


def test_invariants_match_kernel_of_differential(rng):
    # two code paths agree: the action-matrix kernel and the slot-formula
    # differential restricted to degree 0 have the same kernel
    from qlie import linalg
    from test_ce_reference import module_basis

    for g in (sl2(), heisenberg()):
        for module in (ADJOINT, SYM(2), WEDGE(2)):
            basis = invariants(g, module)
            for x in basis:
                assert ce_differential(x).is_zero()
            # kernel dimension via the slot-formula matrix
            keys = module_basis(g, module)
            cols = []
            out_keys = set()
            images = []
            for key in keys:
                dx = ce_differential(CECochain(g, 0, module, {((), key): F(1)}))
                images.append(dx.data)
                out_keys.update(dx.data)
            out_keys = sorted(out_keys)
            rows = [[F(img.get(ok, 0)) for img in images] for ok in out_keys]
            dim_kernel = len(keys) - linalg.rank(dict(enumerate(row)) for row in rows)
            assert dim_kernel == len(basis)


def test_invariants_abelian_whole_space():
    g = abelian(3)
    assert len(invariants(g, WEDGE(2))) == 3


def test_cohomology_dims_sl2():
    g = sl2()
    assert cohomology_dim(g, TRIVIAL, 0) == 1
    assert cohomology_dim(g, TRIVIAL, 1) == 0
    assert cohomology_dim(g, TRIVIAL, 2) == 0
    assert cohomology_dim(g, TRIVIAL, 3) == 1


def test_split_subalgebra_borel():
    g = sl2()
    split = split_subalgebra(g, (0, 2))
    assert split.dim_h == 2 and len(split.m_indices) == 1
    # blocks read off the sl2 constants: [e, f] = h gives A, [h, f] = -2f
    # gives the m component B, which the split does not keep
    assert split.A == {(0, 0): {1: F(1)}}
    assert split.C == {}
    ref = ref_split_blocks(g, split.h_indices, split.m_indices)
    assert ref["B"] == {(1, 0): {0: F(-2)}} and ref["D"] == {}
    h = split.h_algebra()
    assert h.bracket(0, 1) == {0: F(-2)}  # [e, h] = -2e


def test_split_subalgebra_whole_algebra():
    g = sl2()
    split = split_subalgebra(g, (0, 1, 2))
    assert len(split.m_indices) == 0
    assert split.f and not split.A and not split.C
    ref = ref_split_blocks(g, split.h_indices, split.m_indices)
    assert not ref["B"] and not ref["D"]


def test_cochain_keys_are_canonical_in_the_module_slots():
    g = sl2()
    wedge = CECochain.build(g, 1, WEDGE(2), [(((2,), (1, 0)), F(3)), (((0,), (1, 1)), F(5))])
    assert wedge.data == {((2,), (0, 1)): F(-3)}
    sym = CECochain.build(g, 0, SYM(2), [(((), (2, 0)), F(1)), (((), (0, 2)), F(1))])
    assert sym.data == {((), (0, 2)): F(2)}
    for module, up in ((WEDGE(2), (1, 0)), (WEDGE(2), (1, 1)), (SYM(2), (2, 0))):
        with pytest.raises(InputError):
            CECochain(g, 1, module, {((0,), up): F(1)})


def test_ce_differential_rejects_unknown_module():
    g = sl2()
    with pytest.raises(InputError):
        ce_differential(CECochain(g, 0, ("spinor",), {((), ()): F(1)}))


def test_split_subalgebra_rejects_non_subalgebra():
    g = sl2()
    with pytest.raises(InputError) as err:
        split_subalgebra(g, (1, 0))  # span(f, e): [e, f] = h escapes
    assert "subalgebra" in str(err.value)


def test_split_blocks_reassemble_brackets():
    g = sl3()
    split = split_subalgebra(g, (0, 1, 2, 3, 4))  # Borel: Cartan + positives
    assert reassembled_brackets(split) == {(i, j): g.bracket(i, j) for i in range(g.dim) for j in range(g.dim)}


def test_sl3_trace_pairing_values():
    g = sl3()
    from qlie.lie import trace_pairing

    kappa = trace_pairing(g)
    h1, h2 = g.index("h1"), g.index("h2")
    assert kappa[h1][h1] == 2 and kappa[h1][h2] == -1
    assert kappa[g.index("e1")][g.index("f1")] == 1
    assert kappa[g.index("e12")][g.index("f12")] == 1


def test_casimir_from_pairing_sl2():
    g = sl2()
    c = casimir_from_pairing(g)
    assert dict(c.data) == {((), (0, 1)): F(1), ((), (2, 2)): F(1, 2)}
