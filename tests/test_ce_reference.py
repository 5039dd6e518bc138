"""The polyvector Chevalley-Eilenberg differential against the slot formula it replaced.

`ref_ce_differential` is the slot-wise formula `qlie.lie.ce_differential`
used before the differential became `PolyVectorAlgebra.d`: for every
(k+1)-subset of basis indices it sums the module-action terms and the
bracket terms of the cochain.  `module_basis` and `module_action` are the
coefficient-module bases and the adjoint action it is built on, which
`qlie.lie.invariants` reduced before the invariants became the kernel of
d on C^0; `ref_invariants` is that reduction.  `dense_generator_images`
is the dense construction of the generator images `_d_cov`/`_d_vec`, one
structure constant per (pair, index).  All are kept here as independent
oracles only.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from qlie import linalg
from qlie.errors import InputError
from qlie.lie import (
    ADJOINT,
    CECochain,
    SYM,
    TRIVIAL,
    WEDGE,
    abelian,
    direct_sum,
    heisenberg,
    multiplicity_factorial,
    sl,
    sl2,
    sl3,
)
from qlie.polyvectors import PolyVectorAlgebra, ce_differential, cohomology_dim, invariants
from qlie.scalars import combine
from qlie.tensors import _sort_with_sign

MODULES = (TRIVIAL, ADJOINT, WEDGE(2), WEDGE(3), SYM(2), SYM(3))
ALGEBRAS = {
    "sl2": sl2,
    "sl3": sl3,
    "heisenberg5": lambda: heisenberg(5),
    "sl2+sl2": lambda: direct_sum(sl2(), sl2()),
}


def module_basis(g, module):
    kind = module[0]
    if kind == "triv":
        return [()]
    if kind == "adjoint":
        return [(i,) for i in range(g.dim)]
    if kind == "wedge":
        return list(combinations(range(g.dim), module[1]))
    if kind == "sym":
        return list(combinations_with_replacement(range(g.dim), module[1]))
    raise InputError(f"unsupported module {module!r}")


def module_action(g, xi, module, key):
    """ad(xi) acting on a module basis element, as a coefficient dict."""
    kind = module[0]

    def terms():
        # ad(xi) replaces one slot at a time (no slots for the trivial module)
        for slot in range(len(key)):
            for m, c in g.bracket(xi, key[slot]).items():
                new = key[:slot] + (m,) + key[slot + 1 :]
                if kind == "wedge":
                    res = _sort_with_sign(new)
                    if res is not None:
                        yield res[1], res[0] * c
                elif kind == "sym":
                    # keys are orbit sums over distinct permutations, so slot
                    # replacement carries the multiplicity correction
                    tgt = tuple(sorted(new))
                    factor = Fraction(multiplicity_factorial(tgt), multiplicity_factorial(key))
                    yield tgt, factor * c
                else:
                    yield new, c

    return combine(terms())


def ref_invariants(g, module):
    """Kernel of the action rows of every ad(xi), in the module's orbit basis."""
    keys = module_basis(g, module)
    rows = []
    for xi in range(g.dim):
        by_out = {}
        for j, key in enumerate(keys):
            for ok, c in module_action(g, xi, module, key).items():
                by_out.setdefault(ok, {})[j] = c
        rows.extend(by_out[ok] for ok in sorted(by_out))
    return [
        CECochain(g, 0, module, {((), keys[i]): c for i, c in sorted(vec.items())})
        for vec in linalg.nullspace(rows, n_cols=len(keys))
    ]


def ref_ce_differential(x: CECochain) -> CECochain:
    """Degree k -> k+1 differential in the ledger sign convention, slot by slot."""
    g, k, module = x.g, x.k, x.module
    by_down = {}
    for (down, up), coef in x.data.items():
        by_down.setdefault(down, {})[up] = coef
    entries = []
    for down in combinations(range(g.dim), k + 1):
        # action terms: -sum_s (-1)^s xi_s . x(rest)
        for s in range(k + 1):
            rest = down[:s] + down[s + 1 :]
            sgn = -((-1) ** s)
            for up, coef in by_down.get(rest, {}).items():
                for up2, c2 in module_action(g, down[s], module, up).items():
                    entries.append(((down, up2), sgn * coef * c2))
        # bracket terms: -sum_{s<t} (-1)^{s+t} x([xi_s, xi_t], rest)
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = tuple(v for i, v in enumerate(down) if i not in (s, t))
                sgn = -((-1) ** (s + t))
                for m, c in g.bracket(down[s], down[t]).items():
                    # x(e_m, rest) with e_m inserted in front, then sorted
                    res = _sort_with_sign((m,) + rest)
                    if res is None:
                        continue
                    psgn, dkey = res
                    for up, coef in by_down.get(dkey, {}).items():
                        entries.append(((down, up), sgn * c * psgn * coef))
    return CECochain.build(g, k + 1, module, entries)


def dense_generator_images(g):
    """d e^i = 1/2 f^i_jk e^j e^k and d e_i = f^k_ij e^j e_k over every pair and index."""
    pairs = list(combinations(range(g.dim), 2))
    d_cov = [
        combine((((j, k), ()), g.bracket(j, k).get(i, 0)) for j, k in pairs)
        for i in range(g.dim)
    ]
    d_vec = [
        combine((((j,), (k,)), c) for j in range(g.dim) for k, c in g.bracket(i, j).items())
        for i in range(g.dim)
    ]
    return d_cov, d_vec


def random_cochain(g, k, module, rng, n):
    """A cochain with n seeded nonzero entries (all of them if there are fewer)."""
    keys = [(down, up) for down in combinations(range(g.dim), k) for up in module_basis(g, module)]
    keys = rng.sample(keys, min(n, len(keys)))
    coefs = [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for _ in keys]
    return CECochain(g, k, module, dict(zip(keys, coefs)))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_ce_differential_matches_slot_formula(name):
    g = ALGEBRAS[name]()
    rng = random.Random(f"ce-{name}")
    compared = 0
    for module in MODULES:
        for k in range(4):
            for n in (1, 6, 40):
                x = random_cochain(g, k, module, rng, n)
                dx = ce_differential(x)
                assert dx == ref_ce_differential(x)
                assert dx.module == module and dx.k == k + 1
                compared += not dx.is_zero()
    assert compared > 40


def test_ce_differential_matches_slot_formula_on_dense_cochains():
    g = sl2()
    rng = random.Random(7)
    for module in MODULES:
        for k in range(4):
            keys = [(down, up) for down in combinations(range(3), k) for up in module_basis(g, module)]
            x = CECochain(g, k, module, {key: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for key in keys})
            assert ce_differential(x) == ref_ce_differential(x)


def ref_cohomology_dim(g, module, degree):
    """dim H^degree from the ranks of the slot-formula matrices in the orbit basis."""

    def keys(k):
        return [(down, up) for down in combinations(range(g.dim), k) for up in module_basis(g, module)]

    def rank(k):
        dst_index = {key: i for i, key in enumerate(keys(k + 1))}
        cols = []
        for key in keys(k):
            dx = ref_ce_differential(CECochain(g, k, module, {key: Fraction(1)}))
            cols.append({dst_index[out]: c for out, c in dx.data.items()})
        return linalg.rank(cols)

    dim_ker = len(keys(degree)) - rank(degree)
    return dim_ker - rank(degree - 1) if degree > 0 else dim_ker


@pytest.mark.parametrize(
    "name, modules",
    [
        ("sl2", MODULES),
        ("heisenberg5", (TRIVIAL, ADJOINT, WEDGE(2), SYM(2))),
        ("sl2+sl2", (TRIVIAL, ADJOINT)),
    ],
)
def test_cohomology_dim_matches_reference_rank(name, modules):
    g = ALGEBRAS[name]()
    for module in modules:
        for degree in range(4):
            assert cohomology_dim(g, module, degree) == ref_cohomology_dim(g, module, degree)


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + ["abelian4"])
@pytest.mark.parametrize("module", MODULES, ids=["triv", "adjoint", "wedge2", "wedge3", "sym2", "sym3"])
def test_invariants_match_module_action_reference(name, module):
    # the same basis, normalization included: the kernel of d on C^0 and
    # the kernel of the action rows have one reduced row echelon form
    g = abelian(4) if name == "abelian4" else ALGEBRAS[name]()
    got = invariants(g, module)
    assert [x.data for x in got] == [x.data for x in ref_invariants(g, module)]
    assert all(x.module == module and x.k == 0 for x in got)


def test_unknown_module_is_input_error():
    with pytest.raises(InputError, match="unsupported module"):
        invariants(sl2(), ("tensor", 2))


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + ["sl4"])
def test_sparse_generator_images_match_dense(name):
    g = sl(4) if name == "sl4" else ALGEBRAS[name]()
    P = PolyVectorAlgebra(g, 1)
    d_cov, d_vec = dense_generator_images(g)
    # the same maps, term for term and in the same order
    assert [list(el.items()) for el in P._d_cov] == [list(el.items()) for el in d_cov]
    assert [list(el.items()) for el in P._d_vec] == [list(el.items()) for el in d_vec]


def test_classical_theorems_on_sl4():
    # Whitehead: H^1 and H^2 of a semisimple algebra vanish in every
    # finite-dimensional module; dim H^3(g) = 1 for simple g
    g = sl(4)
    assert g.dim == 15
    assert cohomology_dim(g, ADJOINT, 1) == 0
    assert cohomology_dim(g, ADJOINT, 2) == 0
    assert cohomology_dim(g, TRIVIAL, 3) == 1
