from fractions import Fraction
from itertools import combinations

import pytest

from conftest import coboundary, rand_cobracket, solve, zero_cobracket
from qlie.errors import InputError, PreconditionError
from qlie.lie import abelian, check_lie, sl, sl2, sl3, trace_pairing
from qlie.manin import (
    ManinPair,
    ManinTriple,
    QuadraticLieAlgebra,
    check_quadratic,
    drinfeld_double,
    dual_subalgebra_bplus_bminus,
    manin_pair_check,
    manin_triple_check,
    triple_to_bialgebra,
)
from qlie.qlb import QuasiLieBialgebra, check_qlb
from qlie.tensors import Multivector


def F(a, b=1):
    return Fraction(a, b)


def test_check_quadratic_trace_form():
    g = sl2()
    quad = QuadraticLieAlgebra(g, trace_pairing(g))
    rep = check_quadratic(quad)
    assert rep.passed


def test_check_quadratic_abelian_identity():
    quad = QuadraticLieAlgebra(abelian(3), [[F(int(i == j)) for j in range(3)] for i in range(3)])
    assert check_quadratic(quad).passed


def test_check_quadratic_non_invariant_witness():
    g = sl2()
    quad = QuadraticLieAlgebra(g, [[F(int(i == j)) for j in range(3)] for i in range(3)])
    rep = check_quadratic(quad)
    assert rep.nondegenerate and not rep.invariant
    assert rep.witness is not None


def test_manin_pair_diagonal_and_graph():
    g = sl2()
    t = dual_subalgebra_bplus_bminus(g)
    rep = manin_pair_check(ManinPair(t.quad, t.g_indices))
    assert rep.passed
    # a non-isotropic subspace fails: take the dual of the diagonal test,
    # pairing of e with f inside one copy is nonzero on the diagonal copy
    bad = ManinPair(t.quad, (0, 1, 3))
    assert not manin_pair_check(bad).passed


def test_hyperbolic_plane_isotropic_line():
    # abelian d of dim 2 with pairing diag(1, -1): the line through e1 + e2
    # is isotropic; rebase so it is a basis vector
    from qlie.manin import _rebase

    lie, pairing = _rebase(
        "hyperbolic",
        ["u", "v"],
        [{0: F(1), 1: F(1)}, {0: F(1, 2), 1: F(-1, 2)}],
        lambda x, y: {},
        lambda x, y: x.get(0, 0) * y.get(0, 0) - x.get(1, 0) * y.get(1, 0),
    )
    quad = QuadraticLieAlgebra(lie, pairing)
    assert check_quadratic(quad).passed
    assert manin_pair_check(ManinPair(quad, (0,))).passed


def test_standard_triple_sl2():
    g = sl2()
    t = dual_subalgebra_bplus_bminus(g)
    assert t.quad.lie.dim == 6
    assert check_lie(t.quad.lie).passed
    rep = manin_triple_check(t)
    assert rep.passed
    assert rep.complementary  # transversality: zero intersection by rank


def test_standard_triple_sl3():
    g = sl3()
    t = dual_subalgebra_bplus_bminus(g)
    assert t.quad.lie.dim == 16
    assert len(t.g_indices) == 8 and len(t.gstar_indices) == 8
    assert manin_triple_check(t).passed


def test_standard_triple_rejects_abelian():
    with pytest.raises(InputError):
        dual_subalgebra_bplus_bminus(abelian(3))


def test_triple_to_bialgebra_sl2():
    g = sl2()
    t = dual_subalgebra_bplus_bminus(g)
    b = triple_to_bialgebra(t)
    assert check_qlb(b).passed
    assert b.phi.is_zero()
    assert not b.delta.is_zero()
    # the cobracket is the coboundary of a multiple of e ^ f
    keys2 = list(combinations(range(3), 2))
    basis_mvs = [Multivector(3, 2, {kk: F(1)}) for kk in keys2]
    images = [coboundary(g, mv) for mv in basis_mvs]
    all_keys = sorted({k for im in images for k in im.data} | set(b.delta.data))
    rows = [[F(im.data.get(key, 0)) for im in images] for key in all_keys]
    rhs = [F(b.delta.data.get(key, 0)) for key in all_keys]
    sol = solve([dict(enumerate(row)) for row in rows], rhs, len(keys2))
    assert sol is not None
    # lambda proportional to e ^ f: only the (e, f) coordinate is nonzero
    assert sol[0] != 0 and sol[1] == 0 and sol[2] == 0


def test_abelian_hyperbolic_triple_gives_zero_cobracket():
    d = abelian(4)
    pairing = [[F(0)] * 4 for _ in range(4)]
    for i in range(2):
        pairing[i][2 + i] = F(1)
        pairing[2 + i][i] = F(1)
    t = ManinTriple(QuadraticLieAlgebra(d, pairing), (0, 1), (2, 3))
    b = triple_to_bialgebra(t)
    assert b.delta.is_zero()


def test_double_of_zero_cobracket_is_semidirect():
    g = sl2()
    b = QuasiLieBialgebra(g, zero_cobracket(g), Multivector.zero(3, 3))
    t = drinfeld_double(b)
    assert check_lie(t.quad.lie).passed
    assert manin_triple_check(t).passed
    d = t.quad.lie
    # [xi^i, xi^j] = 0 and [x, xi] has no g component
    for i in range(3, 6):
        for j in range(i + 1, 6):
            assert d.bracket(i, j) == {}
    for i in range(3):
        for j in range(3, 6):
            assert all(k >= 3 for k in d.bracket(i, j))


def test_double_round_trip_standard_bialgebra():
    g = sl2()
    b = QuasiLieBialgebra(
        g, coboundary(g, Multivector(3, 2, {(0, 1): F(1, 4)})), Multivector.zero(3, 3)
    )
    assert check_qlb(b).passed
    t = drinfeld_double(b)
    assert check_lie(t.quad.lie).passed
    assert manin_triple_check(t).passed
    back = triple_to_bialgebra(t)
    assert back == b


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_standard_triple_sl_n(n):
    # the standard Manin triple of sl(n), its Lie bialgebra and the double of
    # that bialgebra, which must give the bialgebra back
    t = dual_subalgebra_bplus_bminus(sl(n))
    assert manin_triple_check(t).passed
    b = triple_to_bialgebra(t)
    assert check_qlb(b).passed
    assert not b.delta.is_zero()
    double = drinfeld_double(b)
    assert check_lie(double.quad.lie).passed
    assert manin_triple_check(double).passed
    assert triple_to_bialgebra(double) == b


def test_double_rejects_nonzero_phi():
    g = sl2()
    b = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(1)}))
    with pytest.raises(PreconditionError):
        drinfeld_double(b)


def test_double_jacobi_iff_bialgebra(rng):
    from conftest import rand_multivector

    g = sl2()
    valid = invalid = 0
    for trial in range(50):
        if trial % 2 == 0:
            lam = rand_multivector(g, 2, rng)
            q = QuasiLieBialgebra(g, coboundary(g, lam), Multivector.zero(3, 3))
        else:
            q = QuasiLieBialgebra(g, rand_cobracket(g, rng), Multivector.zero(3, 3))
        ok = check_qlb(q).passed
        t = drinfeld_double(q)
        jac = check_lie(t.quad.lie)
        assert jac.passed == ok
        if ok:
            valid += 1
            # the pairing of a true double is invariant as well
            assert check_quadratic(t.quad).passed
        else:
            invalid += 1
            assert jac.witness is not None
    assert valid and invalid


def test_round_trip_and_tautological_match_sl3():
    g = sl3()
    t = dual_subalgebra_bplus_bminus(g)
    b = triple_to_bialgebra(t)
    assert check_qlb(b).passed
    t2 = drinfeld_double(b)
    assert triple_to_bialgebra(t2) == b
    d_new, d_old = t2.quad.lie, t.quad.lie
    for i in range(d_old.dim):
        for j in range(i + 1, d_old.dim):
            assert d_new.bracket(i, j) == d_old.bracket(i, j)
