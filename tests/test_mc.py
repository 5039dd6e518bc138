from fractions import Fraction

import pytest

from conftest import rand_cobracket, rand_multivector, zero_cobracket
from qlie.errors import WindowOverflowError
from qlie.lie import abelian, casimir_from_pairing, sl2, sl3
from qlie.mc import GaugePath, MCElement, gauge_verify, mc_residual, mc_residual_is_zero, pol_bg
from qlie.qlb import QuasiLieBialgebra, Twist, check_qlb, twist
from qlie.tensors import Multivector


def F(a, b=1):
    return Fraction(a, b)


def test_pol_bg_slice_shapes():
    g = sl2()
    L, codec = pol_bg(g, 1)
    # weight-2 degree-1 slice: maps g -> wedge^2 g; weight-3 degree-1: wedge^3 g
    assert L.dim((1, 2)) == 9
    assert L.dim((1, 3)) == 1
    assert L.dim((0, 2)) == 3
    L2, codec2 = pol_bg(g, 2)
    # weight-2 degree-1 slice at shift 2 is Sym^2(g)
    assert L2.dim((1, 2)) == 6


def test_pol_bg_structure_laws():
    g = sl2()
    L, _ = pol_bg(g, 1)
    assert L.check_differential_squares_to_zero()
    assert L.check_bracket_laws()


def test_pol_bg_abelian_zero_differential():
    g = abelian(3)
    L, _ = pol_bg(g, 1)
    for key, cols in L.diff.items():
        assert all(not col for col in cols)


def test_pol_bg_rejects_large_algebras():
    from qlie.lie import direct_sum

    big = direct_sum(sl3(), sl2())
    with pytest.raises(WindowOverflowError):
        pol_bg(big, 1)


def test_mc_residual_zero_element():
    g = sl2()
    L, codec = pol_bg(g, 1)
    assert mc_residual_is_zero(mc_residual(L, MCElement({})))


def test_mc_residual_matches_check_qlb(rng):
    g = sl2()
    L, codec = pol_bg(g, 1)
    agreements = 0
    for trial in range(100):
        if trial % 3 == 0:
            lam = rand_multivector(g, 2, rng)
            base = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(1)}))
            q = twist(base, Twist(lam), validate=False)
        else:
            q = QuasiLieBialgebra(g, rand_cobracket(g, rng), rand_multivector(g, 3, rng))
        direct = check_qlb(q)
        x = codec.encode_structure(q.delta, q.phi)
        res = mc_residual(L, x)
        assert direct.passed == mc_residual_is_zero(res)
        decoded = codec.decode_residual(res)
        got2 = decoded.get(2)
        assert (got2 is None and direct.cocycle.is_zero()) or got2 == direct.cocycle
        got3 = decoded.get(3)
        assert (got3 is None and direct.cojacobi.is_zero()) or got3 == direct.cojacobi
        agreements += 1
    assert agreements == 100


def test_mc_residual_nonzero_weight2_equals_ce_of_delta(rng):
    from qlie.lie import ce_differential

    g = sl2()
    L, codec = pol_bg(g, 1)
    delta = rand_cobracket(g, rng)
    q = QuasiLieBialgebra(g, delta, Multivector.zero(3, 3))
    x = codec.encode_structure(q.delta, q.phi)
    res = mc_residual(L, x)
    decoded = codec.decode_residual(res)
    assert decoded.get(2) == ce_differential(delta) or ce_differential(delta).is_zero()


def test_mc_residual_shift2_invariant_casimir():
    for g in (sl2(), sl3()):
        max_w = 4 if g.dim <= 3 else 3
        L, codec = pol_bg(g, 2, max_weight=max_w)
        c = casimir_from_pairing(g)
        x = codec.encode_casimir(c)
        assert mc_residual_is_zero(mc_residual(L, x))
        # the weight-3 component of [c, c] vanishes identically: the bracket
        # structure tensor on the degree-1 weight-2 slice is the zero map
        struct = L.bracket_structure((1, 2), (1, 2))
        assert all(not vec for vec in struct.values())


def test_mc_residual_shift2_non_invariant_fails():
    from qlie.lie import sym2_signature
    from qlie.tensors import SparseTensor

    g = sl2()
    L, codec = pol_bg(g, 2)
    c_bad = SparseTensor.build(sym2_signature(3), [((0, 0), F(1))])
    x = codec.encode_casimir(c_bad)
    assert not mc_residual_is_zero(mc_residual(L, x))


def test_gauge_constant_path_iff_mc():
    g = sl2()
    L, codec = pol_bg(g, 1)
    q = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(1)}))
    x = codec.encode_structure(q.delta, q.phi)
    path = GaugePath({}, {2: [x.weight(2)], 3: [x.weight(3)]})
    assert gauge_verify(L, x, x, path).passed
    # constant path at a non-MC point fails the MC condition
    bad = QuasiLieBialgebra(g, rand_cobracket(g, __import__("random").Random(1)), Multivector.zero(3, 3))
    if not check_qlb(bad).passed:
        xb = codec.encode_structure(bad.delta, bad.phi)
        path_b = GaugePath({}, {2: [xb.weight(2)], 3: [xb.weight(3)]})
        rep = gauge_verify(L, xb, xb, path_b)
        assert not rep.stays_maurer_cartan


def test_gauge_integrated_twist_paths(rng):
    g = sl2()
    L, codec = pol_bg(g, 1)
    for _ in range(20):
        lam0 = rand_multivector(g, 2, rng)
        base = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(rng.randint(-2, 2))}))
        q0 = twist(base, Twist(lam0), validate=False)
        assert check_qlb(q0).passed
        lam = rand_multivector(g, 2, rng)
        x, y, path = codec.twist_path(q0.delta, q0.phi, lam)
        rep = gauge_verify(L, x, y, path)
        assert rep.passed, rep


def test_gauge_corrupted_quadratic_term_fails(rng):
    g = sl2()
    L, codec = pol_bg(g, 1)
    lam = rand_multivector(g, 2, rng)
    q0 = QuasiLieBialgebra(g, zero_cobracket(g), Multivector.zero(3, 3))
    x, y, path = codec.twist_path(q0.delta, q0.phi, lam)
    alpha = {w: [dict(v) for v in poly] for w, poly in path.alpha.items()}
    a3 = alpha.setdefault(3, [{}])
    while len(a3) < 3:
        a3.append({})
    a3[2] = dict(a3[2])
    a3[2][0] = a3[2].get(0, F(0)) + F(1)
    bad = GaugePath(path.lam, alpha)
    assert not gauge_verify(L, x, y, bad).passed


def test_gauge_endpoint_mismatch_detected(rng):
    g = sl2()
    L, codec = pol_bg(g, 1)
    lam = rand_multivector(g, 2, rng)
    q0 = QuasiLieBialgebra(g, zero_cobracket(g), Multivector.zero(3, 3))
    x, y, path = codec.twist_path(q0.delta, q0.phi, lam)
    wrong_y = MCElement({2: {0: F(5)}})
    rep = gauge_verify(L, x, wrong_y, path)
    assert not rep.endpoints_match


def test_serialization_round_trip_structure():
    from qlie.formats import dgla_to_dict

    g = sl2()
    L, _ = pol_bg(g, 1)
    doc = dgla_to_dict(L)
    assert doc["name"].startswith("Pol(B")
    assert "1,2" in doc["bases"]
    # every slice pair whose bracket lands in the window is serialised
    assert "1,2|1,2" in doc["brackets"] and "0,2|1,2" in doc["brackets"]
    assert "1,2|1,3" not in doc["brackets"]
    assert doc == dgla_to_dict(pol_bg(g, 1)[0])


def test_gauge_path_is_tied_to_its_twist(rng):
    # the alpha family integrated from lambda is rejected when presented
    # with a different gauge generator (and vice versa)
    g = sl2()
    L, codec = pol_bg(g, 1)
    for _ in range(20):
        lam = rand_multivector(g, 2, rng)
        other = rand_multivector(g, 2, rng)
        if lam == other:
            continue
        q0 = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(1)}))
        x, y, path = codec.twist_path(q0.delta, q0.phi, lam)
        assert gauge_verify(L, x, y, path).passed
        _, _, other_path = codec.twist_path(q0.delta, q0.phi, other)
        mixed = GaugePath(other_path.lam, path.alpha)
        assert not gauge_verify(L, x, y, mixed).passed
