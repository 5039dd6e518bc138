import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import (
    rand_cobracket,
    rand_fraction,
    rand_multivector,
    sl3_plus_sl2,
    sparse_multivector,
    sparse_structures,
    window_slices,
    zero_cobracket,
)
from qlie.errors import InputError
from qlie.lie import abelian, casimir_from_pairing, sl, sl2, sl3
from qlie.manin import dual_subalgebra_bplus_bminus, triple_to_bialgebra
from qlie.mc import (
    GaugePath,
    MCElement,
    decode_residual,
    encode_casimir,
    encode_structure,
    gauge_verify,
    mc_residual,
    mc_residual_is_zero,
    pol_bg,
    twist_path,
)
from qlie.qlb import QuasiLieBialgebra, Twist, check_qlb, twist
from qlie.tensors import Multivector


def F(a, b=1):
    return Fraction(a, b)


def test_pol_bg_slice_shapes():
    g = sl2()
    bases = window_slices(pol_bg(g, 1).P)
    # weight-2 degree-1 slice: maps g -> wedge^2 g; weight-3 degree-1: wedge^3 g
    assert len(bases[(1, 2)]) == 9
    assert len(bases[(1, 3)]) == 1
    assert len(bases[(0, 2)]) == 3
    # weight-2 degree-1 slice at shift 2 is Sym^2(g)
    assert len(window_slices(pol_bg(g, 2).P)[(1, 2)]) == 6
    L = pol_bg(g, 1)
    assert L.name == "Pol(Bsl2, 1)[>=2]"
    assert all(L.in_slice(key) for key in bases)
    assert not L.in_slice((1, 1)) and not L.in_slice((4, 2)) and not L.in_slice((0, 4))


def test_pol_bg_abelian_zero_differential():
    g = abelian(3)
    L = pol_bg(g, 1)
    for key, monos in window_slices(L.P).items():
        assert all(not L.apply_diff(key, {m: F(1)}) for m in monos)


def test_mc_residual_zero_element():
    g = sl2()
    L = pol_bg(g, 1)
    assert mc_residual_is_zero(mc_residual(L, MCElement({})))


def test_mc_residual_matches_check_qlb(rng):
    g = sl2()
    L = pol_bg(g, 1)
    agreements = 0
    for trial in range(100):
        if trial % 3 == 0:
            lam = rand_multivector(g, 2, rng)
            base = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(1)}))
            q = twist(base, Twist(lam), validate=False)
        else:
            q = QuasiLieBialgebra(g, rand_cobracket(g, rng), rand_multivector(g, 3, rng))
        direct = check_qlb(q)
        x = encode_structure(L, q.delta, q.phi)
        res = mc_residual(L, x)
        assert direct.passed == mc_residual_is_zero(res)
        decoded = decode_residual(L, res)
        got2 = decoded.get(2)
        assert (got2 is None and direct.cocycle.is_zero()) or got2 == direct.cocycle
        got3 = decoded.get(3)
        assert (got3 is None and direct.cojacobi.is_zero()) or got3 == direct.cojacobi
        agreements += 1
    assert agreements == 100


def test_mc_residual_nonzero_weight2_equals_ce_of_delta(rng):
    from qlie.polyvectors import ce_differential

    g = sl2()
    L = pol_bg(g, 1)
    delta = rand_cobracket(g, rng)
    q = QuasiLieBialgebra(g, delta, Multivector.zero(3, 3))
    x = encode_structure(L, q.delta, q.phi)
    res = mc_residual(L, x)
    decoded = decode_residual(L, res)
    assert decoded.get(2) == ce_differential(delta) or ce_differential(delta).is_zero()


def test_mc_residual_shift2_invariant_casimir():
    for g in (sl2(), sl3()):
        L = pol_bg(g, 2)
        c = casimir_from_pairing(g)
        x = encode_casimir(L, c)
        assert mc_residual_is_zero(mc_residual(L, x))
        # the weight-3 component of [c, c] vanishes identically: the bracket
        # on the degree-1 weight-2 slice (CE degree 0, Sym^2 g) is the zero map
        monos = L.P.slice_basis(0, 2)
        assert not any(L.P.bracket_monos(m1, m2) for m1 in monos for m2 in monos)


def test_mc_residual_shift2_non_invariant_fails():
    from qlie.lie import sym2_signature
    from qlie.tensors import SparseTensor

    g = sl2()
    L = pol_bg(g, 2)
    c_bad = SparseTensor.build(sym2_signature(3), [((0, 0), F(1))])
    x = encode_casimir(L, c_bad)
    assert not mc_residual_is_zero(mc_residual(L, x))


def test_mc_residual_shift2_decodes_like_casimir_invariance_residual(rng):
    # decoded residuals use the SYM(2) orbit basis of the CE residual d c,
    # repeated-index entries included: on sl2 with c = e.h the (e; e, e)
    # entry is 4, not the monomial coefficient 2
    from qlie.lie import sym2_signature
    from qlie.qlb import casimir_invariance_residual
    from qlie.tensors import SparseTensor

    g = sl2()
    L = pol_bg(g, 2)
    c = SparseTensor.build(sym2_signature(3), [((0, 2), F(1))])
    decoded = decode_residual(L, mc_residual(L, encode_casimir(L, c)))
    assert decoded[2].data[((0,), (0, 0))] == 4
    assert decoded == {2: casimir_invariance_residual(g, c)}
    for g in (sl2(), sl3()):
        L = pol_bg(g, 2)
        keys = list(combinations_with_replacement(range(g.dim), 2))
        for _ in range(6):
            picked = rng.sample(keys, 4) + [(rng.randrange(g.dim),) * 2]
            c = SparseTensor.build(sym2_signature(g.dim), [(key, rand_fraction(rng)) for key in picked])
            residual = casimir_invariance_residual(g, c)
            assert not residual.is_zero()
            assert decode_residual(L, mc_residual(L, encode_casimir(L, c))) == {2: residual}


def test_encoders_check_the_shift():
    L2 = pol_bg(sl2(), 2)
    with pytest.raises(InputError):
        encode_structure(L2, zero_cobracket(sl2()), Multivector.zero(3, 3))
    L1 = pol_bg(sl2(), 1)
    with pytest.raises(InputError):
        encode_casimir(L1, casimir_from_pairing(sl2()))


def test_gauge_constant_path_iff_mc():
    g = sl2()
    L = pol_bg(g, 1)
    q = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(1)}))
    x = encode_structure(L, q.delta, q.phi)
    path = GaugePath({}, {2: [x.weight(2)], 3: [x.weight(3)]})
    assert gauge_verify(L, x, x, path).passed
    # constant path at a non-MC point fails the MC condition
    bad = QuasiLieBialgebra(g, rand_cobracket(g, __import__("random").Random(1)), Multivector.zero(3, 3))
    if not check_qlb(bad).passed:
        xb = encode_structure(L, bad.delta, bad.phi)
        path_b = GaugePath({}, {2: [xb.weight(2)], 3: [xb.weight(3)]})
        rep = gauge_verify(L, xb, xb, path_b)
        assert not rep.stays_maurer_cartan


def test_gauge_integrated_twist_paths(rng):
    g = sl2()
    L = pol_bg(g, 1)
    for _ in range(20):
        lam0 = rand_multivector(g, 2, rng)
        base = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(rng.randint(-2, 2))}))
        q0 = twist(base, Twist(lam0), validate=False)
        assert check_qlb(q0).passed
        lam = rand_multivector(g, 2, rng)
        x, y, path = twist_path(L, q0.delta, q0.phi, lam)
        rep = gauge_verify(L, x, y, path)
        assert rep.passed, rep


def test_gauge_corrupted_quadratic_term_fails(rng):
    g = sl2()
    L = pol_bg(g, 1)
    lam = rand_multivector(g, 2, rng)
    q0 = QuasiLieBialgebra(g, zero_cobracket(g), Multivector.zero(3, 3))
    x, y, path = twist_path(L, q0.delta, q0.phi, lam)
    alpha = {w: [dict(v) for v in poly] for w, poly in path.alpha.items()}
    a3 = alpha.setdefault(3, [{}])
    while len(a3) < 3:
        a3.append({})
    a3[2] = dict(a3[2])
    efh = ((), (0, 1, 2))  # the basis monomial of the weight-3 degree-1 slice
    a3[2][efh] = a3[2].get(efh, F(0)) + F(1)
    bad = GaugePath(path.lam, alpha)
    assert not gauge_verify(L, x, y, bad).passed


def test_gauge_endpoint_mismatch_detected(rng):
    g = sl2()
    L = pol_bg(g, 1)
    lam = rand_multivector(g, 2, rng)
    q0 = QuasiLieBialgebra(g, zero_cobracket(g), Multivector.zero(3, 3))
    x, y, path = twist_path(L, q0.delta, q0.phi, lam)
    wrong_y = MCElement({2: {((0,), (0, 1)): F(5)}})
    rep = gauge_verify(L, x, wrong_y, path)
    assert not rep.endpoints_match


def test_gauge_path_is_tied_to_its_twist(rng):
    # the alpha family integrated from lambda is rejected when presented
    # with a different gauge generator (and vice versa)
    g = sl2()
    L = pol_bg(g, 1)
    for _ in range(20):
        lam = rand_multivector(g, 2, rng)
        other = rand_multivector(g, 2, rng)
        if lam == other:
            continue
        q0 = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(1)}))
        x, y, path = twist_path(L, q0.delta, q0.phi, lam)
        assert gauge_verify(L, x, y, path).passed
        _, _, other_path = twist_path(L, q0.delta, q0.phi, other)
        mixed = GaugePath(other_path.lam, path.alpha)
        assert not gauge_verify(L, x, y, mixed).passed



def test_mc_residual_matches_check_qlb_beyond_dim_8():
    g, phi_inv = sl3_plus_sl2()
    L = pol_bg(g, 1)
    rng = random.Random(20240911)
    verdicts, failing_weights = [], set()
    for q in sparse_structures(g, rng, 8, phi_inv):
        direct = check_qlb(q)
        res = mc_residual(L, encode_structure(L, q.delta, q.phi))
        decoded = decode_residual(L, res)
        for w, expected in ((2, direct.cocycle), (3, direct.cojacobi), (4, direct.compat)):
            got = decoded.get(w)
            assert (got is None and expected.is_zero()) or got == expected, w
        assert direct.passed == mc_residual_is_zero(res)
        verdicts.append(direct.passed)
        failing_weights |= set(decoded)
    assert verdicts == [True, False] * 4
    assert failing_weights == {2, 3, 4}


@pytest.mark.parametrize("n", [4, 5])
def test_mc_residual_matches_check_qlb_on_standard_sl_n(n):
    # the standard bialgebra of sl(n), a sparse twist of it (both pass) and a
    # copy with phi one basis 3-vector (fails)
    b = triple_to_bialgebra(dual_subalgebra_bplus_bminus(sl(n)))
    g = b.g
    rng = random.Random(20241018 + n)
    twisted = twist(b, Twist(sparse_multivector(g, 2, rng, 3)), validate=False)
    broken = QuasiLieBialgebra(g, b.delta, Multivector.basis(g.dim, sorted(rng.sample(range(g.dim), 3))))
    assert twisted != b
    L = pol_bg(g, 1)
    verdicts = []
    for q in (b, twisted, broken):
        direct = check_qlb(q)
        res = mc_residual(L, encode_structure(L, q.delta, q.phi))
        decoded = decode_residual(L, res)
        for w, expected in ((2, direct.cocycle), (3, direct.cojacobi), (4, direct.compat)):
            got = decoded.get(w)
            assert (got is None and expected.is_zero()) or got == expected, w
        assert direct.passed == mc_residual_is_zero(res)
        verdicts.append(direct.passed)
    assert verdicts == [True, True, False]
