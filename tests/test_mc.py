import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import (
    FIXTURES,
    multivector,
    rand_cobracket,
    rand_fraction,
    rand_multivector,
    sl3_plus_sl2,
    sparse_multivector,
    sparse_structures,
    sym2,
    window_monos,
    window_slices,
    zero_cobracket,
)
from mc_oracle import (
    GaugePath,
    check_qlb_by_weight,
    full_residual,
    structure_by_weight,
    gauge_verify,
    mc_residual_by_weight,
    twist_path,
)
from qlie import mc
from qlie.errors import InputError
from qlie.formats import lie_from_dict
from qlie.lie import LieAlgebra, abelian, casimir_from_pairing, heisenberg, sl, sl2, sl3
from qlie.manin import dual_subalgebra_bplus_bminus, triple_to_bialgebra
from qlie.mc import mc_residual
from qlie.polyvectors import PolyVectorAlgebra, check_lie
from qlie.qlb import QuasiLieBialgebra, Twist, check_qlb, mc_element, twist
from qlie.scalars import RationalFunction, vec_add
from qlie.tensors import CECochain, WEDGE


def F(a, b=1):
    return Fraction(a, b)


def _agree_weight_by_weight(q):
    """mc_residual and check_qlb against the residuals taken one by one
    and against the per-weight polynomial residual; returns the verdict."""
    P = PolyVectorAlgebra(q.g, 1)
    res = mc_residual(P, mc_element(P, q.delta, q.phi))
    oracle = check_qlb_by_weight(q)
    for w, expected in ((2, oracle.cocycle), (3, oracle.cojacobi), (4, oracle.compat)):
        got = res.get(w)
        assert (got is None and expected.is_zero()) or got == expected, w
    assert res == mc_residual_by_weight(P, structure_by_weight(P, q.delta, q.phi))
    direct = check_qlb(q)
    assert (direct.cocycle, direct.cojacobi, direct.compat) == (oracle.cocycle, oracle.cojacobi, oracle.compat)
    assert direct.passed == oracle.passed == (not res)
    return oracle.passed


def test_pol_bg_slice_shapes():
    g = sl2()
    bases = window_slices(PolyVectorAlgebra(g, 1))
    # weight-2 degree-1 slice: maps g -> wedge^2 g; weight-3 degree-1: wedge^3 g
    assert len(bases[(1, 2)]) == 9
    assert len(bases[(1, 3)]) == 1
    assert len(bases[(0, 2)]) == 3
    # weight-2 degree-1 slice at shift 2 is Sym^2(g)
    assert len(window_slices(PolyVectorAlgebra(g, 2))[(1, 2)]) == 6
    # the degree-0 weight-4 slice would sit at CE degree -2
    assert (0, 4) not in bases


def test_pol_bg_abelian_zero_differential():
    P = PolyVectorAlgebra(abelian(3), 1)
    assert all(not P.d({m: F(1)}) for m in window_monos(P))


def test_mc_residual_zero_element():
    assert mc_residual(PolyVectorAlgebra(sl2(), 1), {}) == {}


def test_mc_residual_matches_check_qlb(rng):
    g = sl2()
    verdicts = []
    for trial in range(100):
        if trial % 3 == 0:
            lam = rand_multivector(g, 2, rng)
            base = QuasiLieBialgebra(g, zero_cobracket(g), multivector(g, 3, [((0, 1, 2), F(1))]))
            q = twist(base, Twist(lam))
        else:
            q = QuasiLieBialgebra(g, rand_cobracket(g, rng), rand_multivector(g, 3, rng))
        verdicts.append(_agree_weight_by_weight(q))
    assert 0 < sum(verdicts) < 100


def test_mc_residual_nonzero_weight2_equals_ce_of_delta(rng):
    from qlie.polyvectors import ce_differential

    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    delta = rand_cobracket(g, rng)
    res = mc_residual(P, mc_element(P, delta, multivector(g, 3)))
    assert res.get(2) == ce_differential(delta) or ce_differential(delta).is_zero()


def _casimir_oracles(P, c):
    """d c + 1/2 [c, c] per weight, and d c alone, both decoded."""
    x = P.from_cochain(c)
    dc = P.to_cochain(P.d(x), 1, 2)
    return mc_residual_by_weight(P, {2: x} if x else {}), {2: dc} if not dc.is_zero() else {}


def test_mc_residual_shift2_invariant_casimir():
    for g in (sl2(), sl3()):
        P = PolyVectorAlgebra(g, 2)
        c = casimir_from_pairing(g)
        assert mc_residual(P, P.from_cochain(c)) == {}
        assert _casimir_oracles(P, c) == ({}, {})
        # the weight-3 component of [c, c] vanishes identically: the bracket
        # on the degree-1 weight-2 slice (CE degree 0, Sym^2 g) is the zero map
        monos = P.slice_basis(0, 2)
        assert not any(P.bracket({m1: 1}, {m2: 1}) for m1 in monos for m2 in monos)


def test_mc_residual_shift2_non_invariant_fails():
    g = sl2()
    P = PolyVectorAlgebra(g, 2)
    c_bad = sym2(g, [((0, 0), F(1))])
    res = mc_residual(P, P.from_cochain(c_bad))
    assert set(res) == {2}
    assert (res, res) == _casimir_oracles(P, c_bad)


def test_mc_residual_shift2_decodes_like_casimir_invariance_residual(rng):
    # decoded residuals use the SYM(2) orbit basis of the CE residual d c,
    # repeated-index entries included: on sl2 with c = e.h the (e; e, e)
    # entry is 4, not the monomial coefficient 2
    from qlie.qlb import casimir_invariance_residual

    g = sl2()
    P = PolyVectorAlgebra(g, 2)
    c = sym2(g, [((0, 2), F(1))])
    decoded = mc_residual(P, P.from_cochain(c))
    assert decoded[2].data[((0,), (0, 0))] == 4
    assert (decoded, decoded) == _casimir_oracles(P, c)
    assert decoded == {2: casimir_invariance_residual(g, c)}
    for g in (sl2(), sl3()):
        P = PolyVectorAlgebra(g, 2)
        keys = list(combinations_with_replacement(range(g.dim), 2))
        for _ in range(6):
            picked = rng.sample(keys, 4) + [(rng.randrange(g.dim),) * 2]
            c = sym2(g, [(key, rand_fraction(rng)) for key in picked])
            by_weight, by_d = _casimir_oracles(P, c)
            assert by_weight == by_d and set(by_d) == {2}
            assert mc_residual(P, P.from_cochain(c)) == by_d
            assert casimir_invariance_residual(g, c) == by_d[2]


def test_encoders_check_the_shift():
    g = sl2()
    P2 = PolyVectorAlgebra(g, 2)
    with pytest.raises(InputError):
        P2.from_cochain(zero_cobracket(g))
    with pytest.raises(InputError):
        P2.from_cochain(multivector(g, 3))
    with pytest.raises(InputError):
        PolyVectorAlgebra(g, 1).from_cochain(casimir_from_pairing(g))


def test_mc_residual_rejects_elements_off_degree_1_or_below_weight_2():
    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    good = mc_element(P, rand_cobracket(g, random.Random(3)), multivector(g, 3))
    mc_residual(P, good)
    for mono in (
        ((0,), (1,)),  # weight 1 (an adjoint 1-cochain), shifted degree 0
        ((), (0,)),  # weight 1, shifted degree -1
        ((0, 1), (0, 1)),  # weight 2 at shifted degree 2
        ((), (0, 1)),  # weight 2 at shifted degree 0: a twist, not a structure
    ):
        with pytest.raises(InputError):
            mc_residual(P, {**good, mono: F(1)})
    with pytest.raises(InputError):  # at shift 2, Sym^2 g sits in degree 1, g (x) Sym^2 g does not
        mc_residual(PolyVectorAlgebra(g, 2), {((0,), (0, 1)): F(1)})


def test_pairwise_half_square_equals_half_full_bracket(rng):
    # mc_residual takes each unordered pair of monomials once; the full
    # bracket [x, x] takes each cross pair twice
    for g, shift in ((sl2(), 1), (sl3(), 1), (sl2(), 2), (sl3(), 2)):
        P = PolyVectorAlgebra(g, shift)
        if shift == 1:
            x = mc_element(P, rand_cobracket(g, rng), rand_multivector(g, 3, rng))
        else:
            x = {m: rand_fraction(rng) or F(1) for m in P.slice_basis(0, 2)}
        full = vec_add(P.d(x), P.bracket(x, x), F(1, 2))
        by_weight = {}
        for mono, c in full.items():
            by_weight.setdefault(len(mono[1]), {})[mono] = c
        expected = {w: P.to_cochain(el, P.n + 3 - P.n * w, w) for w, el in by_weight.items()}
        assert mc_residual(P, x) == expected
        assert shift == 2 or expected


def test_gauge_constant_path_iff_mc():
    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    q = QuasiLieBialgebra(g, zero_cobracket(g), multivector(g, 3, [((0, 1, 2), F(1))]))
    x = structure_by_weight(P, q.delta, q.phi)
    path = GaugePath({}, {2: [x.get(2, {})], 3: [x.get(3, {})]})
    assert gauge_verify(P, x, x, path).passed
    # constant path at a non-MC point fails the MC condition
    bad = QuasiLieBialgebra(g, rand_cobracket(g, __import__("random").Random(1)), multivector(g, 3))
    if not check_qlb(bad).passed:
        xb = structure_by_weight(P, bad.delta, bad.phi)
        path_b = GaugePath({}, {2: [xb.get(2, {})], 3: [xb.get(3, {})]})
        rep = gauge_verify(P, xb, xb, path_b)
        assert not rep.stays_maurer_cartan


def test_gauge_integrated_twist_paths(rng):
    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    for _ in range(20):
        lam0 = rand_multivector(g, 2, rng)
        base = QuasiLieBialgebra(g, zero_cobracket(g), multivector(g, 3, [((0, 1, 2), F(rng.randint(-2, 2)))]))
        q0 = twist(base, Twist(lam0))
        assert check_qlb(q0).passed
        lam = rand_multivector(g, 2, rng)
        x, y, path = twist_path(P, q0.delta, q0.phi, lam)
        rep = gauge_verify(P, x, y, path)
        assert rep.passed, rep


def test_gauge_corrupted_quadratic_term_fails(rng):
    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    lam = rand_multivector(g, 2, rng)
    q0 = QuasiLieBialgebra(g, zero_cobracket(g), multivector(g, 3))
    x, y, path = twist_path(P, q0.delta, q0.phi, lam)
    alpha = {w: [dict(v) for v in poly] for w, poly in path.alpha.items()}
    a3 = alpha.setdefault(3, [{}])
    while len(a3) < 3:
        a3.append({})
    a3[2] = dict(a3[2])
    efh = ((), (0, 1, 2))  # the basis monomial of the weight-3 degree-1 slice
    a3[2][efh] = a3[2].get(efh, F(0)) + F(1)
    bad = GaugePath(path.lam, alpha)
    assert not gauge_verify(P, x, y, bad).passed


def test_gauge_endpoint_mismatch_detected(rng):
    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    lam = rand_multivector(g, 2, rng)
    q0 = QuasiLieBialgebra(g, zero_cobracket(g), multivector(g, 3))
    x, y, path = twist_path(P, q0.delta, q0.phi, lam)
    wrong_y = {2: {((0,), (0, 1)): F(5)}}
    rep = gauge_verify(P, x, wrong_y, path)
    assert not rep.endpoints_match


def test_gauge_path_is_tied_to_its_twist(rng):
    # the alpha family integrated from lambda is rejected when presented
    # with a different gauge generator (and vice versa)
    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    for _ in range(20):
        lam = rand_multivector(g, 2, rng)
        other = rand_multivector(g, 2, rng)
        if lam == other:
            continue
        q0 = QuasiLieBialgebra(g, zero_cobracket(g), multivector(g, 3, [((0, 1, 2), F(1))]))
        x, y, path = twist_path(P, q0.delta, q0.phi, lam)
        assert gauge_verify(P, x, y, path).passed
        _, _, other_path = twist_path(P, q0.delta, q0.phi, other)
        mixed = GaugePath(other_path.lam, path.alpha)
        assert not gauge_verify(P, x, y, mixed).passed


def test_mc_residual_matches_check_qlb_beyond_dim_8():
    g, phi_inv = sl3_plus_sl2()
    rng = random.Random(20240911)
    P = PolyVectorAlgebra(g, 1)
    verdicts, failing_weights = [], set()
    for q in sparse_structures(g, rng, 8, phi_inv):
        verdicts.append(_agree_weight_by_weight(q))
        failing_weights |= set(mc_residual(P, mc_element(P, q.delta, q.phi)))
    assert verdicts == [True, False] * 4
    assert failing_weights == {2, 3, 4}


@pytest.mark.parametrize("n", [4, 5])
def test_mc_residual_matches_check_qlb_on_standard_sl_n(n):
    # the standard bialgebra of sl(n), a sparse twist of it (both pass) and a
    # copy with phi one basis 3-vector (fails)
    b = triple_to_bialgebra(dual_subalgebra_bplus_bminus(sl(n)))
    g = b.g
    rng = random.Random(20241018 + n)
    twisted = twist(b, Twist(sparse_multivector(g, 2, rng, 3)))
    broken = QuasiLieBialgebra(g, b.delta, multivector(g, 3, [(sorted(rng.sample(range(g.dim), 3)), F(1))]))
    assert twisted != b
    assert [_agree_weight_by_weight(q) for q in (b, twisted, broken)] == [True, True, False]


def test_mc_residual_matches_oracle_on_dense_phi():
    # every entry of phi nonzero, with delta = 0 and with the standard delta:
    # mc_residual skips the pairs of two phi monomials, which bracket to
    # zero, and keeps the delta x phi pairs (weight 4)
    verdicts, failing_weights = [], []
    for g in (sl2(), sl3(), sl(4)):
        keys = combinations(range(g.dim), 3)
        phi = multivector(g, 3, ((key, F(i + 1)) for i, key in enumerate(keys)))
        standard = triple_to_bialgebra(dual_subalgebra_bplus_bminus(g)).delta
        P = PolyVectorAlgebra(g, 1)
        for delta in (zero_cobracket(g), standard):
            verdicts.append(_agree_weight_by_weight(QuasiLieBialgebra(g, delta, phi)))
            failing_weights.append(sorted(mc_residual(P, mc_element(P, delta, phi))))
    assert verdicts == [True, True, False, False, False, False]
    assert failing_weights == [[], [], [3], [3, 4], [3], [3, 4]]


def test_mc_residual_matches_check_qlb_on_dense_sl3_twist():
    # the standard sl3 bialgebra twisted by a lambda with every entry
    # nonzero: delta has 162 monomials and phi 56, so 1/2 [x, x] runs over
    # every cross pair of a dense element; a copy with one phi entry moved
    # off by 1 fails at weights 3 and 4 only
    b = triple_to_bialgebra(dual_subalgebra_bplus_bminus(sl3()))
    g = b.g
    keys = combinations(range(g.dim), 2)
    lam = multivector(g, 2, ((key, F((i + 2) ** 2)) for i, key in enumerate(keys)))
    dense = twist(b, Twist(lam))
    P = PolyVectorAlgebra(g, 1)
    assert (len(P.from_cochain(dense.delta)), len(dense.phi.data)) == (162, 56)
    key = min(up for (), up in dense.phi.data)
    broken = QuasiLieBialgebra(g, dense.delta, dense.phi + multivector(g, 3, [(key, F(1))]))
    assert [_agree_weight_by_weight(q) for q in (dense, broken)] == [True, False]
    assert set(mc_residual(P, mc_element(P, broken.delta, broken.phi))) == {3, 4}


def _printed(res):
    return {w: sorted((key, str(c)) for key, c in x.data.items()) for w, x in res.items()}


def test_mc_residual_matches_the_full_bracket_oracle():
    # 1/2 [x, x] is summed as the e^i events over ordered pairs of monomials,
    # self-pairs included; the oracle brackets every pair in both contraction
    # directions with the generator-list kernel.  At shift 1 x holds monomials
    # e^k e_i e_j with k in {i, j}, which contract both ways with one partner
    rng = random.Random(20261020)
    for g in (sl3(), heisenberg(5)):
        P = PolyVectorAlgebra(g, 1)
        x = mc_element(P, rand_cobracket(g, rng), rand_multivector(g, 3, rng))
        assert any(set(ups) & set(downs) for ups, downs in x)
        assert mc_residual(P, x) == full_residual(P, x)
        P = PolyVectorAlgebra(g, 2)
        casimirs = [sym2(g, [(key, rand_fraction(rng)) for key in combinations_with_replacement(range(g.dim), 2)])]
        casimirs += [casimir_from_pairing(g)] if g.dim == 8 else []
        for c in casimirs:
            x = P.from_cochain(c)
            assert mc_residual(P, x) == full_residual(P, x)
    # structure constants in Q(x): the residual's RationalFunction entries
    # print as the oracle's do
    g = lie_from_dict(json.loads((FIXTURES / "sl2x.json").read_text()))
    P = PolyVectorAlgebra(g, 1)
    x = mc_element(P, rand_cobracket(g, rng), rand_multivector(g, 3, rng))
    res = mc_residual(P, x)
    assert any(isinstance(c, RationalFunction) for r in res.values() for c in r.data.values())
    assert _printed(res) == _printed(full_residual(P, x))


def _by_weight(x):
    out = {}
    for mono, c in x.items():
        out.setdefault(len(mono[1]), {})[mono] = c
    return out


def test_mc_residual_with_rational_function_coefficients(rng):
    # a RationalFunction coefficient sends the residual through its loop
    # with no common denominator (L = 1); Fraction coefficients ride along
    t = ("t",)
    var = RationalFunction.var(t, "t")
    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    x = mc_element(P, rand_cobracket(g, rng), rand_multivector(g, 3, rng))
    for k, mono in enumerate(sorted(x)):
        if k % 2:
            x[mono] = x[mono] * (var + k) / (var * var + 1)
    assert any(isinstance(c, RationalFunction) for c in x.values())
    res = mc_residual(P, x)
    assert {2, 3} <= set(res)
    assert res == full_residual(P, x)
    assert res == mc_residual_by_weight(P, _by_weight(x))


def test_mc_residual_with_non_integral_structure_constants(rng):
    # sl2 on (e, f, t = 2h): [e, f] = t/2, [t, e] = 4e, [t, f] = -4f.  With
    # integer coefficients the square is summed over L = 1, and d x carries
    # halves next to it; with random fractions L > 1
    g = LieAlgebra("sl2-2h", ["e", "f", "t"], {(0, 1): {2: F(1, 2)}, (0, 2): {0: F(-4)}, (1, 2): {1: F(4)}})
    assert check_lie(g).passed
    P = PolyVectorAlgebra(g, 1)
    keys = [((k,), key) for k in range(3) for key in combinations(range(3), 2)]
    verdicts = []
    for trial in range(12):
        if trial % 2:
            delta = CECochain(g, 1, WEDGE(2), {key: F(rng.choice([-2, -1, 1, 2])) for key in keys})
            phi = multivector(g, 3, [((0, 1, 2), F(rng.randint(-2, 2)))])
            x = mc_element(P, delta, phi)
            assert all(c.denominator == 1 for c in x.values())
            assert any(c.denominator != 1 for c in P.d(x).values())
        else:
            delta, phi = rand_cobracket(g, rng), rand_multivector(g, 3, rng)
            x = mc_element(P, delta, phi)
        assert mc_residual(P, x) == full_residual(P, x)
        verdicts.append(_agree_weight_by_weight(QuasiLieBialgebra(g, delta, phi)))
    base = QuasiLieBialgebra(g, zero_cobracket(g), multivector(g, 3, [((0, 1, 2), F(1))]))
    verdicts.append(_agree_weight_by_weight(twist(base, Twist(rand_multivector(g, 2, rng)))))
    assert verdicts[-1] and not all(verdicts)


def _up_down_count(x):
    """sum_i up_i down_i, counted here from the monomials of x: up_i the
    monomials with an e^i, down_i the e_i they hold, repeats counted."""
    up = Counter(i for ups, _ in x for i in ups)
    return sum(up[i] for _, downs in x for i in downs)


def _count_events(monkeypatch):
    """Make the index mc_residual builds count the entries the kernel
    walks, one per contraction event; returns the running count."""
    walked = []
    real = mc.contraction_index

    class Walked(list):
        def __iter__(self):
            for entry in list.__iter__(self):
                walked.append(entry)
                yield entry

    monkeypatch.setattr(
        mc, "contraction_index", lambda nums, kind, n: {i: Walked(e) for i, e in real(nums, kind, n).items()}
    )
    return walked


def test_pair_count_bounds_the_pairs_formed(monkeypatch):
    # 1/2 [x, x] walks, for each e^i of each monomial, the index entries of
    # the e_i of x: exactly sum_i up_i down_i events, the count MAX_PAIRS
    # bounds, so the limit one below the events formed refuses
    rng = random.Random(7)
    g = sl3()
    std = triple_to_bialgebra(dual_subalgebra_bplus_bminus(sl3()))
    cases = [(g, rand_cobracket(g, rng), rand_multivector(g, 3, rng)), (std.g, std.delta, std.phi)]
    cases += [(q.g, q.delta, q.phi) for q in (twist(std, Twist(rand_multivector(std.g, 2, rng))) for _ in range(3))]
    for g, delta, phi in cases:
        P = PolyVectorAlgebra(g, 1)  # mu_g's index, built here, is not counted
        walked = _count_events(monkeypatch)
        x = mc_element(P, delta, phi)
        mc_residual(P, x)
        assert walked and len(walked) == _up_down_count(x)
        monkeypatch.setattr(mc, "MAX_PAIRS", len(walked) - 1)
        with pytest.raises(InputError, match=f"{len(walked)} contraction events"):
            mc_residual(P, x)
        monkeypatch.undo()


def test_pair_limit_refuses_before_any_bracket(monkeypatch):
    # the count is sum_i up_i down_i over the monomials with an e^i and
    # the e_i of x; it is taken and refused before the residual indexes x
    # or forms any event
    g = abelian(10)
    P = PolyVectorAlgebra(g, 1)
    delta = CECochain(g, 1, WEDGE(2), {((k,), key): F(1) for k in range(10) for key in combinations(range(10), 2)})
    x = mc_element(P, delta, multivector(g, 3, [((0, 1, 2), F(1))]))

    def refuse(*args):
        raise AssertionError("an event was formed")

    monkeypatch.setattr(mc, "contraction_index", refuse)
    monkeypatch.setattr(PolyVectorAlgebra, "contract", refuse)
    with pytest.raises(InputError) as err:
        mc_residual(P, x)
    assert str(err.value) == (
        "the Maurer-Cartan residual would form 40635 contraction events, over the limit of 20000"
    )
    monkeypatch.setattr(mc, "MAX_PAIRS", 40_634)
    with pytest.raises(InputError, match="40635 contraction events, over the limit of 40634"):
        mc_residual(P, x)
    # up_i = 45 and down_i = 90 + (1 if i < 3): exactly at the limit the
    # residual runs, and forms exactly that many events
    monkeypatch.undo()
    monkeypatch.setattr(mc, "MAX_PAIRS", 40_635)
    walked = _count_events(monkeypatch)
    assert _up_down_count(x) == 40_635
    mc_residual(P, x)
    assert len(walked) == 40_635
