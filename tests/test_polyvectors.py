from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest

from conftest import multivector, rand_multivector, window_monos
from test_ce_reference import ref_ce_differential as ce_differential  # the slot formula
from test_tensors import wedge  # the product of Pol(BG, 1)
from qlie.lie import abelian, sl2, sl3
from qlie.polyvectors import PolyVectorAlgebra
from qlie.scalars import vec_add, vec_scale
from qlie.tensors import CECochain, WEDGE
from rmatrix_oracle import schouten  # the classical expansion


def F(a, b=1):
    return Fraction(a, b)


def all_monos(P, kmax, wmax):
    out = []
    for k in range(kmax + 1):
        for w in range(wmax + 1):
            out.extend(P.slice_basis(k, w))
    return out


@pytest.mark.parametrize("shift", [1, 2])
def test_bracket_generator_pairing(shift):
    g = sl2()
    P = PolyVectorAlgebra(g, shift)
    for i in range(3):
        for j in range(3):
            cov = {((i,), ()): F(1)}
            vec = {((), (j,)): F(1)}
            out = P.bracket(cov, vec)
            assert out == ({((), ()): F(1)} if i == j else {})
            # same-type generators bracket to zero
            assert P.bracket(cov, {((j,), ()): F(1)}) == {}
            assert P.bracket(vec, {((), (i,)): F(1)}) == {}


# each law runs on two inputs at shifts 1 and 2: the monomials of CE degree
# and weight <= 2, and the sl2 window of Pol(BG, n) (conftest.window_slices),
# on which it is exhaustive
LAW_INPUTS = [(1, False), (2, False), (1, True), (2, True)]
LAW_IDS = ["1", "2", "sl2-window-1", "sl2-window-2"]


@pytest.mark.parametrize("shift, window", LAW_INPUTS, ids=LAW_IDS)
def test_bracket_graded_laws(shift, window):
    g = sl2()
    P = PolyVectorAlgebra(g, shift)

    def bracket_monos(m1, m2):
        return P.bracket({m1: F(1)}, {m2: F(1)})

    if window:
        monos = small = window_monos(P)
        # the exhaustive Jacobi scan meets each monomial pair many times
        bracket_monos = lru_cache(maxsize=None)(bracket_monos)
    else:
        monos = all_monos(P, 2, 2)
        small = monos[:14]
    s = shift + 1
    for m1 in monos:
        for m2 in monos:
            d1, d2 = P.mono_degree(m1), P.mono_degree(m2)
            lhs = bracket_monos(m1, m2)
            rhs = bracket_monos(m2, m1)
            sign = -((-1) ** ((d1 + s) * (d2 + s)))
            assert not vec_add(lhs, rhs, F(-sign))
    for m1, m2, m3 in product(small, small, small):
        u23, u12, u13 = bracket_monos(m2, m3), bracket_monos(m1, m2), bracket_monos(m1, m3)
        if not (u23 or u12 or u13):
            continue  # every term of the identity is zero
        d1, d2 = P.mono_degree(m1), P.mono_degree(m2)
        lhs = P.bracket({m1: F(1)}, u23)
        t1 = P.bracket(u12, {m3: F(1)})
        sign = (-1) ** ((d1 + s) * (d2 + s))
        t2 = vec_scale(P.bracket({m2: F(1)}, u13), F(sign))
        assert not vec_add(lhs, vec_add(t1, t2), F(-1))


@pytest.mark.parametrize("shift, window", LAW_INPUTS, ids=LAW_IDS)
def test_differential_squares_to_zero(shift, window, rng):
    cases = []
    if window:  # each window monomial on its own
        P = PolyVectorAlgebra(sl2(), shift)
        cases = [(P, {m: F(1)}) for m in window_monos(P)]
    else:
        for g in (sl2(), abelian(3)):
            P = PolyVectorAlgebra(g, shift)
            el = {m: F(rng.randint(-2, 2)) for m in all_monos(P, 2, 2)}
            cases.append((P, {m: c for m, c in el.items() if c}))
    for P, el in cases:
        assert not P.d(P.d(el)), el


def test_differential_is_bracket_derivation(rng):
    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    monos = all_monos(P, 2, 2)[:16]
    s = 2
    for m1 in monos:
        for m2 in monos:
            a, b = {m1: F(1)}, {m2: F(1)}
            lhs = P.d(P.bracket(a, b))
            sign = (-1) ** (P.mono_degree(m1) + s)
            rhs = vec_add(P.bracket(P.d(a), b), P.bracket(a, P.d(b)), F(sign))
            assert not vec_add(lhs, rhs, F(-1))


def test_engine_matches_slot_differential(rng):
    # derivation-generated differential == slot-formula CE differential
    for g in (sl2(), sl3()):
        P = PolyVectorAlgebra(g, 1)
        for k in (0, 1, 2):
            for w in (0, 1, 2, 3):
                entries = {}
                for down in combinations(range(g.dim), k):
                    for up in combinations(range(g.dim), w):
                        c = F(rng.randint(-1, 1))
                        if c:
                            entries[(down, up)] = c
                if not entries:
                    continue
                x = CECochain(g, k, WEDGE(w), entries)
                dx = ce_differential(x)
                del_el = P.d(P.from_cochain(x))
                if del_el:
                    assert P.to_cochain(del_el, k + 1, w) == dx
                else:
                    assert dx.is_zero()


def test_schouten_is_lie_bracket_on_vectors():
    g = sl2()
    e, f, h = (multivector(g, 1, [((i,), F(1))]) for i in range(3))
    assert schouten(g, e, f) == h
    assert schouten(g, h, e) == e.scale(F(2))
    assert schouten(g, h, f) == f.scale(F(-2))


def test_schouten_abelian_zero(rng):
    g = abelian(3)
    a = rand_multivector(g, 2, rng)
    b = rand_multivector(g, 2, rng)
    assert schouten(g, a, b).is_zero()


def test_schouten_ef_squared():
    # frozen oracle: the classical 4-term expansion gives
    # [[e^f, e^f]] = 2 e^f^h on sl2
    g = sl2()
    ef = multivector(g, 2, [((0, 1), F(1))])
    assert schouten(g, ef, ef) == multivector(g, 3, [((0, 1, 2), F(2))])
    # and the big-bracket square [el, d el] has the opposite sign (ledger relation)
    P = PolyVectorAlgebra(g, 1)
    el = P.from_cochain(ef)
    assert P.to_cochain(P.bracket(el, P.d(el)), 0, 3) == multivector(g, 3, [((0, 1, 2), F(-2))])


def test_schouten_agrees_with_derived_bracket(rng):
    # polarized relation: schouten(a, b) == -[a, d b] for all bidegrees
    for g in (sl2(), sl3()):
        P = PolyVectorAlgebra(g, 1)
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                if p + q - 1 > g.dim:
                    continue
                a = rand_multivector(g, p, rng)
                b = rand_multivector(g, q, rng)
                direct = schouten(g, a, b)
                el = vec_scale(P.bracket(P.from_cochain(a), P.d(P.from_cochain(b))), F(-1))
                assert P.to_cochain(el, 0, p + q - 1) == direct


def test_schouten_biderivation_over_wedge(rng):
    # [[x, b ^ c]] = [[x, b]] ^ c + b ^ [[x, c]] for a vector x, with the
    # exterior product taken as the product of Pol(BG, 1)
    g = sl2()
    x = multivector(g, 1, [((2,), F(1))])
    b = rand_multivector(g, 1, rng)
    c = rand_multivector(g, 1, rng)
    lhs = schouten(g, x, wedge(b, c))
    rhs = wedge(schouten(g, x, b), c) + wedge(b, schouten(g, x, c))
    assert lhs == rhs
