from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import rand_multivector
from qlie.lie import CECochain, WEDGE, abelian, ce_differential, sl2, sl3
from qlie.polyvectors import PolyVectorAlgebra, schouten, derived_square
from qlie.tensors import Multivector


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


@pytest.mark.parametrize("shift", [1, 2])
def test_bracket_graded_laws(shift):
    g = sl2()
    P = PolyVectorAlgebra(g, shift)
    monos = all_monos(P, 2, 2)
    s = shift + 1
    for m1 in monos:
        for m2 in monos:
            d1, d2 = P.mono_degree(m1), P.mono_degree(m2)
            lhs = P.bracket_monos(m1, m2)
            rhs = P.bracket_monos(m2, m1)
            sign = -((-1) ** ((d1 + s) * (d2 + s)))
            assert not P.sub(lhs, P.smul(F(sign), rhs))
    small = monos[:14]
    for m1, m2, m3 in product(small, small, small):
        d1, d2 = P.mono_degree(m1), P.mono_degree(m2)
        lhs = P.bracket({m1: F(1)}, P.bracket_monos(m2, m3))
        t1 = P.bracket(P.bracket_monos(m1, m2), {m3: F(1)})
        sign = (-1) ** ((d1 + s) * (d2 + s))
        t2 = P.smul(F(sign), P.bracket({m2: F(1)}, P.bracket_monos(m1, m3)))
        assert not P.sub(lhs, P.add(t1, t2))


@pytest.mark.parametrize("shift", [1, 2])
def test_differential_squares_to_zero(shift, rng):
    for g in (sl2(), abelian(3)):
        P = PolyVectorAlgebra(g, shift)
        el = {m: F(rng.randint(-2, 2)) for m in all_monos(P, 2, 2)}
        el = {m: c for m, c in el.items() if c}
        assert not P.d(P.d(el))


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
            rhs = P.add(P.bracket(P.d(a), b), P.smul(F(sign), P.bracket(a, P.d(b))))
            assert not P.sub(lhs, rhs)


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
    e = Multivector.basis(3, (0,))
    f = Multivector.basis(3, (1,))
    h = Multivector.basis(3, (2,))
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
    ef = Multivector.basis(3, (0, 1))
    assert schouten(g, ef, ef) == Multivector(3, 3, {(0, 1, 2): F(2)})
    # and the big-bracket square has the opposite sign (ledger relation)
    assert derived_square(g, ef) == Multivector(3, 3, {(0, 1, 2): F(-2)})


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
                el = P.smul(F(-1), P.bracket(P.from_multivector(a), P.d(P.from_multivector(b))))
                assert P.to_multivector(el, p + q - 1) == direct


def test_schouten_biderivation_over_wedge(rng):
    # [[x, b ^ c]] = [[x, b]] ^ c + b ^ [[x, c]] for a vector x
    from qlie.tensors import wedge

    g = sl2()
    x = Multivector.basis(3, (2,))
    b = rand_multivector(g, 1, rng)
    c = rand_multivector(g, 1, rng)
    lhs = schouten(g, x, wedge(b, c))
    rhs = wedge(schouten(g, x, b), c) + wedge(b, schouten(g, x, c))
    assert lhs == rhs
