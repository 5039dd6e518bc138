"""The block-merge kernel of `PolyVectorAlgebra` against the insertion sort
it replaced (`polyvector_oracle`).

`d`, `mul` and `bracket_monos` read each result key and Koszul sign off
merged index blocks; the oracle spells every product out as a generator
list and sorts it swap by swap.  The two must agree exactly, coefficient
for coefficient, on:

* every pair of monomials of the sl2 window of Pol(BG, n), n = 1, 2;
* every pair from the sl3 window slices of low shifted degree: degree
  <= 1 at shift 1 (where quasi-Lie bialgebras and twists live) and
  <= 2 at shift 2 (Casimirs and their differentials); the whole sl3 window
  has 28 million pairs at shift 1;
* seeded random pairs from the whole sl3 window, with repeated vector
  indices at shift 2;
* d of every window monomial of sl2 and sl3.
"""

import random
from fractions import Fraction

import pytest

import polyvector_oracle as old
from conftest import rand_fraction, window_monos, window_slices
from qlie.lie import sl2, sl3
from qlie.polyvectors import PolyVectorAlgebra, _merge, contraction_partners


def _low_slices(P):
    top = 1 if P.n == 1 else 2
    return [m for (deg, _), monos in window_slices(P).items() if deg <= top for m in monos]


def _random_pairs(monos, rng, count):
    return [(rng.choice(monos), rng.choice(monos)) for _ in range(count)]


def _has_repeat(mono):
    return len(set(mono[1])) < len(mono[1])


def test_merge_counts_inversions_and_drops_repeated_odd_indices():
    assert _merge((1, 3, 5), (0, 4)) == ((0, 1, 3, 4, 5), 4)
    assert _merge((0, 2), (1,)) == ((0, 1, 2), 1)
    assert _merge((), (2, 3)) == ((2, 3), 0)
    assert _merge((1, 2), ()) == ((1, 2), 0)
    assert _merge((1, 2), (2,)) is None
    # even generators may repeat: no sign is read off them
    assert _merge((1, 2), (2,), 0)[0] == (1, 2, 2)


@pytest.mark.parametrize("shift", [1, 2])
def test_bracket_monos_matches_oracle_on_every_sl2_window_pair(shift):
    P = PolyVectorAlgebra(sl2(), shift)
    monos = window_monos(P)
    nonzero = 0
    for m1 in monos:
        for m2 in monos:
            got = P.bracket_monos(m1, m2)
            assert got == old.bracket_monos(P, m1, m2), (m1, m2)
            nonzero += bool(got)
    assert nonzero > 100


@pytest.mark.parametrize("shift", [1, 2])
def test_bracket_monos_matches_oracle_on_every_low_sl3_pair(shift):
    P = PolyVectorAlgebra(sl3(), shift)
    monos = _low_slices(P)
    assert len(monos) == (308 if shift == 1 else 324)
    nonzero = 0
    for m1 in monos:
        for m2 in monos:
            got = P.bracket_monos(m1, m2)
            assert got == old.bracket_monos(P, m1, m2), (m1, m2)
            nonzero += bool(got)
    assert nonzero > 10_000


@pytest.mark.parametrize("shift", [1, 2])
def test_bracket_monos_matches_oracle_on_random_sl3_window_pairs(shift):
    P = PolyVectorAlgebra(sl3(), shift)
    rng = random.Random(20261019 + shift)
    nonzero = repeats = 0
    for m1, m2 in _random_pairs(window_monos(P), rng, 20_000):
        got = P.bracket_monos(m1, m2)
        assert got == old.bracket_monos(P, m1, m2), (m1, m2)
        nonzero += bool(got)
        repeats += bool(got) and (_has_repeat(m1) or _has_repeat(m2))
    assert nonzero > 2_000
    assert (repeats > 500) if shift == 2 else not repeats


@pytest.mark.parametrize("g", [sl2(), sl3()], ids=["sl2", "sl3"])
@pytest.mark.parametrize("shift", [1, 2])
def test_d_matches_oracle_on_every_window_monomial(g, shift):
    P = PolyVectorAlgebra(g, shift)
    monos = window_monos(P)
    for m in monos:
        x = {m: Fraction(3, 2)}
        assert P.d(x) == old.d(P, x), m
    rng = random.Random(7 + shift)
    x = {m: rand_fraction(rng) or Fraction(1) for m in rng.sample(monos, min(40, len(monos)))}
    assert P.d(x) == old.d(P, x)


@pytest.mark.parametrize("shift", [1, 2])
def test_mul_matches_oracle(shift):
    P = PolyVectorAlgebra(sl2(), shift)
    monos = window_monos(P)
    for m1 in monos:
        for m2 in monos:
            a, b = {m1: Fraction(2)}, {m2: Fraction(-1, 3)}
            assert P.mul(a, b) == old.mul(P, a, b), (m1, m2)
    P = PolyVectorAlgebra(sl3(), shift)
    rng = random.Random(11 + shift)
    small = [m for m in window_monos(P) if len(m[0]) + len(m[1]) <= 4]
    for m1, m2 in _random_pairs(small, rng, 5_000):
        a, b = {m1: Fraction(1)}, {m2: Fraction(5)}
        assert P.mul(a, b) == old.mul(P, a, b), (m1, m2)


@pytest.mark.parametrize("shift", [1, 2])
def test_bracket_forms_exactly_the_contracting_pairs(shift):
    # the generator index names a monomial of b for m exactly when an e^i
    # of one meets an e_i of the other; every other pair brackets to zero
    P = PolyVectorAlgebra(sl3(), shift)
    rng = random.Random(23 + shift)
    monos = window_monos(P)
    a = {m: rand_fraction(rng) or Fraction(1) for m in rng.sample(monos, 60)}
    b = {m: rand_fraction(rng) or Fraction(1) for m in rng.sample(monos, 60)}
    targets = list(b)
    partners = contraction_partners(targets)
    for m1 in a:
        shares = [
            j for j, m2 in enumerate(targets)
            if set(m1[0]) & set(m2[1]) or set(m1[1]) & set(m2[0])
        ]
        assert partners(m1) == shares
        assert all(not old.bracket_monos(P, m1, m2) for j, m2 in enumerate(targets) if j not in shares)
    assert P.bracket(a, b) == old.bracket(P, a, b)
