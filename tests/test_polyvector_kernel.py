"""The block-merge kernel of `PolyVectorAlgebra` against the insertion sort
it replaced (`polyvector_oracle`).

`d`, `mul` and `bracket` read each result key and Koszul sign off
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

The library takes d as the bracket with the structure constants,
d = (-1)^(n+1) [mu_g, -]; `test_oracle_d_is_the_bracket_with_mu_g` checks
that identity on the oracle alone, with no library kernel in the loop.
"""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import polyvector_oracle as old
from conftest import FIXTURES, rand_fraction, window_monos, window_slices
from qlie.formats import lie_from_dict
from qlie.lie import heisenberg, sl2, sl3
from qlie.polyvectors import PolyVectorAlgebra, _merge, contraction_index
from test_ce_reference import sl2_no_diagonal_ad


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


def test_one_index_merges_match_the_sorted_merge():
    # a block of one index is inserted by one bisection; the key and the
    # inversion count must be those of sorting the concatenation, on every
    # sorted block of at most three indices below 6, repeats included
    blocks = [()] + [c for k in (1, 2, 3) for c in combinations_with_replacement(range(6), k)]
    for a in blocks:
        for b in blocks:
            if len(a) != 1 and len(b) != 1:
                continue
            for odd in (0, 1):
                if odd and set(a) & set(b):
                    assert _merge(a, b, odd) is None, (a, b)
                else:
                    expected = tuple(sorted(a + b)), sum(x > y for x in a for y in b)
                    assert _merge(a, b, odd) == expected, (a, b, odd)


@pytest.mark.parametrize("shift", [1, 2])
def test_bracket_monos_matches_oracle_on_every_sl2_window_pair(shift):
    P = PolyVectorAlgebra(sl2(), shift)
    monos = window_monos(P)
    nonzero = 0
    for m1 in monos:
        for m2 in monos:
            got = P.bracket({m1: 1}, {m2: 1})
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
            got = P.bracket({m1: 1}, {m2: 1})
            assert got == old.bracket_monos(P, m1, m2), (m1, m2)
            nonzero += bool(got)
    assert nonzero > 10_000


@pytest.mark.parametrize("shift", [1, 2])
def test_bracket_monos_matches_oracle_on_random_sl3_window_pairs(shift):
    P = PolyVectorAlgebra(sl3(), shift)
    rng = random.Random(20261019 + shift)
    nonzero = repeats = 0
    for m1, m2 in _random_pairs(window_monos(P), rng, 20_000):
        got = P.bracket({m1: 1}, {m2: 1})
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
    # the index of b holds, under i, one entry per e^i (kind 0) or e_i
    # (kind 1) of each monomial of b, in order, and each entry puts the
    # monomial back together, with its coefficient and three sign
    # parities; so the entries that m1's generators look up are exactly the
    # monomials of b that share a contraction with m1, and every other pair
    # brackets to zero
    P = PolyVectorAlgebra(sl3(), shift)
    rng = random.Random(23 + shift)
    monos = window_monos(P)
    a = {m: rand_fraction(rng) or Fraction(1) for m in rng.sample(monos, 60)}
    b = {m: rand_fraction(rng) or Fraction(1) for m in rng.sample(monos, 60)}
    index = {kind: contraction_index(list(b.items()), kind, shift) for kind in (0, 1)}

    def whole(kind, i, entry):
        rest, other, c, *parities = entry
        own = tuple(sorted(rest + (i,)))
        m = (own, other) if kind == 0 else (other, own)
        assert c == b[m] and len(parities) == 3 and set(parities) <= {0, 1}
        return m

    for kind in (0, 1):
        held = [(i, m) for m in b for i in m[kind]]
        assert sorted(index[kind]) == sorted({i for i, _ in held})
        for i, es in index[kind].items():  # one entry per occurrence, in the order of b
            assert [whole(kind, i, e) for e in es] == [m for j, m in held if j == i]
    repeats = 0  # pairs that share more than one contraction
    for m1 in a:
        named = [whole(1, i, e) for i in m1[0] for e in index[1].get(i, ())]
        named += [whole(0, i, e) for i in m1[1] for e in index[0].get(i, ())]
        shares = {m2 for m2 in b if set(m1[0]) & set(m2[1]) or set(m1[1]) & set(m2[0])}
        assert set(named) == shares
        repeats += len(named) > len(set(named))
        assert all(not old.bracket_monos(P, m1, m2) for m2 in b if m2 not in shares)
    assert repeats
    assert P.bracket(a, b) == old.bracket(P, a, b)


def _sl2x():
    return lie_from_dict(json.loads((FIXTURES / "sl2x.json").read_text()))


@pytest.mark.parametrize("shift", [1, 2])
@pytest.mark.parametrize(
    "make",
    [sl3, lambda: heisenberg(5), sl2_no_diagonal_ad, _sl2x],
    ids=["sl3", "heisenberg5", "sl2-rotated", "sl2x"],
)
def test_oracle_d_is_the_bracket_with_mu_g(make, shift):
    # the generator images extended as an odd derivation equal (-1)^(n+1)
    # times the bracket with mu_g = sum_{j<k} f^i_jk e^j e^k e_i, both from
    # the generator-list oracle, on random elements of CE degree <= 3 and
    # weight <= 3 (RationalFunction structure constants on sl2x)
    g = make()
    P = PolyVectorAlgebra(g, shift)
    mu = {((j, k), (i,)): c for (j, k), comps in g.pairs() for i, c in comps.items()}
    rng = random.Random(f"mu-{g.name}-{shift}")
    monos = [m for k in range(4) for w in range(4) for m in P.slice_basis(k, w)]
    sign = 1 if shift == 1 else -1
    for _ in range(6):
        x = {m: rand_fraction(rng) or Fraction(1) for m in rng.sample(monos, 12)}
        want = {m: sign * c for m, c in old.bracket(P, mu, x).items()}
        assert want and old.d(P, x) == want
