"""`check_lie` against the triple scan of tests/lie_oracle.py.

Seeded random bracket tables, which almost never satisfy Jacobi, over
Fraction constants, over RationalFunction constants and over a mix of
both, and the Drinfeld doubles of the standard bialgebras of sl3, sl4 and
sl5 (Lie algebras of dimension 16, 30 and 48) with and without one
perturbed structure constant.  Verdict, witness and residual strings must
agree exactly, so a sign error in the differential that `check_lie`
squares, or in how it reads the Jacobiator off d d e^l, shows up as a
mismatch.  The square of -d is that of d, so d e^l itself is pinned to
the structure constants as well.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from lie_oracle import check_lie_by_triples
from qlie import check_lie
from qlie.lie import LieAlgebra, sl
from qlie.manin import drinfeld_double, dual_subalgebra_bplus_bminus, triple_to_bialgebra
from qlie.polyvectors import PolyVectorAlgebra
from qlie.scalars import parse_scalar

VARS = ("x", "y")
RATFUN_ATOMS = ("x", "y", "x-y", "1/(x+1)", "2*x/(y-1)", "3/2", "-1", "x*y")


def fraction_constant(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def ratfun_constant(rng):
    return parse_scalar(rng.choice(RATFUN_ATOMS), VARS)


def random_table(rng, constant, name):
    """A sparse random bracket table on 3 to 6 basis elements."""
    dim = rng.randint(3, 6)
    brackets = {}
    for i, j in combinations(range(dim), 2):
        if rng.random() < 0.5:
            brackets[(i, j)] = {k: constant(rng) for k in rng.sample(range(dim), rng.randint(1, 2))}
    return LieAlgebra(name, [f"x{i}" for i in range(dim)], brackets)


def assert_agrees(g):
    # the differential that check_lie squares, in the library's sign:
    # d e^l = sum_{j<k} f^l_jk e^j e^k, so -d, whose square is the same,
    # is caught here
    P = PolyVectorAlgebra(g, 1)
    for l in range(g.dim):
        expected = {((j, k), ()): comps[l] for (j, k), comps in g.pairs() if l in comps}
        assert P.d({((l,), ()): Fraction(1)}) == expected
    rep = check_lie(g)
    assert (rep.passed, rep.witness, rep.residual) == check_lie_by_triples(g), g.name
    assert rep.failure_kind == (None if rep.passed else "jacobi")
    return rep


@pytest.mark.parametrize(
    "kind, trials",
    [
        ("fraction", 800),
        ("ratfun", 300),
        ("mixed", 200),
    ],
)
def test_random_tables_match_the_triple_scan(kind, trials):
    rng = random.Random(f"jacobi-{kind}")
    constant = {
        "fraction": fraction_constant,
        "ratfun": ratfun_constant,
        "mixed": lambda r: r.choice((fraction_constant, ratfun_constant))(r),
    }[kind]
    failed = 0
    for t in range(trials):
        failed += not assert_agrees(random_table(rng, constant, f"{kind}{t}")).passed
    # the inputs are mostly non-Lie, so most cases compare a witness
    assert failed > trials // 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_standard_doubles_match_the_triple_scan(n):
    lie = drinfeld_double(triple_to_bialgebra(dual_subalgebra_bplus_bminus(sl(n)))).quad.lie
    assert assert_agrees(lie).passed
    # one structure constant perturbed: the scan and d d e^l find the same triple
    table = {key: dict(comps) for key, comps in lie.pairs()}
    key = sorted(table)[len(table) // 2]
    k = min(table[key])
    table[key][k] += 1
    assert not assert_agrees(LieAlgebra(f"{lie.name}-bad", lie.basis, table)).passed
