"""The sparse change of basis against a dense transform.

`linalg.change_basis` walks the nonzero components of a tensor through an
index of T (lower slots) and of T^-1 (upper slots) and sums integer
numerators.  The oracle here shares none of that: T is a seeded
unimodular matrix, a product of a unit lower and a unit upper triangular
matrix with entries -1, 0 and 1, so T^-1 is integral and comes from two
substitutions; optionally T is scaled column by column so that T and T^-1
have denominators.  The tensor is held densely, every component present,
and each slot is contracted with T (lower) or with the transpose of T^-1
(upper) in turn.  Checked entry for entry:

* the structure constants of sl3 and of sl2 (+) heisenberg(3) (a (1, 2)
  tensor, kept for i < j), the trace pairing of sl3 ((0, 2)) and its
  Casimir ((2, 0)), which stays the inverse of the new pairing;
* T followed by T^-1 gives each input back;
* `check_lie` and `check_quadratic` pass on the transformed algebras;
* structure constants over Q(x) take the L = 1 path and keep their type;
* the general-basis fixtures sl3_unimodular.json and sl4_unimodular.json
  are lie.sl(3) and lie.sl(4) rebased by unimodular(random.Random(1), dim).
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import FIXTURES, sparse_rows, sym2_entries
from qlie import linalg
from qlie.formats import lie_from_dict, lie_to_dict
from qlie.lie import LieAlgebra, casimir_of, direct_sum, heisenberg, sl, sl2, sl3, trace_pairing
from qlie.manin import QuadraticLieAlgebra, check_quadratic
from qlie.polyvectors import check_lie
from qlie.scalars import RationalFunction

F = Fraction


# ---------------------------------------------------------------------------
# the dense oracle
# ---------------------------------------------------------------------------

def matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), F(0)) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def unit_lower_inverse(m):
    """The inverse of a unit lower triangular matrix, column by column by
    forward substitution."""
    n = len(m)
    inv = [[F(0)] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            inv[i][j] = F(int(i == j)) - sum((m[i][k] * inv[k][j] for k in range(i)), F(0))
    return inv


def unimodular(rng, n, scaled=False):
    """(T, T^-1) for T = L U, L unit lower and U unit upper triangular with
    entries -1, 0 and 1; scaled, T D and D^-1 T^-1 for a diagonal D with
    entries 1, -1, 2, 1/2 and -1/3."""
    lower = [[F(1) if i == j else F(rng.choice((-1, 0, 1))) if i > j else F(0) for j in range(n)] for i in range(n)]
    upper_t = [[F(1) if i == j else F(rng.choice((-1, 0, 1))) if i > j else F(0) for j in range(n)] for i in range(n)]
    t = matmul(lower, transpose(upper_t))
    t_inv = matmul(transpose(unit_lower_inverse(upper_t)), unit_lower_inverse(lower))
    if scaled:
        d = [rng.choice((F(1), F(-1), F(2), F(1, 2), F(-1, 3))) for _ in range(n)]
        t = [[t[i][a] * d[a] for a in range(n)] for i in range(n)]
        t_inv = [[t_inv[a][i] / d[a] for i in range(n)] for a in range(n)]
    identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    assert matmul(t, t_inv) == identity
    return t, t_inv


def dense_transform(t, slots, T, T_inv, n):
    """The dense tensor t (every key of range(n)^p present) with each slot
    contracted in turn: new_a = sum_i T[i][a] old_i (lower) or
    sum_i T_inv[a][i] old_i (upper)."""
    for s, kind in enumerate(slots):
        m = T if kind == "l" else transpose(T_inv)
        t = {
            key: sum((m[i][key[s]] * t[key[:s] + (i,) + key[s + 1 :]] for i in range(n)), F(0))
            for key in t
        }
    return t


def dense_constants(g):
    n = g.dim
    return {(i, j, k): g.bracket(i, j).get(k, F(0)) for i, j, k in product(range(n), repeat=3)}


def dense_matrix(entries, n):
    return {(i, j): entries.get((i, j), F(0)) for i, j in product(range(n), repeat=2)}


def nonzero(t, alternating=False):
    return {key: v for key, v in t.items() if v and not (alternating and key[0] >= key[1])}


# ---------------------------------------------------------------------------
# the library's side
# ---------------------------------------------------------------------------

def columns(T):
    """The new basis vectors as sparse old coordinates: column a of T."""
    n = len(T)
    return [{i: T[i][a] for i in range(n) if T[i][a]} for a in range(n)]


def sparse_constants(g):
    return {(i, j, k): c for (i, j), comps in g.pairs() for k, c in comps.items()}


def rebuilt(g, constants, name="rebased"):
    """The Lie algebra on the new basis with the given structure constants."""
    brackets = {}
    for (a, b, c), x in sorted(constants.items()):
        brackets.setdefault((a, b), {})[c] = x
    return LieAlgebra(name, [f"v{a}" for a in range(g.dim)], brackets)


def unimodular_sl(n):
    """lie.sl(n) on the basis of unimodular(random.Random(1), dim): the
    algebra of the fixture sl<n>_unimodular.json, where no basis element
    acts diagonally, so `invariants` works on the whole slice."""
    g = sl(n)
    T, T_inv = unimodular(random.Random(1), g.dim)
    constants = linalg.change_basis(sparse_constants(g), "llu", columns(T), sparse_rows(T_inv), True)
    return rebuilt(g, constants, f"sl{n}-unimodular")


def sl2_plus_heisenberg():
    return direct_sum(sl2(), heisenberg(3))


ALGEBRAS = {"sl3": sl3, "sl2+heisenberg3": sl2_plus_heisenberg}
BASES = [(seed, scaled) for seed in (1, 2, 3) for scaled in (False, True)]


@pytest.mark.parametrize("name", ALGEBRAS)
@pytest.mark.parametrize("seed,scaled", BASES)
def test_structure_constants_agree_with_the_dense_transform(name, seed, scaled):
    g = ALGEBRAS[name]()
    T, T_inv = unimodular(random.Random(seed), g.dim, scaled)
    got = linalg.change_basis(sparse_constants(g), "llu", columns(T), sparse_rows(T_inv), True)
    expected = nonzero(dense_transform(dense_constants(g), "llu", T, T_inv, g.dim), alternating=True)
    assert got == expected
    assert all(type(v) is Fraction for v in got.values())
    assert check_lie(rebuilt(g, got)).passed


@pytest.mark.parametrize("seed,scaled", BASES)
def test_pairing_and_casimir_agree_with_the_dense_transform(seed, scaled):
    g = sl3()
    n = g.dim
    T, T_inv = unimodular(random.Random(seed), n, scaled)
    vectors, inverse = columns(T), sparse_rows(T_inv)
    kappa = {(i, j): x for i, row in enumerate(trace_pairing(g)) for j, x in row.items()}
    pairing = linalg.change_basis(kappa, "ll", vectors)
    assert pairing == nonzero(dense_transform(dense_matrix(kappa, n), "ll", T, T_inv, n))
    casimir = dict(sym2_entries(casimir_of(g, trace_pairing(g))))
    new_casimir = linalg.change_basis(casimir, "uu", vectors, inverse)
    assert new_casimir == nonzero(dense_transform(dense_matrix(casimir, n), "uu", T, T_inv, n))
    # the Casimir of the new pairing is the new Casimir, and the pairing is
    # invariant for the new structure constants
    rows = sparse_rows([[pairing.get((a, b), F(0)) for b in range(n)] for a in range(n)])
    new_g = rebuilt(g, linalg.change_basis(sparse_constants(g), "llu", vectors, inverse, True))
    assert dict(sym2_entries(casimir_of(new_g, rows))) == new_casimir
    assert check_quadratic(QuadraticLieAlgebra(new_g, rows)).passed


@pytest.mark.parametrize("seed,scaled", BASES)
def test_t_then_t_inverse_gives_the_input_back(seed, scaled):
    g = sl3()
    n = g.dim
    T, T_inv = unimodular(random.Random(seed), n, scaled)
    forward = (columns(T), sparse_rows(T_inv))
    back = (columns(T_inv), sparse_rows(T))
    kappa = {(i, j): x for i, row in enumerate(trace_pairing(g)) for j, x in row.items()}
    casimir = dict(sym2_entries(casimir_of(g, trace_pairing(g))))
    for tensor, slots, alternating in (
        (sparse_constants(g), "llu", True),
        (kappa, "ll", False),
        (casimir, "uu", False),
    ):
        there = linalg.change_basis(tensor, slots, *forward, alternating)
        assert there != tensor
        assert linalg.change_basis(there, slots, *back, alternating) == tensor


def test_rational_function_constants_take_the_same_loops():
    # sl2 with [e, f] = x h over Q(x): the constants go through L = 1 and
    # stay RationalFunctions, T's entries through their common denominator
    g = lie_from_dict(json.loads((FIXTURES / "sl2x.json").read_text()))
    T, T_inv = unimodular(random.Random(5), g.dim, scaled=True)
    got = linalg.change_basis(sparse_constants(g), "llu", columns(T), sparse_rows(T_inv), True)
    expected = nonzero(dense_transform(dense_constants(g), "llu", T, T_inv, g.dim), alternating=True)
    assert got == expected and got.keys() == expected.keys()
    assert any(isinstance(v, RationalFunction) and not v.is_constant() for v in got.values())
    assert check_lie(rebuilt(g, got)).passed


@pytest.mark.parametrize("n", (3, 4))
def test_general_basis_fixtures_are_sl_rebased(n):
    # the inputs of the pinned general-basis invariants reports
    doc = json.loads((FIXTURES / f"sl{n}_unimodular.json").read_text())
    assert doc == lie_to_dict(unimodular_sl(n))
    assert check_lie(lie_from_dict(doc)).passed
