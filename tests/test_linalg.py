"""Sparse reduced echelon form against the eliminations it replaced.

`bareiss_row_echelon` and the dense `nullspace`, `solve` and `invert` below
are the fraction-free routines `qlie.linalg` used before the sparse
reduction.  `field_rref` is the sparse reduction as it was before it took
integer rows over Q: one scalar at a time, in the order the rows come.
Both are kept here as independent oracles only.
"""

from fractions import Fraction
from math import gcd

import pytest

import json
import random

from conftest import FIXTURES, solve
from qlie import linalg
from qlie.formats import lie_from_dict
from qlie.lie import direct_sum, heisenberg, sl, sl2, sl3
from qlie.polyvectors import cohomology_dim, invariants
from qlie.scalars import RationalFunction, combine, parse_scalar, vec_scale
from qlie.tensors import ADJOINT, SYM, TRIVIAL, WEDGE
from test_ce_reference import module_action, module_basis


def F(a, b=1):
    return Fraction(a, b)


def sparse(rows):
    return [dict(enumerate(row)) for row in rows]


# ---------------------------------------------------------------------------
# the dense reference
# ---------------------------------------------------------------------------

def _integerize(rows):
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def bareiss_row_echelon(rows):
    m = _integerize(rows)
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    prev = 1
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return [[Fraction(v) for v in row] for row in m], pivots


def dense(vectors, n_cols):
    """Sparse kernel vectors as dense lists of length n_cols."""
    return [[v.get(c, Fraction(0)) for c in range(n_cols)] for v in vectors]


def dense_nullspace(rows, n_cols):
    if not rows:
        return [[Fraction(int(i == j)) for i in range(n_cols)] for j in range(n_cols)]
    ech, pivots = bareiss_row_echelon(rows)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            s = Fraction(0)
            for c in range(pc + 1, n_cols):
                if v[c]:
                    s += ech[i][c] * v[c]
            v[pc] = -s / ech[i][pc]
        basis.append(v)
    return basis


def dense_solve(rows, rhs):
    n_cols = len(rows[0])
    ech, pivots = bareiss_row_echelon([list(r) + [Fraction(b)] for r, b in zip(rows, rhs)])
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        s = ech[i][n_cols]
        for c in range(pc + 1, n_cols):
            if x[c]:
                s -= ech[i][c] * x[c]
        x[pc] = s / ech[i][pc]
    return x


def dense_invert(matrix):
    n = len(matrix)
    cols = []
    for j in range(n):
        col = dense_solve(matrix, [Fraction(int(i == j)) for i in range(n)])
        if col is None:
            raise ZeroDivisionError("matrix is singular")
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def random_matrix(rng, n_rows, n_cols, rank_cap=None):
    """Small rationals, about half of them zero; with rank_cap, every row is a
    combination of the first rank_cap rows."""
    def entry():
        return F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5 else F(0)

    rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    if rank_cap is not None:
        base = rows[:rank_cap]
        for i in range(rank_cap, n_rows):
            coefs = [F(rng.randint(-2, 2)) for _ in base]
            rows[i] = [sum((c * b[j] for c, b in zip(coefs, base)), F(0)) for j in range(n_cols)]
    return rows


# ---------------------------------------------------------------------------
# the sparse routine
# ---------------------------------------------------------------------------

def test_rank_and_echelon():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert linalg.rank(sparse(m)) == 2
    pivots = linalg.rref(sparse(m))
    assert list(pivots) == [0, 1]
    assert pivots == {0: {0: F(1), 2: F(1)}, 1: {1: F(1), 2: F(1)}}


def test_nullspace_annihilates(rng):
    for _ in range(20):
        rows = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)] for _ in range(3)
        ]
        basis = dense(linalg.nullspace(sparse(rows), n_cols=5), 5)
        assert len(basis) == 5 - linalg.rank(sparse(rows))
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_solve_consistent_and_inconsistent():
    rows = sparse([[F(1), F(1)], [F(1), F(-1)]])
    sol = solve(rows, [F(2), F(0)], 2)
    assert sol == [F(1), F(1)]
    rows2 = sparse([[F(1), F(1)], [F(2), F(2)]])
    assert solve(rows2, [F(1), F(3)], 2) is None
    sol3 = solve(rows2, [F(1), F(2)], 2)
    assert sol3 is not None
    assert sol3[0] + sol3[1] == 1


def plain_gauss_rank(rows):
    # independent oracle: ordinary fraction Gaussian elimination
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    rank = 0
    cols = len(m[0])
    for c in range(cols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                factor = m[i][c] / m[rank][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_rank_matches_plain_gauss(rng):
    for _ in range(40):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        rows = [
            [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        assert linalg.rank(sparse(rows)) == plain_gauss_rank(rows)


def test_invert_round_trip(rng):
    for _ in range(10):
        n = 4
        m = [[F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        if linalg.rank(sparse(m)) < n:
            continue
        inv = linalg.invert(sparse(m))
        for i in range(n):
            for j in range(n):
                assert sum(m[i][k] * inv[k].get(j, 0) for k in range(n)) == (1 if i == j else 0)


# ---------------------------------------------------------------------------
# against the dense reference
# ---------------------------------------------------------------------------

def test_agrees_with_dense_reference_on_random_matrices(rng):
    seen = {"deficient": 0, "inconsistent": 0, "singular": 0}
    for trial in range(300):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        cap = rng.randint(0, min(n_rows, n_cols)) if trial % 2 else None
        rows = random_matrix(rng, n_rows, n_cols, cap)
        _, dense_pivots = bareiss_row_echelon(rows)
        assert linalg.rank(sparse(rows)) == len(dense_pivots)
        assert list(linalg.rref(sparse(rows))) == dense_pivots
        seen["deficient"] += len(dense_pivots) < min(n_rows, n_cols)
        assert dense(linalg.nullspace(sparse(rows), n_cols), n_cols) == dense_nullspace(rows, n_cols)
        x0 = random_matrix(rng, 1, n_cols)[0]
        for rhs in (
            [sum((a * b for a, b in zip(row, x0)), F(0)) for row in rows],
            [F(rng.randint(-3, 3)) for _ in rows],
        ):
            expected = dense_solve(rows, rhs)
            seen["inconsistent"] += expected is None
            assert solve(sparse(rows), rhs, n_cols) == expected
        square = random_matrix(rng, n_rows, n_rows, cap)
        try:
            expected = dense_invert(square)
        except ZeroDivisionError:
            seen["singular"] += 1
            with pytest.raises(ZeroDivisionError, match="matrix is singular"):
                linalg.invert(sparse(square))
        else:
            inv = linalg.invert(sparse(square))
            assert dense(inv, len(square)) == expected
            assert all(x and 0 <= c < len(square) for row in inv for c, x in row.items())
    assert all(count >= 20 for count in seen.values()), seen


def invariants_matrix(g, module):
    """The action rows that `invariants` reduces, dense, in its row order."""
    keys = module_basis(g, module)
    rows = []
    for xi in range(g.dim):
        images = [module_action(g, xi, module, key) for key in keys]
        for ok in sorted({k for img in images for k in img}):
            rows.append([Fraction(img.get(ok, 0)) for img in images])
    return rows, keys


@pytest.mark.parametrize("factory", [sl2, sl3], ids=["sl2", "sl3"])
@pytest.mark.parametrize("module", [SYM(2), WEDGE(3)], ids=["sym2", "wedge3"])
def test_agrees_with_dense_reference_on_invariants_matrices(factory, module):
    g = factory()
    rows, keys = invariants_matrix(g, module)
    expected = dense_nullspace(rows, len(keys))
    assert dense(linalg.nullspace(sparse(rows), len(keys)), len(keys)) == expected
    assert linalg.rank(sparse(rows)) == len(bareiss_row_echelon(rows)[1])
    assert [x.data for x in invariants(g, module)] == [
        {((), keys[i]): c for i, c in enumerate(vec) if c} for vec in expected
    ]


# ---------------------------------------------------------------------------
# classical theorems on sl3
# ---------------------------------------------------------------------------

def test_whitehead_lemmas_sl3():
    g = sl3()
    assert cohomology_dim(g, ADJOINT, 1) == 0
    assert cohomology_dim(g, ADJOINT, 2) == 0


def test_whitehead_lemmas_over_a_rational_function_field():
    # sl2 with [e, f] = x h is semisimple over Q(x): H^1 = H^2 = 0, and its
    # one quadratic invariant (2/x) e f + h h has a coefficient in Q(x)
    g = lie_from_dict(json.loads((FIXTURES / "sl2x.json").read_text()))
    assert [cohomology_dim(g, ADJOINT, k) for k in range(4)] == [0, 0, 0, 0]
    (c,) = invariants(g, SYM(2))
    assert c.data == {((), (0, 1)): parse_scalar("2/x", ("x",)), ((), (2, 2)): F(1)}


def test_elimination_over_a_rational_function_field():
    # entries keep their types: Q(x) entries reduce over Q(x), and an
    # inverse over Q(x) multiplies back to the identity
    x = parse_scalar("x", ("x",))
    assert linalg.rank([{0: x, 1: F(1)}, {0: F(1), 1: 1 / x}]) == 1
    matrix = [[x, F(1)], [F(0), x + 1]]
    inv = linalg.invert(sparse(matrix))
    for i in range(2):
        for j in range(2):
            entry = sum((matrix[i][k] * inv[k].get(j, 0) for k in range(2)), F(0))
            assert entry == (1 if i == j else 0)
    # and an int entry is read as a Fraction
    (row,) = linalg.rref([{0: 2, 1: F(1, 3)}]).values()
    assert row == {0: 1, 1: F(1, 6)} and all(type(v) is Fraction for v in row.values())


def test_one_dimensional_invariants_sl3():
    g = sl3()
    assert cohomology_dim(g, TRIVIAL, 3) == 1
    assert len(invariants(g, WEDGE(3))) == 1
    assert len(invariants(g, SYM(2))) == 1


# ---------------------------------------------------------------------------
# against the field loop that integer rows replaced over Q
# ---------------------------------------------------------------------------

def field_rref(rows):
    """`qlie.linalg.rref` before integer rows, verbatim."""
    pivots = {}
    for row in rows:
        r = {c: x if isinstance(x, (Fraction, RationalFunction)) else Fraction(x) for c, x in row.items() if x}
        for c in [c for c in r if c in pivots]:
            f = -r[c]
            combine(((k, f * v) for k, v in pivots[c].items()), r)
        if not r:
            continue
        p = min(r)
        r = vec_scale(r, 1 / r[p])
        for older in pivots.values():
            if p in older:
                f = -older[p]
                combine(((k, f * v) for k, v in r.items()), older)
        pivots[p] = r
    return dict(sorted(pivots.items()))


def assert_same_rref(rows):
    """rref of rows equals the field loop's, with every value a Fraction,
    and leaves the rows as they were."""
    before = [dict(row) for row in rows]
    got = linalg.rref(rows)
    assert rows == before
    assert got == field_rref(rows)
    assert list(got) == sorted(got)
    assert all(type(x) is Fraction for row in got.values() for x in row.values())
    return got


# primes next to 2^61, so that the denominators of a row are coprime and
# its common denominator has hundreds of bits
PRIMES = (
    2305843009213693951,
    2305843009213693921,
    2305843009213693907,
    2305843009213693723,
    2305843009213693967,
    2305843009213693973,
)


def random_rows(rng, n_rows, n_cols):
    """Sparse rows mixing int entries, small negative fractions, fractions
    over primes near 2^61, zero rows, explicit zeros and dependent rows."""
    def entry():
        kind = rng.random()
        if kind < 0.4:
            return 0
        if kind < 0.55:
            return rng.randint(-9, 9)
        if kind < 0.8:
            return F(rng.randint(-9, 9), rng.randint(1, 6))
        return F(rng.randint(-(2**64), 2**64), rng.choice(PRIMES))

    rows = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = F(rng.randint(-3, 3), rng.choice(PRIMES)), rng.randint(-3, 3)
            rows.append({c: s * a.get(c, 0) + t * b.get(c, 0) for c in set(a) | set(b)})
        else:
            rows.append({c: entry() for c in range(n_cols)})
    return rows


def test_rref_agrees_with_field_loop_on_random_rows(rng):
    seen = {"deficient": 0, "full": 0, "huge": 0}
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_rows(rng, n_rows, n_cols)
        got = assert_same_rref(rows)
        seen["deficient" if len(got) < min(n_rows, n_cols) else "full"] += 1
        seen["huge"] += any(x.denominator.bit_length() > 120 for row in got.values() for x in row.values())
    assert all(count >= 20 for count in seen.values()), seen
    assert linalg.rref([]) == field_rref([]) == {}
    assert linalg.rref([{}, {0: 0, 3: F(0)}]) == {}


def test_rref_is_independent_of_row_order(rng):
    rows = random_rows(random.Random(7), 9, 7)
    expected = field_rref(rows)
    assert len(expected) >= 5
    for _ in range(30):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert linalg.rref(shuffled) == expected


def rows_reduced_by(call, *args):
    """The rows of every rref that call(*args) makes, as lists of dicts."""
    seen = []
    real = linalg.rref

    def recording(rows):
        rows = [dict(row) for row in rows]
        seen.append(rows)
        return real(rows)

    linalg.rref = recording
    try:
        call(*args)
    finally:
        linalg.rref = real
    return seen


LIBRARY_ALGEBRAS = {
    "sl3": sl3,
    "sl4": lambda: sl(4),
    "sl2+heisenberg3": lambda: direct_sum(sl2(), heisenberg(3)),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_ALGEBRAS))
def test_rref_agrees_with_field_loop_on_library_rows(name):
    g = LIBRARY_ALGEBRAS[name]()
    matrices = []
    for module in (SYM(2), WEDGE(3)):
        matrices += rows_reduced_by(invariants, g, module)
    for module, degree in ((ADJOINT, 1), (ADJOINT, 2), (TRIVIAL, 3)):
        matrices += rows_reduced_by(cohomology_dim, g, module, degree)
    assert len(matrices) == 8 and all(matrices)
    for rows in matrices:
        assert_same_rref(rows)


def assert_same_strings(rows):
    got, expected = linalg.rref(rows), field_rref(rows)
    assert list(got) == list(expected)
    for p, row in got.items():
        assert list(row) == list(expected[p])
        assert [(type(x), str(x)) for x in row.values()] == [(type(x), str(x)) for x in expected[p].values()]


def test_rational_function_rows_keep_the_field_loop():
    # a matrix with one Q(x) entry is reduced over Q(x) as before: the same
    # pivots, keys, types and printed values, key for key
    x, y = parse_scalar("x", ("x",)), parse_scalar("x^2 - 1", ("x",))
    rows = [
        {0: F(2, 3), 1: x, 3: 5},
        {0: F(1), 1: F(-1, 7), 2: y},
        {1: 1 / x, 2: F(3), 3: x + 2},
        {0: F(4, 3), 1: 2 * x, 3: 10},
        {2: F(1, 2), 3: 1 / (x - 1)},
    ]
    assert_same_strings(rows)
    assert any(isinstance(v, RationalFunction) for row in linalg.rref(rows).values() for v in row.values())
    g = lie_from_dict(json.loads((FIXTURES / "sl2x.json").read_text()))
    matrices = rows_reduced_by(invariants, g, SYM(2)) + rows_reduced_by(invariants, g, WEDGE(3))
    matrices += rows_reduced_by(cohomology_dim, g, ADJOINT, 2)
    assert any(isinstance(v, RationalFunction) for rows in matrices for row in rows for v in row.values())
    for rows in matrices:
        assert_same_strings(rows)
