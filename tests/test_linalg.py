"""Sparse reduced echelon form against the dense Bareiss elimination it replaced.

`bareiss_row_echelon` and the dense `nullspace`, `solve` and `invert` below
are the fraction-free routines `qlie.linalg` used before the sparse
reduction.  They are kept here as an independent oracle only.
"""

from fractions import Fraction
from math import gcd

import pytest

from conftest import solve
from qlie import linalg
from qlie.lie import (
    ADJOINT,
    SYM,
    TRIVIAL,
    WEDGE,
    sl2,
    sl3,
)
from qlie.polyvectors import cohomology_dim, invariants
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
        inv = linalg.invert(m)
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
                linalg.invert(square)
        else:
            inv = linalg.invert(square)
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


def test_one_dimensional_invariants_sl3():
    g = sl3()
    assert cohomology_dim(g, TRIVIAL, 3) == 1
    assert len(invariants(g, WEDGE(3))) == 1
    assert len(invariants(g, SYM(2))) == 1
