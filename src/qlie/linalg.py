"""Exact linear algebra over the rationals.

Forward elimination is fraction-free (Bareiss) after clearing
denominators, so intermediate entries stay integral; kernels and solves
do the final back substitution over Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]


def _integerize(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
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


def row_echelon(rows: Sequence[Sequence[Fraction]]) -> Tuple[Matrix, List[int]]:
    """Bareiss fraction-free echelon form.

    Returns the echelon matrix (entries exact, as Fractions) and the list
    of pivot column indices.
    """
    m = _integerize(rows)
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: List[int] = []
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


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    _, pivots = row_echelon(rows)
    return len(pivots)


def nullspace(rows: Sequence[Sequence[Fraction]], n_cols: Optional[int] = None) -> List[List[Fraction]]:
    """Exact basis of the right kernel, one vector per free column."""
    rows = [list(r) for r in rows]
    if n_cols is None:
        if not rows:
            return []
        n_cols = len(rows[0])
    if not rows:
        basis = []
        for j in range(n_cols):
            v = [Fraction(0)] * n_cols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    ech, pivots = row_echelon(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
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


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One exact solution of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return None if any(Fraction(b) != 0 for b in rhs) else []
    n_cols = len(rows[0])
    aug = [list(r) + [Fraction(b)] for r, b in zip(rows, rhs)]
    ech, pivots = row_echelon(aug)
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


def invert(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    """Exact inverse of a square nonsingular matrix."""
    n = len(matrix)
    cols = []
    for j in range(n):
        rhs = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        col = solve(matrix, rhs)
        if col is None:
            raise ZeroDivisionError("matrix is singular")
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]
