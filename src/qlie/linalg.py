"""Exact linear algebra over the rationals on sparse rows.

A row is a dict {column: Fraction} of its nonzero entries. One routine,
`rref`, brings a list of rows to reduced row echelon form; rank, kernel
and inverse read their answers off its pivot rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence

from .scalars import combine, vec_scale

Row = Dict[int, Fraction]


def rref(rows: Iterable[Mapping[int, Fraction]]) -> Dict[int, Row]:
    """Reduced row echelon form of the span of the rows, as {pivot column: row}
    in column order. Each row is 1 in its pivot column and 0 in the others.

    Each row in turn is cleared against the pivots so far; its lowest column
    becomes a new pivot and is cleared from the older pivot rows.
    """
    pivots: Dict[int, Row] = {}
    for row in rows:
        r = {c: Fraction(x) for c, x in row.items() if x}
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


def rank(rows: Iterable[Mapping[int, Fraction]]) -> int:
    return len(rref(rows))


def nullspace(rows: Iterable[Mapping[int, Fraction]], n_cols: int) -> List[Row]:
    """Exact basis of the right kernel as sparse rows, one per free column in
    column order: the free column is 1, the other free columns 0.  The work
    is linear in the entries of the pivot rows, however large the kernel."""
    pivots = rref(rows)
    basis = {free: {free: Fraction(1)} for free in range(n_cols) if free not in pivots}
    for p, row in pivots.items():
        for c, x in row.items():
            if c in basis:
                basis[c][p] = -x
    return list(basis.values())


def invert(matrix: Sequence[Sequence[Fraction]]) -> List[Row]:
    """Exact inverse of a square nonsingular matrix, as sparse rows: one
    reduction of [A | I], whose right half is read off the pivot rows."""
    n = len(matrix)
    pivots = rref({**dict(enumerate(row)), n + i: 1} for i, row in enumerate(matrix))
    if list(pivots) != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [{j - n: x for j, x in sorted(pivots[i].items()) if j >= n} for i in range(n)]
