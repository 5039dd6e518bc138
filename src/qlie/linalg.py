"""Exact linear algebra over the field of the entries, on sparse rows.

A row is a dict {column: scalar} of its nonzero entries.  The field is Q
when every entry is a Fraction (or an int, read as one) and Q(vars) when
some are RationalFunctions.  One routine, `rref`, brings a list of rows to
reduced row echelon form; rank, kernel and inverse read their answers off
its pivot rows.  `change_basis` takes a sparse tensor to a new basis, its
lower slots through T and its upper slots through the inverse's rows.

Over Q the elimination is fraction-free (Bareiss, Math. Comp. 22, 1968):
a row of ints goes in as it is, any other row over its common denominator
as a primitive integer row; a row is cleared against a pivot by
cross-multiplication and made primitive once its pivot is found, and a
Fraction is formed only when each pivot row is finally divided by its
pivot.  The rows go in sparsest first; the reduced echelon form of a span
is unique, so their order cannot change the answer.  Over Q(vars), whose
`/` is exact too, the rows are reduced in their own scalars, in the order
given, so every value prints as that order makes it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .scalars import RationalFunction, Scalar, add_term, combine, common_denominator, over, vec_scale

Row = Dict[int, Scalar]
IntRow = Dict[int, int]


def rref(rows: Iterable[Mapping[int, Scalar]]) -> Dict[int, Row]:
    """Reduced row echelon form of the span of the rows, as {pivot column: row}
    in column order. Each row is 1 in its pivot column and 0 in the others,
    and every value over Q is a Fraction.

    Each row in turn is cleared against the pivots so far; its lowest column
    becomes a new pivot and is cleared from the older pivot rows.  Over Q
    the rows are integer rows, taken sparsest first, and each pivot row is
    divided by its pivot only at the end (module docstring).
    """
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    if any(isinstance(x, RationalFunction) for row in rows for x in row.values()):
        field: Dict[int, Row] = {}
        for row in rows:
            r = {c: x if isinstance(x, (Fraction, RationalFunction)) else Fraction(x) for c, x in row.items()}
            for c in [c for c in r if c in field]:
                f = -r[c]
                combine(((k, f * v) for k, v in field[c].items()), r)
            if not r:
                continue
            p = min(r)
            r = vec_scale(r, 1 / r[p])
            for older in field.values():
                if p in older:
                    f = -older[p]
                    combine(((k, f * v) for k, v in r.items()), older)
            field[p] = r
        return dict(sorted(field.items()))
    pivots: Dict[int, IntRow] = {}
    for r in sorted(map(_integer_row, rows), key=len):
        for c in [c for c in r if c in pivots]:
            r = _cross(r, pivots[c], c)
        if not r:
            continue
        p = min(r)
        r = _primitive(r, r[p] < 0)
        for q, older in pivots.items():
            if p in older:
                pivots[q] = _primitive(_cross(older, r, p), False)
        pivots[p] = r
    return {p: {c: Fraction(v, row[p]) for c, v in row.items()} for p, row in sorted(pivots.items())}


def _integer_row(row: Dict[int, Scalar]) -> IntRow:
    """The row as integers: a row of ints as it is, which elimination makes
    primitive once its pivot is found; else over its common denominator,
    made primitive."""
    if all(type(x) is int for x in row.values()):
        return row
    den = lcm(*(x.denominator for x in row.values()))
    return _primitive({c: x.numerator * (den // x.denominator) for c, x in row.items()}, False)


def _primitive(r: IntRow, negate: bool) -> IntRow:
    """r divided by the gcd of its entries (by minus it when negate)."""
    g = gcd(*r.values())
    if negate:
        g = -g
    return r if g == 1 else {c: v // g for c, v in r.items()}


def _cross(r: IntRow, p: IntRow, c: int) -> IntRow:
    """a r - b p, where a/b = p[c]/r[c] in lowest terms and a > 0 (the pivot
    p[c] is positive), so column c drops out and r is never negated; r is
    updated in place."""
    a, b = p[c], r[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for k in r:
            r[k] *= a
    for k, v in p.items():
        w = r.get(k, 0) - b * v
        if w:
            r[k] = w
        else:
            del r[k]
    return r


def rank(rows: Iterable[Mapping[int, Scalar]]) -> int:
    return len(rref(rows))


def nullspace(rows: Iterable[Mapping[int, Scalar]], n_cols: int) -> List[Row]:
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


def invert(rows: Sequence[Mapping[int, Scalar]]) -> List[Row]:
    """Exact inverse of a square nonsingular matrix given by its sparse rows,
    as sparse rows: one reduction of [A | I], whose right half is read off
    the pivot rows."""
    n = len(rows)
    pivots = rref({**row, n + i: Fraction(1)} for i, row in enumerate(rows))
    if list(pivots) != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [{j - n: x for j, x in sorted(pivots[i].items()) if j >= n} for i in range(n)]


def change_basis(
    tensor: Mapping[Tuple[int, ...], Scalar],
    slots: str,
    vectors: Sequence[Mapping[int, Scalar]],
    inverse: Sequence[Mapping[int, Scalar]] = (),
    alternating: bool = False,
) -> Dict[Tuple[int, ...], Scalar]:
    """The components of a tensor on the new basis v_a = sum_i T_ia e_i,
    where vectors[a] = {i: T_ia} holds the nonzero old coordinates of v_a.

    tensor maps index tuples to the nonzero components on the old basis
    e_i, and slots has one letter per index: "l" for a lower slot, which
    goes through T, and "u" for an upper one, which goes through T^-1,
    given by its sparse rows inverse[a] = {i: (T^-1)_ai} (as `invert`
    returns them).  So the structure constants c^k_ij of [e_i, e_j] =
    c^k_ij e_k, keyed (i, j, k), are "llu", a pairing is "ll" and a
    Casimir "uu".  With alternating, the first two slots are antisymmetric
    and keyed i < j only, in and out: an output pair (a, b) with a > b
    goes onto (b, a) with the opposite sign, and a = b, where the two
    orders of (i, j) cancel, is skipped.

    Only the nonzero old components are walked, each old index i through
    an index of the new a with T_ia != 0 (lower) or (T^-1)_ai != 0
    (upper).  The products are summed as integer numerators: the tensor,
    T and T^-1 each over the common denominator of its entries
    (`scalars.common_denominator`, L = 1 for RationalFunction entries),
    and each output key is divided once."""
    L, numerator = common_denominator(list(tensor.values()))
    den, index = L, {}
    for kind, rows in (("l", vectors), ("u", inverse)):
        if kind in slots:
            Lk, num = common_denominator([x for row in rows for x in row.values()])
            den *= Lk ** slots.count(kind)
            by_old: Dict[int, List[Tuple[int, Scalar]]] = {}
            for a, row in enumerate(rows):
                for i, x in row.items():
                    by_old.setdefault(i, []).append((a, num(x)))
            index[kind] = by_old
    walk = [index[kind] for kind in slots]
    acc: Dict[Tuple[int, ...], Scalar] = {}
    for key, t in tensor.items():
        terms = [((), numerator(t))]
        for s, (by_old, i) in enumerate(zip(walk, key)):
            terms = [(out + (a,), c * x) for out, c in terms for a, x in by_old.get(i, ())]
            if alternating and s == 1:
                terms = [((b, a), -c) if a > b else ((a, b), c) for (a, b), c in terms if a != b]
        for out, c in terms:
            add_term(acc, out, c)
    return over(acc, den)
