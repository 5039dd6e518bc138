"""Quadratic Lie algebras, Manin pairs and triples, Drinfeld doubles.

Subalgebras are index subsets of the ambient basis; constructions that
produce non-basis-aligned subalgebras (the diagonal, the dual of the
Borel construction) rebase the double first, so every Lagrangian in
sight is spanned by basis vectors.  The checks and constructions run on
the supports of their data: the nonzero brackets, the nonzero pairing
entries and the nonzero entries of the inverses they take, so their cost
follows those supports and not the cube of the dimension.

The bialgebra of a Manin triple (d, g, g*) is coisotropic induction: the
Casimir c = pairing^-1 is the 2-shifted structure on BD, g is Lagrangian
and so coisotropic for c, and the structure `qlb.induce_from_coisotropic`
induces on g along g* is the triple's Lie bialgebra.  `drinfeld_double`
goes the other way by the canonical formulas, so the round trip of the
`double` command compares two independent constructions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError, PreconditionError
from .lie import LieAlgebra, casimir_of, split_subalgebra, trace_pairing
from .qlb import QuasiLieBialgebra, induce_from_coisotropic
from .scalars import Scalar, combine

Matrix = List[List[Fraction]]
Vector = Dict[int, Fraction]  # the nonzero coordinates of a vector


@dataclass
class QuadraticLieAlgebra:
    lie: LieAlgebra
    pairing: Matrix

    def __post_init__(self):
        n = self.lie.dim
        if len(self.pairing) != n or any(len(row) != n for row in self.pairing):
            raise InputError("pairing matrix has the wrong shape")
        self.pairing = [[Fraction(x) for x in row] for row in self.pairing]
        for i in range(n):
            for j in range(n):
                if self.pairing[i][j] != self.pairing[j][i]:
                    raise InputError("pairing matrix must be symmetric")


@dataclass
class QuadraticReport:
    nondegenerate: bool
    invariant: bool
    witness: Optional[Tuple[str, str, str]] = None

    @property
    def passed(self) -> bool:
        return self.nondegenerate and self.invariant


def _sparse_rows(matrix: Matrix) -> List[Vector]:
    return [{j: c for j, c in enumerate(row) if c} for row in matrix]


def check_quadratic(d: QuadraticLieAlgebra) -> QuadraticReport:
    """Nondegeneracy by exact rank; invariance as the vanishing of the tensor
    <[x_i, x_j], x_k> + <x_j, [x_i, x_k]>, summed over the nonzero brackets
    and the nonzero pairing entries.  The witness is the least nonzero
    (i, j, k), the first one a scan in index order would meet."""
    g = d.lie
    nondeg = linalg.rank(dict(enumerate(row)) for row in d.pairing) == g.dim
    rows = _sparse_rows(d.pairing)
    # [x_a, x_b] = sum_m c x_m for a < b enters with both orders of (a, b),
    # as [x_i, x_j] at (a, b, k) and as [x_i, x_k] at (a, k, b); the
    # pairing is symmetric, so row m of it serves both slots
    residual = combine(
        term
        for (a, b), comps in g.pairs()
        for m, c in comps.items()
        for k, v in rows[m].items()
        for term in (((a, b, k), c * v), ((b, a, k), -c * v), ((a, k, b), c * v), ((b, k, a), -c * v))
    )
    if residual:
        return QuadraticReport(nondeg, False, tuple(g.basis[i] for i in min(residual)))
    return QuadraticReport(nondeg, True)


@dataclass
class ManinPair:
    quad: QuadraticLieAlgebra
    g_indices: Tuple[int, ...]


@dataclass
class ManinPairReport:
    is_subalgebra: bool
    isotropic: bool
    half_dimensional: bool
    offending: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.is_subalgebra and self.isotropic and self.half_dimensional


def manin_pair_check(pair: ManinPair) -> ManinPairReport:
    d = pair.quad
    g = d.lie
    idx = set(pair.g_indices)
    sub_ok = True
    offending = None
    for i in pair.g_indices:
        for j in pair.g_indices:
            if i < j:
                comps = g.bracket(i, j)
                bad = [k for k in comps if k not in idx]
                if bad:
                    sub_ok = False
                    offending = f"[{g.basis[i]}, {g.basis[j]}] leaves the subspace"
    iso = all(
        d.pairing[i][j] == 0 for i in pair.g_indices for j in pair.g_indices
    )
    half = 2 * len(pair.g_indices) == g.dim
    return ManinPairReport(sub_ok, iso, half, offending)


@dataclass
class ManinTriple:
    quad: QuadraticLieAlgebra
    g_indices: Tuple[int, ...]
    gstar_indices: Tuple[int, ...]


@dataclass
class ManinTripleReport:
    quadratic: QuadraticReport
    g_pair: ManinPairReport
    gstar_pair: ManinPairReport
    complementary: bool

    @property
    def passed(self) -> bool:
        return (
            self.quadratic.passed
            and self.g_pair.passed
            and self.gstar_pair.passed
            and self.complementary
        )


def manin_triple_check(t: ManinTriple) -> ManinTripleReport:
    quad_rep = check_quadratic(t.quad)
    rep_g = manin_pair_check(ManinPair(t.quad, t.g_indices))
    rep_s = manin_pair_check(ManinPair(t.quad, t.gstar_indices))
    disjoint = not (set(t.g_indices) & set(t.gstar_indices))
    spans = len(t.g_indices) + len(t.gstar_indices) == t.quad.lie.dim
    return ManinTripleReport(quad_rep, rep_g, rep_s, disjoint and spans)


# ---------------------------------------------------------------------------
# the standard triple on the double of a split simple algebra
# ---------------------------------------------------------------------------

def _rebase(
    name: str,
    labels: Sequence[str],
    vectors: List[Vector],
    bracket_in_coords,
    pairing_in_coords,
) -> Tuple[LieAlgebra, Matrix]:
    """Build a Lie algebra on new basis vectors given coordinatewise data.

    Vectors and brackets are sparse coordinate dicts; a bracket goes back
    to the new basis through the nonzero entries of the inverse change of
    basis."""
    dim = len(vectors)
    inv = linalg.invert([[vectors[a].get(i, Fraction(0)) for a in range(dim)] for i in range(dim)])
    # column i of the inverse: the new coordinates of the i-th old unit vector
    columns: List[Vector] = [{} for _ in range(dim)]
    for a, row in enumerate(inv):
        for i, x in row.items():
            columns[i][a] = x

    brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            w = bracket_in_coords(vectors[a], vectors[b])
            comps = combine((r, c * v) for i, v in w.items() for r, c in columns[i].items())
            if comps:
                brackets[(a, b)] = dict(sorted(comps.items()))
    lie = LieAlgebra(name, labels, brackets)
    pairing = [
        [pairing_in_coords(vectors[a], vectors[b]) for b in range(dim)] for a in range(dim)
    ]
    return lie, pairing


def dual_subalgebra_bplus_bminus(g: LieAlgebra) -> ManinTriple:
    """The triple (g + g, diagonal, dual) with the difference pairing.

    The dual sits inside b_+ + b_- as the pairs whose Cartan components
    add up to zero.  The double is rebased so both Lagrangians are
    index-aligned: first the diagonal copies of the g basis, then the
    dual basis (positive roots on the left, negative on the right,
    anti-diagonal Cartans).  Coordinate p < n is the left copy of x_p and
    n + p the right one.
    """
    for key in ("cartan", "positive", "negative", "pairing"):
        if key not in g.extra:
            raise InputError(f"{g.name} carries no Borel/Cartan data for the standard triple")
    kappa = _sparse_rows(trace_pairing(g))
    n = g.dim

    def sides(u: Vector) -> Tuple[Vector, Vector]:
        return {p: c for p, c in u.items() if p < n}, {p - n: c for p, c in u.items() if p >= n}

    def bracket_coords(u: Vector, v: Vector) -> Vector:
        (u0, u1), (v0, v1) = sides(u), sides(v)
        out = g.bracket_vectors(u0, v0)
        out.update((n + k, c) for k, c in g.bracket_vectors(u1, v1).items())
        return out

    def pairing_coords(u: Vector, v: Vector) -> Fraction:
        (u0, u1), (v0, v1) = sides(u), sides(v)
        return sum(
            (
                sign * a * b * kappa[i][j]
                for sign, x, y in ((1, u0, v0), (-1, u1, v1))
                for i, a in x.items()
                for j, b in y.items()
                if j in kappa[i]
            ),
            Fraction(0),
        )

    diag: List[Vector] = [{i: Fraction(1), n + i: Fraction(1)} for i in range(n)]
    labels: List[str] = list(g.basis)
    span: List[Vector] = [{i: Fraction(1)} for i in g.extra["positive"]]
    span += [{n + i: Fraction(1)} for i in g.extra["negative"]]
    span += [{i: Fraction(1), n + i: Fraction(-1)} for i in g.extra["cartan"]]
    # normalize the dual basis against the diagonal: <xi^i, diag_j> = delta_ij,
    # so the Gram matrix of the triple is the identity
    gram = [[pairing_coords(span[k], diag[j]) for j in range(n)] for k in range(n)]
    vectors = list(diag)
    for i, row in enumerate(linalg.invert(gram)):
        vectors.append(combine((p, c * v) for k, c in row.items() for p, v in span[k].items()))
        labels.append(g.basis[i] + "*")
    lie, pairing = _rebase(f"double({g.name})", labels, vectors, bracket_coords, pairing_coords)
    quad = QuadraticLieAlgebra(lie, pairing)
    return ManinTriple(quad, tuple(range(n)), tuple(range(n, 2 * n)))


# ---------------------------------------------------------------------------
# triples <-> Lie bialgebras
# ---------------------------------------------------------------------------

def triple_to_bialgebra(t: ManinTriple) -> QuasiLieBialgebra:
    """The Lie bialgebra on g with cobracket dual to the bracket of g*."""
    if not manin_triple_check(t).passed:
        raise PreconditionError("input is not a Manin triple")
    return triple_to_bialgebra_unchecked(t)


def triple_to_bialgebra_unchecked(t: ManinTriple) -> QuasiLieBialgebra:
    """`triple_to_bialgebra` on a triple that already passed `manin_triple_check`.

    g is Lagrangian in d, so it is coisotropic for the Casimir c =
    pairing^-1, and the structure induced on g along g* is the bialgebra of
    the triple: c has no g (x) g part, so phi = 0, and delta is the
    transpose of the bracket of g*."""
    split = split_subalgebra(t.quad.lie, t.g_indices, t.gstar_indices)
    return induce_from_coisotropic(split, casimir_of(t.quad.pairing), validate=False)


def drinfeld_double(b: QuasiLieBialgebra) -> ManinTriple:
    """d = g + g* with the canonical pairing; Jacobi of the double is the
    operational test that the input was a Lie bialgebra."""
    if not b.phi.is_zero():
        raise PreconditionError("the double is defined for Lie bialgebras (phi = 0)")
    g = b.g
    n = g.dim

    labels = list(g.basis) + [lab + "^" for lab in g.basis]
    rows: Dict[Tuple[int, int], List[Tuple[int, Scalar]]] = defaultdict(list)
    for (i, j), comps in g.pairs():
        rows[(i, j)].extend(comps.items())
        # [x_i, xi^k] = delta^{kl}_i x_l - f^k_{il} xi^l, its f part here
        for k, c in comps.items():
            rows[(i, n + k)].append((n + j, -c))
            rows[(j, n + k)].append((n + i, c))
    for ((k,), (i, j)), c in b.delta.data.items():
        # delta(x_k) has c on x_i ^ x_j: [x_k, xi^i] gets c x_j, [x_k, xi^j]
        # gets -c x_i, and [xi^i, xi^j] = delta^{ij}_l xi^l gets c xi^k
        rows[(k, n + i)].append((j, c))
        rows[(k, n + j)].append((i, -c))
        rows[(n + i, n + j)].append((n + k, c))
    brackets = {key: dict(sorted(combine(terms).items())) for key, terms in sorted(rows.items())}
    lie = LieAlgebra(f"double({g.name})", labels, brackets)
    pairing = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        pairing[i][n + i] = Fraction(1)
        pairing[n + i][i] = Fraction(1)
    quad = QuadraticLieAlgebra(lie, pairing)
    return ManinTriple(quad, tuple(range(n)), tuple(range(n, 2 * n)))
