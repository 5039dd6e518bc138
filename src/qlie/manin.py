"""Quadratic Lie algebras, Manin pairs and triples, Drinfeld doubles.

Subalgebras are index subsets of the ambient basis; constructions that
produce non-basis-aligned subalgebras (the diagonal, the dual of the
Borel construction) rebase the double first, so every Lagrangian in
sight is spanned by basis vectors and all checks are plain index scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError, PreconditionError
from .lie import CECochain, LieAlgebra, WEDGE, trace_pairing
from .qlb import QuasiLieBialgebra
from .scalars import Scalar, combine, is_zero
from .tensors import Multivector

Matrix = List[List[Fraction]]


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


def check_quadratic(d: QuadraticLieAlgebra) -> QuadraticReport:
    """Nondegeneracy by exact rank, invariance by exhaustive scan."""
    g = d.lie
    nondeg = linalg.rank(dict(enumerate(row)) for row in d.pairing) == g.dim
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                total = Fraction(0)
                for m, c in g.bracket(i, j).items():
                    total += c * d.pairing[m][k]
                for m, c in g.bracket(i, k).items():
                    total += c * d.pairing[j][m]
                if total != 0:
                    return QuadraticReport(nondeg, False, (g.basis[i], g.basis[j], g.basis[k]))
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
    vectors: List[List[Fraction]],
    bracket_in_coords,
    pairing_in_coords,
) -> Tuple[LieAlgebra, Matrix]:
    """Build a Lie algebra on new basis vectors given coordinatewise data."""
    dim = len(vectors)
    inv = linalg.invert([[vectors[a][i] for a in range(dim)] for i in range(len(vectors[0]))])

    def expand(vec: List[Fraction]) -> Dict[int, Fraction]:
        out = {}
        for a in range(dim):
            total = Fraction(0)
            for i, v in enumerate(vec):
                if v:
                    total += inv[a][i] * v
            if total:
                out[a] = total
        return out

    brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            w = bracket_in_coords(vectors[a], vectors[b])
            comps = expand(w)
            if comps:
                brackets[(a, b)] = comps
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
    anti-diagonal Cartans).
    """
    for key in ("cartan", "positive", "negative", "pairing"):
        if key not in g.extra:
            raise InputError(f"{g.name} carries no Borel/Cartan data for the standard triple")
    kappa = trace_pairing(g)
    n = g.dim

    def kap(i, j):
        return kappa[i][j]

    def bracket_coords(u: List[Fraction], v: List[Fraction]) -> List[Fraction]:
        out = [Fraction(0)] * (2 * n)
        for side in (0, 1):
            x = {i: u[side * n + i] for i in range(n) if u[side * n + i]}
            y = {i: v[side * n + i] for i in range(n) if v[side * n + i]}
            for k, c in g.bracket_vectors(x, y).items():
                out[side * n + k] += c
        return out

    def pairing_coords(u: List[Fraction], v: List[Fraction]) -> Fraction:
        total = Fraction(0)
        for i in range(n):
            for j in range(n):
                if u[i] and v[j]:
                    total += u[i] * v[j] * kap(i, j)
                if u[n + i] and v[n + j]:
                    total -= u[n + i] * v[n + j] * kap(i, j)
        return total

    diag: List[List[Fraction]] = []
    labels: List[str] = []
    for i in range(n):
        vec = [Fraction(0)] * (2 * n)
        vec[i] = Fraction(1)
        vec[n + i] = Fraction(1)
        diag.append(vec)
        labels.append(g.basis[i])
    span: List[List[Fraction]] = []
    for i in g.extra["positive"]:
        vec = [Fraction(0)] * (2 * n)
        vec[i] = Fraction(1)
        span.append(vec)
    for i in g.extra["negative"]:
        vec = [Fraction(0)] * (2 * n)
        vec[n + i] = Fraction(1)
        span.append(vec)
    for i in g.extra["cartan"]:
        vec = [Fraction(0)] * (2 * n)
        vec[i] = Fraction(1)
        vec[n + i] = Fraction(-1)
        span.append(vec)
    # normalize the dual basis against the diagonal: <xi^i, diag_j> = delta_ij,
    # so the Gram matrix of the triple is the identity
    gram = [[pairing_coords(span[k], diag[j]) for j in range(n)] for k in range(n)]
    gram_inv = linalg.invert(gram)
    vectors = list(diag)
    for i in range(n):
        vec = [Fraction(0)] * (2 * n)
        for k in range(n):
            c = gram_inv[i][k]
            if c:
                for p in range(2 * n):
                    vec[p] += c * span[k][p]
        vectors.append(vec)
        labels.append(g.basis[i] + "*")
    lie, pairing = _rebase(f"double({g.name})", labels, vectors, bracket_coords, pairing_coords)
    quad = QuadraticLieAlgebra(lie, pairing)
    return ManinTriple(quad, tuple(range(n)), tuple(range(n, 2 * n)))


# ---------------------------------------------------------------------------
# triples <-> Lie bialgebras
# ---------------------------------------------------------------------------

def _sub_algebra(d: LieAlgebra, indices: Sequence[int], name: str) -> LieAlgebra:
    pos = {v: i for i, v in enumerate(indices)}
    brackets = {}
    for a, i in enumerate(indices):
        for b, j in enumerate(indices):
            if a < b:
                comps = d.bracket(i, j)
                bad = [k for k in comps if k not in pos]
                if bad:
                    raise InputError(f"indices do not span a subalgebra of {d.name}")
                row = {pos[k]: c for k, c in comps.items()}
                if row:
                    brackets[(a, b)] = row
    return LieAlgebra(name, [d.basis[i] for i in indices], brackets)


def triple_to_bialgebra(t: ManinTriple) -> QuasiLieBialgebra:
    """The Lie bialgebra on g with cobracket dual to the bracket of g*."""
    rep = manin_triple_check(t)
    if not rep.passed:
        raise PreconditionError("input is not a Manin triple")
    d = t.quad.lie
    g_sub = _sub_algebra(d, t.g_indices, f"{d.name}|g")
    n = len(t.g_indices)
    gram = [
        [t.quad.pairing[t.gstar_indices[k]][t.g_indices[j]] for j in range(n)] for k in range(n)
    ]
    m = linalg.invert(gram)  # xi^i = sum_k m[i][k] y_k pairs dually with the x_j
    spos = {v: k for k, v in enumerate(t.gstar_indices)}
    delta_entries = []
    for i in range(n):
        for j in range(i + 1, n):
            # [xi^i, xi^j] expanded back in the xi basis
            def terms():
                for k in range(n):
                    for l in range(n):
                        coef = m[i][k] * m[j][l]
                        if not coef:
                            continue
                        for w, c in d.bracket(t.gstar_indices[k], t.gstar_indices[l]).items():
                            if w not in spos:
                                raise InputError("dual subalgebra is not closed")
                            yield spos[w], coef * c

            for w_local, c in combine(terms()).items():
                for p in range(n):
                    v = c * gram[w_local][p]
                    if v:
                        delta_entries.append((((p,), (i, j)), v))
    delta = CECochain.build(g_sub, 1, WEDGE(2), delta_entries)
    return QuasiLieBialgebra(g_sub, delta, Multivector.zero(n, 3))


def drinfeld_double(b: QuasiLieBialgebra) -> ManinTriple:
    """d = g + g* with the canonical pairing; Jacobi of the double is the
    operational test that the input was a Lie bialgebra."""
    if not b.phi.is_zero():
        raise PreconditionError("the double is defined for Lie bialgebras (phi = 0)")
    g = b.g
    n = g.dim

    def delta_comp(i, j, k):
        # coefficient of x_i wedge x_j in delta(x_k)
        v = b.delta.data.get(((k,), tuple(sorted((i, j)))), Fraction(0))
        if i < j:
            return v
        if i > j:
            return -v
        return Fraction(0)

    labels = list(g.basis) + [lab + "^" for lab in g.basis]
    brackets: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = dict(g.bracket(i, j))
            if row:
                brackets[(i, j)] = row
    for i in range(n):
        for j in range(n):
            # [x_i, xi^j] = delta^{jk}_i x_k - f^j_{ik} xi^k
            row = combine(
                term
                for k in range(n)
                for term in ((k, delta_comp(j, k, i)), (n + k, -g.structure_constant(i, k, j)))
            )
            if row:
                brackets[(i, n + j)] = row
    for i in range(n):
        for j in range(i + 1, n):
            # [xi^i, xi^j] = delta^{ij}_k xi^k
            row = {}
            for k in range(n):
                c = delta_comp(i, j, k)
                if not is_zero(c):
                    row[n + k] = c
            if row:
                brackets[(n + i, n + j)] = row
    lie = LieAlgebra(f"double({g.name})", labels, brackets)
    pairing = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        pairing[i][n + i] = Fraction(1)
        pairing[n + i][i] = Fraction(1)
    quad = QuadraticLieAlgebra(lie, pairing)
    return ManinTriple(quad, tuple(range(n)), tuple(range(n, 2 * n)))


def double_jacobi_report(t: ManinTriple):
    """check_lie on the double; fails exactly on non-bialgebra inputs."""
    from .lie import check_lie

    return check_lie(t.quad.lie)
