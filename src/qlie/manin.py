"""Quadratic Lie algebras, Manin pairs and triples, Drinfeld doubles.

Subalgebras are index subsets of the ambient basis; constructions that
produce non-basis-aligned subalgebras (the diagonal, the dual of the
Borel construction) rebase the double first, so every Lagrangian in
sight is spanned by basis vectors.  The rebase is `linalg.change_basis`:
the structure constants, the pairing and the Gram block that normalises
the dual basis are each one change of basis, walked over their nonzero
entries and summed as integer numerators.  The checks and constructions
run on the supports of their data: the nonzero brackets, the nonzero
pairing entries and the nonzero entries of the inverses they take, so
their cost follows those supports and not the cube of the dimension.
The invariance residual of `check_quadratic` is summed as integer
numerators too, with L = 1 over Q(vars).

The bialgebra of a Manin triple (d, g, g*) is coisotropic induction: the
Casimir c = pairing^-1 is the 2-shifted structure on BD, g is Lagrangian
and so coisotropic for c, and the structure `qlb.induce_from_coisotropic`
induces on g along g* is the triple's Lie bialgebra.  It trusts its
triple: the CLI's `double` and `std-triple` run `manin_triple_check`
first.  `drinfeld_double` goes the other way by the canonical formulas,
so the round trip of the `double` command compares two independent
constructions.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError
from .lie import LieAlgebra, casimir_of, split_subalgebra, trace_pairing
from .qlb import QuasiLieBialgebra, induce_from_coisotropic
from .scalars import Scalar, add_term, combine, common_denominator, over

Vector = Dict[int, Fraction]  # the nonzero coordinates of a vector


class QuadraticLieAlgebra:
    """A Lie algebra with a symmetric pairing, given by its sparse rows:
    pairing[i] = {j: <x_i, x_j>} over the nonzero entries."""

    def __init__(self, lie: LieAlgebra, pairing: Sequence[Mapping[int, Fraction]]):
        n = lie.dim
        if len(pairing) != n or any(not 0 <= j < n for row in pairing for j in row):
            raise InputError("pairing matrix has the wrong shape")
        self.lie = lie
        self.pairing = [
            {j: x if type(x) is Fraction else Fraction(x) for j, x in row.items() if x} for row in pairing
        ]
        # the mirror of a nonzero entry may be a zero, absent from its row: get() gives None
        if any(self.pairing[j].get(i) != x for i, row in enumerate(self.pairing) for j, x in row.items()):
            raise InputError("pairing matrix must be symmetric")


class QuadraticReport(NamedTuple):
    nondegenerate: bool
    invariant: bool
    rank: int  # of the pairing
    witness: Optional[Tuple[str, str, str]] = None

    @property
    def passed(self) -> bool:
        return self.nondegenerate and self.invariant


def check_quadratic(d: QuadraticLieAlgebra) -> QuadraticReport:
    """Nondegeneracy by exact rank; invariance as the vanishing of the
    residual (`_invariance_residual`).  The witness is the least nonzero
    (i, j, k), the first one a scan in index order would meet."""
    rank = linalg.rank(d.pairing)
    residual = _invariance_residual(d.lie, d.pairing)
    witness = tuple(d.lie.basis[i] for i in min(residual)) if residual else None
    return QuadraticReport(rank == d.lie.dim, not residual, rank, witness)


def _invariance_residual(g: LieAlgebra, rows: Sequence[Vector]) -> Dict[Tuple[int, int, int], Scalar]:
    """The tensor <[x_i, x_j], x_k> + <x_j, [x_i, x_k]> of the pairing with
    the given sparse rows, summed over the nonzero brackets and pairing
    entries as integer numerators over L_c L_p, the common denominators of
    the structure constants and of the pairing (L = 1 over Q(vars)), and
    divided once per key."""
    Lc, cnum = common_denominator([c for _, comps in g.pairs() for c in comps.values()])
    Lp, pnum = common_denominator([v for row in rows for v in row.values()])
    nums = [{k: pnum(v) for k, v in row.items()} for row in rows]
    acc: Dict[Tuple[int, int, int], Scalar] = {}
    # [x_a, x_b] = sum_m c x_m for a < b enters with both orders of (a, b),
    # as [x_i, x_j] at (a, b, k) and as [x_i, x_k] at (a, k, b); the
    # pairing is symmetric, so row m of it serves both slots
    for (a, b), comps in g.pairs():
        for m, c in comps.items():
            c = cnum(c)
            for k, v in nums[m].items():
                x = c * v
                add_term(acc, (a, b, k), x)
                add_term(acc, (b, a, k), -x)
                add_term(acc, (a, k, b), x)
                add_term(acc, (b, k, a), -x)
    return over(acc, Lc * Lp)


class ManinPair(NamedTuple):
    quad: QuadraticLieAlgebra
    g_indices: Tuple[int, ...]


class ManinPairReport(NamedTuple):
    is_subalgebra: bool
    isotropic: bool
    half_dimensional: bool
    # the least pair whose bracket leaves the subspace, or else the least
    # pair of it with a nonzero pairing, by labels
    witness: Optional[Tuple[str, str]] = None

    @property
    def passed(self) -> bool:
        return self.is_subalgebra and self.isotropic and self.half_dimensional


def manin_pair_check(pair: ManinPair) -> ManinPairReport:
    d = pair.quad
    g = d.lie
    idx = set(pair.g_indices)
    escaping = [(i, j) for (i, j), comps in g.pairs() if i in idx and j in idx and not comps.keys() <= idx]
    paired = [(i, j) for i in idx for j in d.pairing[i] if j in idx]
    witness = min(escaping or paired, default=None)
    half = 2 * len(pair.g_indices) == g.dim
    return ManinPairReport(not escaping, not paired, half, witness and tuple(g.basis[k] for k in witness))


class ManinTriple(NamedTuple):
    quad: QuadraticLieAlgebra
    g_indices: Tuple[int, ...]
    gstar_indices: Tuple[int, ...]


class ManinTripleReport(NamedTuple):
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
    constants: Dict[Tuple[int, int, int], Scalar],
    pairing: Dict[Tuple[int, int], Fraction],
) -> Tuple[LieAlgebra, List[Vector]]:
    """The Lie algebra and the pairing on new basis vectors, given as sparse
    old coordinates, from the old structure constants c^k_ij (i < j) and
    pairing entries: one change of basis each (`linalg.change_basis`)."""
    dim = len(vectors)
    rows: List[Vector] = [{} for _ in range(dim)]  # the rows of T, T_ia = vectors[a][i]
    for a, v in enumerate(vectors):
        for i, x in v.items():
            rows[i][a] = x
    brackets: Dict[Tuple[int, int], Vector] = {}
    new_constants = linalg.change_basis(constants, "llu", vectors, linalg.invert(rows), alternating=True)
    for (a, b, c), x in sorted(new_constants.items()):
        brackets.setdefault((a, b), {})[c] = x
    new_pairing: List[Vector] = [{} for _ in range(dim)]
    for (a, b), x in linalg.change_basis(pairing, "ll", vectors).items():
        new_pairing[a][b] = x
    return LieAlgebra(name, labels, brackets), new_pairing


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
    n = g.dim
    constants = {
        (o + i, o + j, o + k): c for (i, j), comps in g.pairs() for k, c in comps.items() for o in (0, n)
    }
    pairing = {
        (o + i, o + j): sign * x
        for i, row in enumerate(trace_pairing(g))
        for j, x in row.items()
        for o, sign in ((0, 1), (n, -1))
    }
    diag: List[Vector] = [{i: Fraction(1), n + i: Fraction(1)} for i in range(n)]
    labels: List[str] = list(g.basis)
    span: List[Vector] = [{i: Fraction(1)} for i in g.extra["positive"]]
    span += [{n + i: Fraction(1)} for i in g.extra["negative"]]
    span += [{i: Fraction(1), n + i: Fraction(-1)} for i in g.extra["cartan"]]
    # normalize the dual basis against the diagonal: <xi^i, diag_j> = delta_ij,
    # so the Gram matrix of the triple is the identity; the Gram block
    # <span_k, diag_j> is the pairing on the basis (diag, span)
    gram: List[Vector] = [{} for _ in range(n)]
    for (a, j), x in linalg.change_basis(pairing, "ll", diag + span).items():
        if a >= n > j:
            gram[a - n][j] = x
    vectors = list(diag)
    for i, row in enumerate(linalg.invert(gram)):
        vectors.append(combine((p, c * v) for k, c in row.items() for p, v in span[k].items()))
        labels.append(g.basis[i] + "*")
    lie, new_pairing = _rebase(f"double({g.name})", labels, vectors, constants, pairing)
    quad = QuadraticLieAlgebra(lie, new_pairing)
    return ManinTriple(quad, tuple(range(n)), tuple(range(n, 2 * n)))


# ---------------------------------------------------------------------------
# triples <-> Lie bialgebras
# ---------------------------------------------------------------------------

def triple_to_bialgebra(t: ManinTriple) -> QuasiLieBialgebra:
    """The Lie bialgebra on g with cobracket dual to the bracket of g*, for
    a triple that passes `manin_triple_check` (the caller's to check).

    g is Lagrangian in d, so it is coisotropic for the Casimir c =
    pairing^-1, and the structure induced on g along g* is the bialgebra of
    the triple: c has no g (x) g part, so phi = 0, and delta is the
    transpose of the bracket of g*."""
    split = split_subalgebra(t.quad.lie, t.g_indices, t.gstar_indices)
    return induce_from_coisotropic(split, casimir_of(t.quad.lie, t.quad.pairing))


def drinfeld_double(b: QuasiLieBialgebra) -> ManinTriple:
    """d = g + g* with the canonical pairing; Jacobi of the double is the
    operational test that the input was a Lie bialgebra."""
    if not b.phi.is_zero():
        raise InputError("the double is defined for Lie bialgebras (phi = 0)")
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
    pairing = [{n + i: Fraction(1)} for i in range(n)] + [{i: Fraction(1)} for i in range(n)]
    quad = QuadraticLieAlgebra(lie, pairing)
    return ManinTriple(quad, tuple(range(n)), tuple(range(n, 2 * n)))
