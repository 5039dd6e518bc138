"""Lie algebras by structure constants: split subalgebras, the factories
and the Casimir of an invariant pairing.

Their Chevalley-Eilenberg cochains are `tensors.CECochain`; a Casimir c
in Sym^2 g (`casimir_of`) is the degree-0 cochain valued in SYM(2).
Everything that applies the differential lives in `polyvectors`, where d
is `PolyVectorAlgebra.d` on the slice that holds the cochain:
`check_lie`, which reads the Jacobi identity off d^2 = 0,
`ce_differential`, `cohomology_dim` and `invariants`, the kernel of d on
C^0 (with the ledger's convention ``(d x)(xi) = [x, xi]`` on degree 0 it
is literally the space of invariants).  Antisymmetry needs no check:
a table holds [e_i, e_j] for i < j only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError
from .scalars import Scalar, is_zero
from .tensors import CECochain, SYM

BracketTable = Dict[Tuple[int, int], Dict[int, Scalar]]

class LieAlgebra:
    """Finite-dimensional Lie algebra over an exact scalar field."""

    def __init__(
        self,
        name: str,
        basis: Sequence[str],
        brackets: BracketTable,
        extra: Optional[dict] = None,
    ):
        self.name = name
        self.basis = tuple(basis)
        if len(set(self.basis)) != len(self.basis):
            raise InputError("duplicate basis labels")
        self.dim = len(self.basis)
        table: BracketTable = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise InputError("bracket indices out of range")
            if i >= j:
                raise InputError("brackets must be given for i < j only")
            row = {k: c for k, c in comps.items() if not is_zero(c)}
            for k in row:
                if not 0 <= k < self.dim:
                    raise InputError("bracket component index out of range")
            if row:
                table[(i, j)] = row
        self._table = table
        self.extra = dict(extra or {})

    def index(self, label: str) -> int:
        try:
            return self.basis.index(label)
        except ValueError:
            raise InputError(f"unknown basis label {label!r} in {self.name}") from None

    def bracket(self, i: int, j: int) -> Dict[int, Scalar]:
        """Components of [e_i, e_j] for any index order."""
        if i == j:
            return {}
        if i < j:
            return dict(self._table.get((i, j), {}))
        return {k: -c for k, c in self._table.get((j, i), {}).items()}

    def same_structure(self, other: "LieAlgebra") -> bool:
        """Same basis labels and identical structure constants: the tables
        hold the nonzero constants only, so this is table equality."""
        return self is other or (self.basis == other.basis and self._table == other._table)

    def pairs(self):
        return self._table.items()

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name}, dim={self.dim})"


# ---------------------------------------------------------------------------
# split subalgebras
# ---------------------------------------------------------------------------

class SplitSubalgebra:
    """Subalgebra h with a chosen vector-space complement m inside g.

    The blocks are the h components of the brackets in the basis split:
    [e_i, e_j] = f^k_ij e_k, [e_i, e~_j] = A^k_ij e_k + (m part) and
    [e~_i, e~_j] = C^k_ij e_k + (m part), with f the structure constants of
    h itself.  The m parts are not kept: what reads them (the invariance
    of a Casimir) takes d on g itself.  All block indices are local
    (positions inside h_indices / m_indices); hpos and mpos map a global
    index of h or of m to its local one.
    """

    def __init__(self, g: LieAlgebra, h_indices: Sequence[int], m_indices: Sequence[int]):
        self.g = g
        self.h_indices = tuple(h_indices)
        self.m_indices = tuple(m_indices)
        if sorted(self.h_indices + self.m_indices) != list(range(g.dim)):
            raise InputError("h and m indices must partition the basis")
        self.hpos = hpos = {v: i for i, v in enumerate(self.h_indices)}
        self.mpos = mpos = {v: i for i, v in enumerate(self.m_indices)}
        blocks: Dict[str, BracketTable] = {name: {} for name in "fAC"}

        def put(name, a, b, row, mirrored):
            if row:
                blocks[name][(a, b)] = row
                if mirrored:
                    blocks[name][(b, a)] = {k: -c for k, c in row.items()}

        escapes = []
        for (i, j), comps in g.pairs():
            if i not in hpos and j in hpos:  # [e~_a, e_b] enters A as -[e_b, e~_a]
                i, j, comps = j, i, {k: -c for k, c in comps.items()}
            hrow = {hpos[k]: c for k, c in comps.items() if k in hpos}
            if i in hpos and j in hpos:
                if len(hrow) < len(comps):
                    escapes.append(tuple(sorted((hpos[i], hpos[j]))))
                put("f", hpos[i], hpos[j], hrow, True)
            elif i in hpos:
                put("A", hpos[i], mpos[j], hrow, False)
            else:
                put("C", mpos[i], mpos[j], hrow, True)
        if escapes:
            # the pair a scan over (a, b) in h would meet first
            i, j = (self.h_indices[a] for a in min(escapes))
            raise InputError(
                f"h is not a subalgebra: [{g.basis[i]}, {g.basis[j]}] has a complement component"
            )
        # keyed in the order of that scan
        self.f, self.A, self.C = (dict(sorted(blocks[x].items())) for x in "fAC")

    @property
    def dim_h(self) -> int:
        return len(self.h_indices)

    def h_algebra(self) -> LieAlgebra:
        brackets: BracketTable = {}
        for (a, b), comps in self.f.items():
            if a < b:
                brackets[(a, b)] = dict(comps)
        labels = [self.g.basis[i] for i in self.h_indices]
        return LieAlgebra(f"{self.g.name}|{'+'.join(labels)}", labels, brackets)


def split_subalgebra(
    g: LieAlgebra, h_indices: Sequence[int], m_indices: Optional[Sequence[int]] = None
) -> SplitSubalgebra:
    h_indices = tuple(h_indices)
    if m_indices is None:
        m_indices = tuple(i for i in range(g.dim) if i not in set(h_indices))
    return SplitSubalgebra(g, h_indices, tuple(m_indices))


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(f"abelian{n}", [f"x{i+1}" for i in range(n)], {})


def heisenberg(dim: int = 3) -> LieAlgebra:
    """Heisenberg algebra of odd dimension 2k + 1 with [p_i, q_i] = z."""
    if dim < 3 or dim % 2 == 0:
        raise InputError("Heisenberg algebras have odd dimension >= 3")
    k = (dim - 1) // 2
    if k == 1:
        labels = ["p", "q", "z"]
    else:
        labels = [f"p{i+1}" for i in range(k)] + [f"q{i+1}" for i in range(k)] + ["z"]
    brackets = {(i, k + i): {2 * k: Fraction(1)} for i in range(k)}
    return LieAlgebra(f"heisenberg{dim}", labels, brackets)


def sl(n: int) -> LieAlgebra:
    """sl(n) on its Chevalley basis of matrix units.

    The basis is h_i = E_ii - E_(i+1)(i+1) for i < n, then the positive
    root vectors E_ij (i < j) by height and then by row, then the negative
    ones E_ji in the same order.  A root vector is labelled by the simple
    roots that sum to its root: E_12 is e1, E_13 is e12 and E_31 is f12
    (one digit per simple root, so 2 <= n <= 9).  Brackets are read off
    the indices: [h, E_rc] = (d_r - d_c) E_rc for the diagonal d of h, and
    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj, where a traceless
    diagonal such as E_ii - E_jj is sum_t (d_1 + ... + d_t) h_t.  `extra`
    holds the trace form as sparse rows, tr(E_ij E_kl) = delta_jk delta_li
    with tr(h_s h_t) = 2, -1 or 0 as |s - t| is 0, 1 or more, and the
    Cartan and Borel indices.
    """
    if not 2 <= n <= 9:
        raise InputError("sl(n) is built for 2 <= n <= 9")
    rank = n - 1
    roots = sorted(combinations(range(n), 2), key=lambda ij: (ij[1] - ij[0], ij[0]))
    names = ["".join(str(s + 1) for s in range(i, j)) for i, j in roots]
    labels = [f"h{i + 1}" for i in range(rank)] + ["e" + x for x in names] + ["f" + x for x in names]
    units = [*roots, *((j, i) for i, j in roots)]  # (row, column) of basis vector rank + t
    position = {rc: rank + t for t, rc in enumerate(units)}

    brackets: BracketTable = {}
    for a, b in combinations(range(len(labels)), 2):
        if b < rank:
            continue  # [h, h] = 0
        r, c = units[b - rank]
        if a < rank:
            # the diagonal of h_a is d = e_a - e_(a+1)
            coef = (r == a) - (r == a + 1) - (c == a) + (c == a + 1)
            if coef:
                brackets[(a, b)] = {b: Fraction(coef)}
            continue
        i, j = units[a - rank]
        if j == r and c == i:  # E_ii - E_jj
            sign = Fraction(1 if i < j else -1)
            brackets[(a, b)] = {t: sign for t in range(min(i, j), max(i, j))}
        elif j == r:
            brackets[(a, b)] = {position[(i, c)]: Fraction(1)}
        elif c == i:
            brackets[(a, b)] = {position[(r, j)]: Fraction(-1)}
    g = LieAlgebra(f"sl{n}", labels, brackets)
    trace = [
        {t: Fraction(2 if t == s else -1) for t in range(max(s - 1, 0), min(s + 2, rank))} for s in range(rank)
    ]
    trace += [{position[(j, i)]: Fraction(1)} for i, j in units]
    g.extra.update(
        {
            "type": "sl",
            "rank": rank,
            "pairing": trace,
            "cartan": list(range(rank)),
            "positive": list(range(rank, rank + len(roots))),
            "negative": list(range(rank + len(roots), len(labels))),
        }
    )
    return g


def sl2() -> LieAlgebra:
    """sl(2) on the basis (e, f, h): [e, f] = h, [h, e] = 2e, [h, f] = -2f."""
    g = sl(2)
    order = (1, 2, 0)  # e1, f1, h1
    pos = {old: new for new, old in enumerate(order)}
    brackets: BracketTable = {}
    for (i, j), comps in g.pairs():
        sign = 1 if pos[i] < pos[j] else -1
        brackets[tuple(sorted((pos[i], pos[j])))] = {pos[k]: sign * c for k, c in comps.items()}
    view = LieAlgebra("sl2", ["e", "f", "h"], dict(sorted(brackets.items())))
    view.extra.update(g.extra)
    view.extra["pairing"] = [{pos[j]: x for j, x in g.extra["pairing"][i].items()} for i in order]
    for key in ("cartan", "positive", "negative"):
        view.extra[key] = [pos[i] for i in g.extra[key]]
    return view


def sl3() -> LieAlgebra:
    """sl(3) on (h1, h2, e1, e2, e12, f1, f2, f12); see `sl`."""
    return sl(3)


def direct_sum(g1: LieAlgebra, g2: LieAlgebra, name: Optional[str] = None) -> LieAlgebra:
    labels = [f"{l}.1" for l in g1.basis] + [f"{l}.2" for l in g2.basis]
    brackets: BracketTable = {}
    for (i, j), comps in g1.pairs():
        brackets[(i, j)] = dict(comps)
    off = g1.dim
    for (i, j), comps in g2.pairs():
        brackets[(i + off, j + off)] = {k + off: c for k, c in comps.items()}
    return LieAlgebra(name or f"{g1.name}(+){g2.name}", labels, brackets)


def trace_pairing(g: LieAlgebra) -> List[Dict[int, Fraction]]:
    """The stored invariant pairing, as sparse rows {column: entry}."""
    pairing = g.extra.get("pairing")
    if pairing is None:
        raise InputError(f"{g.name} carries no pairing data")
    return [{j: Fraction(x) for j, x in row.items()} for row in pairing]


def casimir_of(g: LieAlgebra, pairing: Sequence[Mapping[int, Fraction]]) -> CECochain:
    """The inverse of a nondegenerate symmetric pairing on g, given by its
    sparse rows, as an element of Sym^2 g: the degree-0 cochain valued in
    SYM(2)."""
    inv = linalg.invert(pairing)
    entries = [(((), (i, j)), x) for i, row in enumerate(inv) for j, x in row.items() if i <= j]
    return CECochain.build(g, 0, SYM(2), entries)


def casimir_from_pairing(g: LieAlgebra) -> CECochain:
    """Inverse of the stored invariant pairing, as an element of Sym^2(g)."""
    return casimir_of(g, trace_pairing(g))
