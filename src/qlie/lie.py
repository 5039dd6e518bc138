"""Lie algebras by structure constants and their Chevalley-Eilenberg cochains.

A cochain in C^k(g, M) is a `CECochain`: k antisymmetric dual slots plus
the slots of a module M built from the adjoint action (TRIVIAL, ADJOINT,
WEDGE(p), SYM(p)).  This module only stores cochains; everything that
applies the differential lives in `polyvectors`, where d is
`PolyVectorAlgebra.d` on the slice that holds the cochain:
`ce_differential`, `cohomology_dim` and `invariants`, the kernel of d on
C^0 (with the ledger's convention ``(d x)(xi) = [x, xi]`` on degree 0 it
is literally the space of invariants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import factorial, prod
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError
from .scalars import Scalar, combine, is_zero, vec_add
from .tensors import (
    SparseTensor,
    SparseVector,
    Signature,
    SlotGroup,
    UP,
    _sort_with_sign,
    canonical_terms,
)

BracketTable = Dict[Tuple[int, int], Dict[int, Scalar]]

# module descriptors for coefficient systems built from the adjoint action
TRIVIAL = ("triv",)
ADJOINT = ("adjoint",)


def WEDGE(p: int):
    return ("wedge", p)


def SYM(p: int):
    return ("sym", p)


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
        """Same basis labels and identical structure constants."""
        if self is other:
            return True
        if self.basis != other.basis:
            return False
        pairs = set(self._table) | set(other._table)
        for (i, j) in pairs:
            mine = self._table.get((i, j), {})
            theirs = other._table.get((i, j), {})
            keys = set(mine) | set(theirs)
            for k in keys:
                a = mine.get(k, Fraction(0))
                b = theirs.get(k, Fraction(0))
                if not is_zero(a - b):
                    return False
        return True

    def bracket_vectors(self, x: Dict[int, Scalar], y: Dict[int, Scalar]) -> Dict[int, Scalar]:
        return combine(
            (k, xi * yj * c)
            for i, xi in x.items()
            for j, yj in y.items()
            for k, c in self.bracket(i, j).items()
        )

    def pairs(self):
        return self._table.items()

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name}, dim={self.dim})"


@dataclass
class LieCheckReport:
    passed: bool
    failure_kind: Optional[str] = None
    witness: Optional[Tuple[str, ...]] = None
    residual: Dict[str, str] = field(default_factory=dict)


def check_lie(g: LieAlgebra) -> LieCheckReport:
    """Exact antisymmetry (structural) plus exhaustive Jacobi scan."""
    for i, j, k in combinations(range(g.dim), 3):
        acc = combine(
            (l, coef * coef2)
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j))
            for m, coef in g.bracket(a, b).items()
            for l, coef2 in g.bracket(m, c).items()
        )
        if acc:
            return LieCheckReport(
                passed=False,
                failure_kind="jacobi",
                witness=(g.basis[i], g.basis[j], g.basis[k]),
                residual={g.basis[l]: str(v) for l, v in sorted(acc.items())},
            )
    return LieCheckReport(passed=True)


# ---------------------------------------------------------------------------
# coefficient modules
# ---------------------------------------------------------------------------

def multiplicity_factorial(key: Sequence[int]) -> int:
    """Product of the factorials of the multiplicities of the entries of key."""
    return prod(factorial(key.count(v)) for v in set(key))


KNOWN_MODULES = ("triv", "adjoint", "wedge", "sym")


def _cochain_canon(module, key) -> Optional[Tuple[int, Tuple[tuple, tuple]]]:
    """The signed canonical form of a (down, up) key of a cochain valued in
    module: the down slots and WEDGE(p) slots sorted with a sign, SYM(p)
    slots sorted; None when a repeated antisymmetric index kills it."""
    down, up = key
    res = _sort_with_sign(down)
    if res is None:
        return None
    sign, down = res
    if module[0] == "wedge":
        res = _sort_with_sign(up)
        if res is None:
            return None
        sign, up = sign * res[0], res[1]
    elif module[0] == "sym":
        up = sorted(up)
    return sign, (down, tuple(up))


class CECochain(SparseVector):
    """Element of C^k(g, M): k antisymmetric dual slots plus module slots."""

    _mismatch = "cochain shape mismatch"

    def __init__(self, g: LieAlgebra, k: int, module, data=None):
        if not module or module[0] not in KNOWN_MODULES:
            raise InputError(f"unsupported module {module!r}")
        self.g = g
        self.k = k
        self.module = module
        clean: Dict[Tuple[tuple, tuple], Scalar] = {}
        if data:
            for (down, up), coef in data.items():
                down, up = tuple(down), tuple(up)
                if len(down) != k or list(down) != sorted(set(down)):
                    raise InputError("down indices must be strictly increasing")
                if _cochain_canon(module, (down, up)) != (1, (down, up)):
                    raise InputError(f"module indices {up} are not canonical for {module}")
                if not is_zero(coef):
                    clean[(down, up)] = coef
        self.data = clean

    @classmethod
    def build(cls, g, k, module, entries) -> "CECochain":
        return cls(g, k, module)._from_terms(canonical_terms(partial(_cochain_canon, module), entries))

    def _from_terms(self, terms) -> "CECochain":
        x = CECochain.__new__(CECochain)
        x.g, x.k, x.module, x.data = self.g, self.k, self.module, combine(terms)
        return x

    def same_shape(self, other: "CECochain") -> bool:
        return (
            self.k == other.k
            and tuple(self.module) == tuple(other.module)
            and self.g.same_structure(other.g)
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.data.items()))
        return f"CECochain(k={self.k}, module={self.module}, {{{inner}}})"


# ---------------------------------------------------------------------------
# split subalgebras
# ---------------------------------------------------------------------------

class SplitSubalgebra:
    """Subalgebra h with a chosen vector-space complement m inside g.

    Blocks follow the basis split: [e_i, e~_j] = A^k_ij e_k + B^k_ij e~_k
    and [e~_i, e~_j] = C^k_ij e_k + D^k_ij e~_k, with f the structure
    constants of h itself.  All block indices are local (positions inside
    h_indices / m_indices).
    """

    def __init__(self, g: LieAlgebra, h_indices: Sequence[int], m_indices: Sequence[int]):
        self.g = g
        self.h_indices = tuple(h_indices)
        self.m_indices = tuple(m_indices)
        if sorted(self.h_indices + self.m_indices) != list(range(g.dim)):
            raise InputError("h and m indices must partition the basis")
        hpos = {v: i for i, v in enumerate(self.h_indices)}
        mpos = {v: i for i, v in enumerate(self.m_indices)}
        blocks: Dict[str, BracketTable] = {name: {} for name in "fABCD"}

        def put(name, a, b, row, mirrored):
            if row:
                blocks[name][(a, b)] = row
                if mirrored:
                    blocks[name][(b, a)] = {k: -c for k, c in row.items()}

        escapes = []
        for (i, j), comps in g.pairs():
            if i not in hpos and j in hpos:  # [e~_a, e_b] enters A and B as -[e_b, e~_a]
                i, j, comps = j, i, {k: -c for k, c in comps.items()}
            hrow = {hpos[k]: c for k, c in comps.items() if k in hpos}
            mrow = {mpos[k]: c for k, c in comps.items() if k in mpos}
            if i in hpos and j in hpos:
                if mrow:
                    escapes.append(tuple(sorted((hpos[i], hpos[j]))))
                put("f", hpos[i], hpos[j], hrow, True)
            elif i in hpos:
                put("A", hpos[i], mpos[j], hrow, False)
                put("B", hpos[i], mpos[j], mrow, False)
            else:
                put("C", mpos[i], mpos[j], hrow, True)
                put("D", mpos[i], mpos[j], mrow, True)
        if escapes:
            # the pair a scan over (a, b) in h would meet first
            i, j = (self.h_indices[a] for a in min(escapes))
            raise InputError(
                f"h is not a subalgebra: [{g.basis[i]}, {g.basis[j]}] has a complement component"
            )
        # keyed in the order of that scan
        self.f, self.A, self.B, self.C, self.D = (dict(sorted(blocks[x].items())) for x in "fABCD")

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

    def block(self, name: str, a: int, b: int) -> Dict[int, Scalar]:
        table = getattr(self, name)
        return dict(table.get((a, b), {}))


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
    (one digit per simple root, so 2 <= n <= 9).  Brackets are the
    commutators [E_ij, E_kl] = delta_jk E_il - delta_li E_kj expanded back
    into the basis, where a traceless diagonal d is sum_i (d_1 + ... + d_i)
    h_i; `extra` holds the trace form and the Cartan and Borel indices.
    """
    if not 2 <= n <= 9:
        raise InputError("sl(n) is built for 2 <= n <= 9")
    roots = sorted(combinations(range(n), 2), key=lambda ij: (ij[1] - ij[0], ij[0]))
    names = ["".join(str(s + 1) for s in range(i, j)) for i, j in roots]
    labels = [f"h{i + 1}" for i in range(n - 1)] + ["e" + x for x in names] + ["f" + x for x in names]
    units = [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
    units += [{(i, j): 1} for i, j in roots] + [{(j, i): 1} for i, j in roots]
    position = {rc: n - 1 + t for t, rc in enumerate([*roots, *((j, i) for i, j in roots)])}

    def product(x, y):
        return combine(((r, c), u * v) for (r, s), u in x.items() for (s2, c), v in y.items() if s == s2)

    def expand(m) -> Dict[int, Scalar]:
        comps = {position[rc]: Fraction(v) for rc, v in m.items() if rc[0] != rc[1]}
        running = 0
        for i in range(n - 1):
            running += m.get((i, i), 0)
            if running:
                comps[i] = Fraction(running)
        return dict(sorted(comps.items()))

    brackets: BracketTable = {}
    for a, b in combinations(range(len(units)), 2):
        comps = expand(vec_add(product(units[a], units[b]), product(units[b], units[a]), -1))
        if comps:
            brackets[(a, b)] = comps
    g = LieAlgebra(f"sl{n}", labels, brackets)
    trace = [
        [Fraction(sum(v for (r, c), v in product(x, y).items() if r == c)) for y in units]
        for x in units
    ]
    g.extra.update(
        {
            "type": "sl",
            "rank": n - 1,
            "pairing": trace,
            "cartan": list(range(n - 1)),
            "positive": list(range(n - 1, n - 1 + len(roots))),
            "negative": list(range(n - 1 + len(roots), len(units))),
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
    view.extra["pairing"] = [[g.extra["pairing"][i][j] for j in order] for i in order]
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


def trace_pairing(g: LieAlgebra) -> List[List[Fraction]]:
    pairing = g.extra.get("pairing")
    if pairing is None:
        raise InputError(f"{g.name} carries no pairing data")
    return [[Fraction(x) for x in row] for row in pairing]


def casimir_of(pairing: Sequence[Sequence[Fraction]]) -> SparseTensor:
    """The inverse of a nondegenerate symmetric pairing, as an element of Sym^2."""
    inv = linalg.invert(pairing)
    entries = [((i, j), x) for i, row in enumerate(inv) for j, x in row.items() if i <= j]
    return SparseTensor.build(sym2_signature(len(pairing)), entries)


def casimir_from_pairing(g: LieAlgebra) -> SparseTensor:
    """Inverse of the stored invariant pairing, as an element of Sym^2(g)."""
    return casimir_of(trace_pairing(g))


def sym2_signature(dim: int) -> Signature:
    return Signature(dim, [UP, UP], [SlotGroup("sym", (0, 1))])
