"""Lie algebras by structure constants and their Chevalley-Eilenberg complexes.

The differential follows the convention pinned in the ledger:
``(d x)(xi) = [x, xi]`` on degree-0 cochains, i.e. the negative of the
classical alternating-sum formula.  With this choice the kernel of d on
C^0 is literally the space of invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError
from .scalars import Scalar, is_zero
from .tensors import Multivector, SparseTensor, Signature, SlotGroup, UP, DOWN, _sort_with_sign

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

    def structure_constant(self, i: int, j: int, k: int) -> Scalar:
        return self.bracket(i, j).get(k, Fraction(0))

    def bracket_vectors(self, x: Dict[int, Scalar], y: Dict[int, Scalar]) -> Dict[int, Scalar]:
        out: Dict[int, Scalar] = {}
        for i, xi in x.items():
            for j, yj in y.items():
                for k, c in self.bracket(i, j).items():
                    v = out.get(k, Fraction(0)) + xi * yj * c
                    if is_zero(v):
                        out.pop(k, None)
                    else:
                        out[k] = v
        return out

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
        acc: Dict[int, Scalar] = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            inner = g.bracket(a, b)
            for m, coef in inner.items():
                for l, coef2 in g.bracket(m, c).items():
                    v = acc.get(l, Fraction(0)) + coef * coef2
                    if is_zero(v):
                        acc.pop(l, None)
                    else:
                        acc[l] = v
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

def module_basis(g: LieAlgebra, module) -> List[tuple]:
    kind = module[0]
    if kind == "triv":
        return [()]
    if kind == "adjoint":
        return [(i,) for i in range(g.dim)]
    if kind == "wedge":
        return [tuple(c) for c in combinations(range(g.dim), module[1])]
    if kind == "sym":
        p = module[1]

        def weak(start, left):
            if left == 0:
                yield ()
                return
            for i in range(start, g.dim):
                for rest in weak(i, left - 1):
                    yield (i,) + rest

        return list(weak(0, p))
    if kind == "tensor":
        p = module[1]
        out = [()]
        for _ in range(p):
            out = [t + (i,) for t in out for i in range(g.dim)]
        return out
    raise InputError(f"unsupported module {module!r}")


def module_action(g: LieAlgebra, xi: int, module, key: tuple) -> Dict[tuple, Scalar]:
    """ad(xi) acting on a module basis element, as a coefficient dict."""
    kind = module[0]
    if kind == "triv":
        return {}
    out: Dict[tuple, Scalar] = {}

    def add(k: tuple, c: Scalar):
        v = out.get(k, Fraction(0)) + c
        if is_zero(v):
            out.pop(k, None)
        else:
            out[k] = v

    if kind == "adjoint":
        for m, c in g.bracket(xi, key[0]).items():
            add((m,), c)
        return out
    def multiplicity_factorial(t: tuple) -> int:
        out_ = 1
        for v in set(t):
            m_ = t.count(v)
            for r in range(2, m_ + 1):
                out_ *= r
        return out_

    for slot in range(len(key)):
        for m, c in g.bracket(xi, key[slot]).items():
            new = list(key)
            new[slot] = m
            if kind == "wedge":
                sign = 1
                arranged = []
                ok = True
                for v in new:
                    pos = len(arranged)
                    while pos > 0 and arranged[pos - 1] > v:
                        pos -= 1
                        sign = -sign
                    if pos > 0 and arranged[pos - 1] == v:
                        ok = False
                        break
                    arranged.insert(pos, v)
                if ok:
                    add(tuple(arranged), sign * c)
            elif kind == "sym":
                # keys are orbit sums over distinct permutations, so slot
                # replacement carries the multiplicity correction
                tgt = tuple(sorted(new))
                factor = Fraction(multiplicity_factorial(tgt), multiplicity_factorial(key))
                add(tgt, factor * c)
            elif kind == "tensor":
                add(tuple(new), c)
            else:
                raise InputError(f"unsupported module {module!r}")
    return out


def _module_signature(g: LieAlgebra, module) -> List[SlotGroup]:
    kind = module[0]
    if kind == "triv":
        return []
    if kind == "adjoint":
        return [("none", 1)]
    if kind == "wedge":
        return [("anti", module[1])]
    if kind == "sym":
        return [("sym", module[1])]
    if kind == "tensor":
        return [("none", 1)] * module[1]
    raise InputError(f"unsupported module {module!r}")


KNOWN_MODULES = ("triv", "adjoint", "wedge", "sym", "tensor")


class CECochain:
    """Element of C^k(g, M): k antisymmetric dual slots plus module slots."""

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
                if not is_zero(coef):
                    clean[(down, up)] = coef
        self.data = clean

    @classmethod
    def build(cls, g, k, module, entries) -> "CECochain":
        acc: Dict[Tuple[tuple, tuple], Scalar] = {}
        for (down, up), coef in entries:
            if is_zero(coef):
                continue
            res = _sort_with_sign(down)
            if res is None:
                continue
            sgn, dkey = res
            key = (dkey, tuple(up))
            v = acc.get(key, Fraction(0)) + sgn * coef
            if is_zero(v):
                acc.pop(key, None)
            else:
                acc[key] = v
        x = cls.__new__(cls)
        x.g, x.k, x.module, x.data = g, k, module, acc
        return x

    def shape(self):
        return (self.g, self.k, tuple(self.module))

    def compatible(self, other: "CECochain") -> bool:
        return (
            self.k == other.k
            and tuple(self.module) == tuple(other.module)
            and self.g.same_structure(other.g)
        )

    def is_zero(self) -> bool:
        return not self.data

    def support_size(self) -> int:
        return len(self.data)

    def _binary(self, other: "CECochain", flip: int) -> "CECochain":
        if not self.compatible(other):
            raise InputError("cochain shape mismatch")
        return CECochain.build(
            self.g,
            self.k,
            self.module,
            list(self.data.items()) + [(k, flip * v) for k, v in other.data.items()],
        )

    def __add__(self, other):
        return self._binary(other, 1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def scale(self, c: Scalar) -> "CECochain":
        return CECochain.build(self.g, self.k, self.module, [(k, c * v) for k, v in self.data.items()])

    def __neg__(self):
        return self.scale(Fraction(-1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CECochain):
            return NotImplemented
        return self.compatible(other) and (self - other).is_zero()

    def down_index(self) -> Dict[tuple, Dict[tuple, Scalar]]:
        out: Dict[tuple, Dict[tuple, Scalar]] = {}
        for (down, up), coef in self.data.items():
            out.setdefault(down, {})[up] = coef
        return out

    def to_sparse_tensor(self) -> SparseTensor:
        groups: List[SlotGroup] = []
        variances = [DOWN] * self.k
        pos = self.k
        if self.k:
            groups.append(SlotGroup("anti", tuple(range(self.k))))
        for kind, width in _module_signature(self.g, self.module):
            variances.extend([UP] * width)
            groups.append(SlotGroup(kind, tuple(range(pos, pos + width))))
            pos += width
        sig = Signature(self.g.dim, variances, groups)
        return SparseTensor.build(
            sig, [(down + up, coef) for (down, up), coef in self.data.items()]
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.data.items()))
        return f"CECochain(k={self.k}, module={self.module}, {{{inner}}})"


def multivector_to_cochain(g: LieAlgebra, mv: Multivector) -> CECochain:
    return CECochain(g, 0, WEDGE(mv.p), {((), key): c for key, c in mv.data.items()})


def cochain_to_multivector(x: CECochain) -> Multivector:
    if x.k != 0 or x.module[0] != "wedge":
        raise InputError("cochain is not a plain multivector")
    return Multivector(x.g.dim, x.module[1], {up: c for (_, up), c in x.data.items()})


def ce_differential(x: CECochain) -> CECochain:
    """Degree k -> k+1 differential in the ledger sign convention."""
    g, k, module = x.g, x.k, x.module
    by_down = x.down_index()
    entries = []
    for down in combinations(range(g.dim), k + 1):
        # action terms: -sum_s (-1)^s xi_s . x(rest)
        for s in range(k + 1):
            rest = down[:s] + down[s + 1 :]
            vals = by_down.get(rest)
            if not vals:
                continue
            sgn = -((-1) ** s)
            for up, coef in vals.items():
                for up2, c2 in module_action(g, down[s], module, up).items():
                    entries.append(((down, up2), sgn * coef * c2))
        # bracket terms: -sum_{s<t} (-1)^{s+t} x([xi_s, xi_t], rest)
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = tuple(v for i, v in enumerate(down) if i not in (s, t))
                sgn = -((-1) ** (s + t))
                for m, c in g.bracket(down[s], down[t]).items():
                    if m in rest:
                        continue
                    # x(e_m, rest) with e_m inserted in front, then sorted
                    res = _sort_with_sign((m,) + rest)
                    if res is None:
                        continue
                    psgn, dkey = res
                    vals = by_down.get(dkey)
                    if not vals:
                        continue
                    for up, coef in vals.items():
                        entries.append(((down, up), sgn * c * psgn * coef))
    return CECochain.build(g, k + 1, module, entries)


def invariants(g: LieAlgebra, module) -> List[CECochain]:
    """Exact basis of ker(d restricted to C^0) = module invariants."""
    keys = module_basis(g, module)
    key_pos = {key: i for i, key in enumerate(keys)}
    rows = []
    for xi in range(g.dim):
        images: Dict[tuple, Dict[tuple, Scalar]] = {}
        for key in keys:
            images[key] = module_action(g, xi, module, key)
        out_keys = sorted({k for img in images.values() for k in img})
        for ok in out_keys:
            rows.append([Fraction(images[key].get(ok, 0)) for key in keys])
    basis = linalg.nullspace(rows, n_cols=len(keys))
    out = []
    for vec in basis:
        data = {((), keys[i]): c for i, c in enumerate(vec) if c}
        out.append(CECochain(g, 0, module, data))
    return out


def cohomology_dim(g: LieAlgebra, module, degree: int) -> int:
    """dim H^degree via exact ranks of the CE differentials."""

    def cochain_keys(k):
        return [
            (down, up)
            for down in combinations(range(g.dim), k)
            for up in module_basis(g, module)
        ]

    def d_matrix(k):
        src = cochain_keys(k)
        dst = cochain_keys(k + 1)
        dst_pos = {key: i for i, key in enumerate(dst)}
        cols = []
        for down, up in src:
            x = CECochain(g, k, module, {(down, up): Fraction(1)})
            dx = ce_differential(x)
            col: Dict[int, Fraction] = {}
            for key, coef in dx.data.items():
                col[dst_pos[key]] = Fraction(coef)
            cols.append(col)
        return cols, len(dst)

    n_k = len(cochain_keys(degree))
    if n_k == 0:
        return 0
    cols_k, rows_k = d_matrix(degree)
    mat_k = [[cols_k[j].get(i, Fraction(0)) for j in range(n_k)] for i in range(rows_k)]
    rank_k = linalg.rank(mat_k) if rows_k else 0
    dim_ker = n_k - rank_k
    if degree == 0:
        return dim_ker
    n_prev = len(cochain_keys(degree - 1))
    cols_p, rows_p = d_matrix(degree - 1)
    mat_p = [[cols_p[j].get(i, Fraction(0)) for j in range(n_prev)] for i in range(rows_p)]
    rank_p = linalg.rank(mat_p) if n_prev and rows_p else 0
    return dim_ker - rank_p


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
        self.f: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        self.A: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        self.B: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        self.C: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        self.D: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        for a, i in enumerate(self.h_indices):
            for b, j in enumerate(self.h_indices):
                comps = g.bracket(i, j)
                fk = {hpos[k]: c for k, c in comps.items() if k in hpos}
                bad = {k: c for k, c in comps.items() if k in mpos}
                if bad:
                    raise InputError(
                        f"h is not a subalgebra: [{g.basis[i]}, {g.basis[j]}] has a "
                        f"complement component"
                    )
                if fk:
                    self.f[(a, b)] = fk
        for a, i in enumerate(self.h_indices):
            for b, j in enumerate(self.m_indices):
                comps = g.bracket(i, j)
                ak = {hpos[k]: c for k, c in comps.items() if k in hpos}
                bk = {mpos[k]: c for k, c in comps.items() if k in mpos}
                if ak:
                    self.A[(a, b)] = ak
                if bk:
                    self.B[(a, b)] = bk
        for a, i in enumerate(self.m_indices):
            for b, j in enumerate(self.m_indices):
                comps = g.bracket(i, j)
                ck = {hpos[k]: c for k, c in comps.items() if k in hpos}
                dk = {mpos[k]: c for k, c in comps.items() if k in mpos}
                if ck:
                    self.C[(a, b)] = ck
                if dk:
                    self.D[(a, b)] = dk

    @property
    def dim_h(self) -> int:
        return len(self.h_indices)

    @property
    def dim_m(self) -> int:
        return len(self.m_indices)

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

    def reassembled_bracket(self, i: int, j: int) -> Dict[int, Scalar]:
        """Ambient bracket rebuilt from the stored blocks (for validation)."""
        hset = set(self.h_indices)
        out: Dict[int, Scalar] = {}

        def emit(local: Dict[int, Scalar], indices: Tuple[int, ...], sign: int):
            for k, c in local.items():
                key = indices[k]
                v = out.get(key, Fraction(0)) + sign * c
                if is_zero(v):
                    out.pop(key, None)
                else:
                    out[key] = v

        if i in hset and j in hset:
            a, b = self.h_indices.index(i), self.h_indices.index(j)
            emit(self.block("f", a, b), self.h_indices, 1)
        elif i in hset:
            a, b = self.h_indices.index(i), self.m_indices.index(j)
            emit(self.block("A", a, b), self.h_indices, 1)
            emit(self.block("B", a, b), self.m_indices, 1)
        elif j in hset:
            a, b = self.h_indices.index(j), self.m_indices.index(i)
            emit(self.block("A", a, b), self.h_indices, -1)
            emit(self.block("B", a, b), self.m_indices, -1)
        else:
            a, b = self.m_indices.index(i), self.m_indices.index(j)
            emit(self.block("C", a, b), self.h_indices, 1)
            emit(self.block("D", a, b), self.m_indices, 1)
        return out


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


def sl2() -> LieAlgebra:
    # basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f
    brackets = {
        (0, 1): {2: Fraction(1)},
        (0, 2): {0: Fraction(-2)},
        (1, 2): {1: Fraction(2)},
    }
    g = LieAlgebra("sl2", ["e", "f", "h"], brackets)
    g.extra.update(
        {
            "type": "sl",
            "rank": 1,
            "pairing": [
                [Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(2)],
            ],
            "cartan": [2],
            "positive": [0],
            "negative": [1],
        }
    )
    return g


def sl3() -> LieAlgebra:
    """Chevalley basis of sl3 generated from the defining representation."""
    n = 3

    def mat(entries):
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), c in entries:
            m[i][j] += c
        return m

    def mmul(a, b):
        return [
            [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]

    def msub(a, b):
        return [[a[i][j] - b[i][j] for j in range(n)] for i in range(n)]

    labels = ["h1", "h2", "e1", "e2", "e12", "f1", "f2", "f12"]
    reps = {
        "h1": mat([((0, 0), Fraction(1)), ((1, 1), Fraction(-1))]),
        "h2": mat([((1, 1), Fraction(1)), ((2, 2), Fraction(-1))]),
        "e1": mat([((0, 1), Fraction(1))]),
        "e2": mat([((1, 2), Fraction(1))]),
        "e12": mat([((0, 2), Fraction(1))]),
        "f1": mat([((1, 0), Fraction(1))]),
        "f2": mat([((2, 1), Fraction(1))]),
        "f12": mat([((2, 0), Fraction(1))]),
    }
    basis_mats = [reps[l] for l in labels]

    def expand(m):
        # solve for coefficients in the basis (the basis spans traceless matrices)
        coeffs = {}
        rows = []
        rhs = []
        for i in range(n):
            for j in range(n):
                rows.append([basis_mats[b][i][j] for b in range(len(labels))])
                rhs.append(m[i][j])
        sol = linalg.solve(rows, rhs)
        if sol is None:
            raise InputError("matrix outside sl3 span")
        for b, c in enumerate(sol):
            if c:
                coeffs[b] = c
        return coeffs

    brackets: BracketTable = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            comm = msub(mmul(basis_mats[i], basis_mats[j]), mmul(basis_mats[j], basis_mats[i]))
            comps = expand(comm)
            if comps:
                brackets[(i, j)] = comps
    g = LieAlgebra("sl3", labels, brackets)
    pairing = [
        [
            sum((mmul(basis_mats[i], basis_mats[j])[k][k] for k in range(n)), Fraction(0))
            for j in range(len(labels))
        ]
        for i in range(len(labels))
    ]
    g.extra.update(
        {
            "type": "sl",
            "rank": 2,
            "pairing": pairing,
            "cartan": [0, 1],
            "positive": [2, 3, 4],
            "negative": [5, 6, 7],
        }
    )
    return g


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


def casimir_from_pairing(g: LieAlgebra) -> SparseTensor:
    """Inverse of the stored invariant pairing, as an element of Sym^2(g)."""
    inv = linalg.invert(trace_pairing(g))
    sig = Signature(g.dim, [UP, UP], [SlotGroup("sym", (0, 1))])
    entries = []
    for i in range(g.dim):
        for j in range(i, g.dim):
            entries.append(((i, j), inv[i][j]))
    return SparseTensor.build(sig, entries)


def sym2_signature(dim: int) -> Signature:
    return Signature(dim, [UP, UP], [SlotGroup("sym", (0, 1))])
