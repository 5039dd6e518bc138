"""Polyvector algebras on a classifying-stack model, with the big bracket.

For a Lie algebra g and a shift n in {1, 2} this is the free graded
commutative algebra on dual generators e^i (degree 1, weight 0) and
vector generators e_i (degree n, weight 1); its elements realize
Chevalley-Eilenberg cochains with polyvector coefficients.  The
structure maps are

* the differential, the odd derivation with  d e^i = 1/2 f^i_jk e^j e^k
  and  d e_i = f^k_ij e^j e_k;
* the big bracket, the biderivation of degree -(n+1) generated by the
  pairing <e^i, e_j> = delta^i_j, <e_j, e^i> = +delta^i_j for n = 1 and
  -delta^i_j for n = 2.  It is first order in each argument, so on
  monomials m1 = x_1...x_k and m2 = y_1...y_l it is one sum of single
  contractions,

      [m1, m2] = sum_{p,q} eps_pq <x_p, y_q> x_1..x_{p-1} (m2 without y_q) x_{p+1}..x_k,
      eps_pq = (-1)^(A_p (|m2| + n + 1) + (|x_p| + n + 1) B_q),

  where A_p is the total degree of the generators after x_p in m1 and
  B_q the total degree of the generators before y_q in m2.

Monomials are stored canonically: dual generators first, each block
sorted increasingly.  The Koszul sign of bringing a product into that
order comes from one transposition counter, so the graded symmetry and
Jacobi identities of the bracket are checkable exhaustively (and are, in
the tests).

The differential d is the library's one Chevalley-Eilenberg differential.
A cochain valued in TRIVIAL, ADJOINT or WEDGE(p) is the slice of
polyvector weight 0, 1 or p at shift 1; one valued in SYM(p) is the
weight-p slice at shift 2.  `ce_differential`, `cohomology_dim` and
`invariants` work through that embedding: the first encodes, applies d
and decodes; the other two take d of each unit cochain of a slice as one
column, and read off its rank or, on C^0, its kernel.

Those two build only the weight-0 block of the slice.  The basis
elements e_h whose ad is diagonal in the basis, [e_h, e_j] = w_h(j) e_j,
commute with each other and give every basis element e_j a weight w(j);
a key (cov, vec) has the weight sum w(vec) - sum w(cov), and d keeps it,
so the complex is the direct sum of its weight blocks.  On C^*(g, M) the
Lie derivative L_h = d i_h + i_h d (Cartan's formula, i_h the contraction
with e_h, which keeps weights since w(h) = 0) acts on the block of weight
lambda as lambda_h, so a block with lambda_h != 0 is acyclic and, on C^0,
d is injective on it (Chevalley-Eilenberg, Trans. AMS 63, 1948;
Hochschild-Serre, Ann. Math. 57, 1953).  Cohomology and invariants are
those of the weight-0 block, and since the matrix of d is block diagonal,
its weight-0 block has the same pivot and free columns as the whole: the
invariants come out with the same normalization, entry for entry.  When
no such e_h acts by a nonzero weight (abelian or Heisenberg algebras),
every key has weight 0 and the block is the whole slice.

Multivectors and Casimirs are degree-0 cochains too: `from_cochain` puts
a p-multivector, the WEDGE(p) cochain, on the weight-p slice at shift 1
and a Casimir c in Sym^2 g, the SYM(2) cochain, on the weight-2 slice at
shift 2, and `to_cochain(a, 0, p)` reads either back.  The exterior
product of multivectors is `mul` at shift 1.

The Schouten bracket of multivectors is the derived bracket
[[a, b]] = -[a, d b] at shift 1 (the ledger's schouten_convention);
`qlb.twist` and `rmatrix` compute it that way, from `d` and `bracket`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError
from .lie import LieAlgebra
from .scalars import Scalar, combine
from .tensors import CECochain, SYM, WEDGE, multiplicity_factorial

# generator = (kind, index) with kind 0 for e^i (dual), 1 for e_i (vector)
Gen = Tuple[int, int]
Mono = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (dual indices, vector indices)
Element = Dict[Mono, Scalar]


class PolyVectorAlgebra:
    """C^*(g, Sym(g[-n])) with product, differential and big bracket."""

    def __init__(self, g: LieAlgebra, shift: int):
        if shift not in (1, 2):
            raise InputError("shift must be 1 or 2")
        self.g = g
        self.n = shift
        self.vec_parity = shift % 2
        # generator images from the nonzero brackets [e_j, e_k] = c e_i, j < k;
        # in sorted pair order each _d_vec row comes out sorted by j
        self._d_cov: List[Element] = [{} for _ in range(g.dim)]
        self._d_vec: List[Element] = [{} for _ in range(g.dim)]
        for (j, k), comps in sorted(g.pairs()):
            for i, c in comps.items():
                self._d_cov[i][((j, k), ())] = c
                self._d_vec[j][((k,), (i,))] = c
                self._d_vec[k][((j,), (i,))] = -c

    # -- monomial bookkeeping ------------------------------------------------

    def gen_parity(self, gen: Gen) -> int:
        return 1 if gen[0] == 0 else self.vec_parity

    def mono_degree(self, mono: Mono) -> int:
        return len(mono[0]) + self.n * len(mono[1])

    @staticmethod
    def mono_gens(mono: Mono) -> List[Gen]:
        return [(0, i) for i in mono[0]] + [(1, i) for i in mono[1]]

    def canonicalize(self, gens: Sequence[Gen]) -> Optional[Tuple[int, Mono]]:
        items = list(gens)
        sign = 1
        for i in range(1, len(items)):
            j = i
            while j > 0 and items[j] < items[j - 1]:
                if self.gen_parity(items[j]) and self.gen_parity(items[j - 1]):
                    sign = -sign
                items[j], items[j - 1] = items[j - 1], items[j]
                j -= 1
        for a, b in zip(items, items[1:]):
            if a == b and self.gen_parity(a):
                return None
        cov = tuple(i for kind, i in items if kind == 0)
        vec = tuple(i for kind, i in items if kind == 1)
        return sign, (cov, vec)

    # -- algebra operations ----------------------------------------------------

    def mul_monos(self, m1: Mono, m2: Mono) -> Optional[Tuple[int, Mono]]:
        return self.canonicalize(self.mono_gens(m1) + self.mono_gens(m2))

    def mul(self, a: Element, b: Element) -> Element:
        def terms():
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    res = self.mul_monos(m1, m2)
                    if res is not None:
                        yield res[1], res[0] * c1 * c2

        return combine(terms())

    def d(self, a: Element) -> Element:
        """The differential: the generator images _d_cov/_d_vec extended as an
        odd derivation."""

        def terms():
            for mono, coef in a.items():
                gens = self.mono_gens(mono)
                prefix_parity = 0
                for pos, gen in enumerate(gens):
                    image = self._d_cov[gen[1]] if gen[0] == 0 else self._d_vec[gen[1]]
                    sign = -1 if prefix_parity else 1
                    for imono, icoef in image.items():
                        seq = gens[:pos] + self.mono_gens(imono) + gens[pos + 1 :]
                        res = self.canonicalize(seq)
                        if res is not None:
                            c = coef * icoef
                            yield res[1], c if res[0] == sign else -c
                    prefix_parity ^= self.gen_parity(gen)

        return combine(terms())

    # -- the big bracket -------------------------------------------------------

    def bracket_monos(self, m1: Mono, m2: Mono) -> Element:
        """[m1, m2] as one sum of single contractions (see the module docstring)."""
        if set(m1[0]).isdisjoint(m2[1]) and set(m1[1]).isdisjoint(m2[0]):
            return {}  # no generator of m1 pairs with one of m2
        n, s = self.n, self.n + 1
        gens1, gens2 = self.mono_gens(m1), self.mono_gens(m2)
        k2 = len(m2[0])
        deg2 = self.mono_degree(m2)

        def terms():
            after = self.mono_degree(m1)
            for p, (kind, i) in enumerate(gens1):
                if kind == 0:  # e^i contracts with each e_i of m2
                    dx, pair = 1, 1
                    qs = [k2 + t for t, j in enumerate(m2[1]) if j == i]
                else:  # e_i contracts with the e^i of m2
                    dx, pair = n, 1 if n == 1 else -1
                    qs = [q for q, j in enumerate(m2[0]) if j == i]
                after -= dx
                for q in qs:
                    res = self.canonicalize(gens1[:p] + gens2[:q] + gens2[q + 1 :] + gens1[p + 1 :])
                    if res is not None:
                        before = q if q < k2 else k2 + n * (q - k2)
                        sign = -1 if (after * (deg2 + s) + (dx + s) * before) % 2 else 1
                        yield res[1], pair * sign * res[0]

        return combine(terms())

    def bracket(self, a: Element, b: Element) -> Element:
        return combine(
            (m, c1 * c2 * c)
            for m1, c1 in a.items()
            for m2, c2 in b.items()
            for m, c in self.bracket_monos(m1, m2).items()
        )

    # -- encodings -------------------------------------------------------------

    def from_cochain(self, x: CECochain) -> Element:
        """A cochain as an element on its (degree, weight) slice.

        SYM(p) keys are orbit sums over distinct permutations while vector
        monomials multiply like polynomial generators, so at shift 2 an
        entry on a key with repeated indices divides by the multiplicity
        factorial (e.g. 1/2 h (x) h encodes as 1/4 e_h e_h); to_cochain
        multiplies it back.
        """
        if x.g.dim != self.g.dim:
            raise InputError("cochain over the wrong space")
        if x.module[0] != "triv" and _module_slice(x.module)[0] != self.n:
            raise InputError(f"cochain module {x.module} does not embed at shift {self.n}")
        if self.n == 1:
            return dict(x.data)
        return {(down, up): coef / multiplicity_factorial(up) for (down, up), coef in x.data.items()}

    def to_cochain(self, a: Element, k: int, w: int) -> CECochain:
        return self._to_cochain(a, k, WEDGE(w) if self.n == 1 else SYM(w))

    def _to_cochain(self, a: Element, k: int, module) -> CECochain:
        """Inverse of from_cochain on the slice of CE degree k holding module."""
        w = _module_slice(module)[1]
        entries = []
        for (cov, vec), coef in a.items():
            if len(cov) != k or len(vec) != w:
                raise InputError("element is not a pure (degree, weight) slice")
            entries.append(((cov, vec), coef if self.n == 1 else coef * multiplicity_factorial(vec)))
        return CECochain.build(self.g, k, module, entries)

    def slice_basis(self, k: int, w: int) -> List[Mono]:
        if k < 0 or w < 0:
            return []
        if k > self.g.dim:
            return []
        covs = list(combinations(range(self.g.dim), k))
        if self.vec_parity:
            if w > self.g.dim:
                return []
            vecs = list(combinations(range(self.g.dim), w))
        else:
            vecs = list(combinations_with_replacement(range(self.g.dim), w))
        return [(c, v) for c in covs for v in vecs]

    def weight_zero_basis(self, k: int, w: int) -> List[Mono]:
        """The keys of slice_basis(k, w) of weight 0 (see the module
        docstring), in the same order.  Each is a key with its last index
        taken off, from slice_basis, followed by every index of the weight
        that makes the sum 0; the slice itself is never formed."""
        if k < 0 or w < 0:
            return []
        if not (k or w):
            return [((), ())]
        weights = _basis_weights(self.g)
        zero = (0,) * len(weights[0]) if weights else ()
        by_weight: Dict[Tuple[int, ...], List[int]] = {}
        for j, wt in enumerate(weights):
            by_weight.setdefault(wt, []).append(j)

        def total(indices):
            return tuple(map(sum, zip(zero, *(weights[i] for i in indices))))

        keys = []
        for cov, vec in self.slice_basis(k, w - 1) if w else self.slice_basis(k - 1, 0):
            if w:  # the last index ends vec, after vec[-1] (or at it, at shift 2)
                need = tuple(a - b for a, b in zip(total(cov), total(vec)))
                lowest = vec[-1] + self.vec_parity if vec else 0
            else:  # the last index ends cov
                need, lowest = tuple(-a for a in total(cov)), cov[-1] + 1 if cov else 0
            last = by_weight.get(need, [])
            for x in last[bisect_left(last, lowest) :]:
                keys.append((cov, vec + (x,)) if w else (cov + (x,), vec))
        return keys


def _basis_weights(g: LieAlgebra) -> List[Tuple[int, ...]]:
    """The weight of each basis element e_j: its eigenvalues w_h(j) under
    the basis elements e_h whose ad is diagonal in the basis with rational
    eigenvalues, not all 0, one coordinate per e_h, scaled to integers
    (which keeps every sum's zeros).  Read off one walk over the nonzero
    brackets; with no such e_h every weight is ()."""
    eig: List[Optional[Dict[int, Fraction]]] = [{} for _ in range(g.dim)]
    for (i, j), comps in g.pairs():
        for h, o, sign in ((i, j, 1), (j, i, -1)):
            if eig[h] is not None:
                c = comps.get(o)
                if len(comps) == 1 and isinstance(c, Fraction):
                    eig[h][o] = sign * c
                else:
                    eig[h] = None
    scaled = []
    for e in filter(None, eig):
        den = lcm(*(c.denominator for c in e.values()))
        scaled.append({j: int(c * den) for j, c in e.items()})
    return [tuple(e.get(j, 0) for e in scaled) for j in range(g.dim)]


def _module_slice(module) -> Tuple[int, int]:
    """(shift, weight) of the polyvector slice that holds cochains valued in module."""
    kind = module[0]
    if kind == "triv":
        return 1, 0
    if kind == "adjoint":
        return 1, 1
    if kind == "wedge":
        return 1, module[1]
    if kind == "sym":
        return 2, module[1]
    raise InputError(f"unsupported module {module!r}")


def ce_differential(x: CECochain) -> CECochain:
    """Degree k -> k+1 Chevalley-Eilenberg differential in the ledger sign
    convention: d of x's slice, decoded with x's module."""
    P = PolyVectorAlgebra(x.g, _module_slice(x.module)[0])
    return P._to_cochain(P.d(P.from_cochain(x)), x.k + 1, x.module)


def _unit_differentials(P: PolyVectorAlgebra, module, k: int) -> Tuple[List[Mono], List[Element]]:
    """The weight-0 keys of C^k(g, module) and the columns of d on them: d
    of the unit orbit-basis cochain on each key, in key order."""
    keys = P.weight_zero_basis(k, _module_slice(module)[1])
    return keys, [P.d(P.from_cochain(CECochain(P.g, k, module, {key: Fraction(1)}))) for key in keys]


def cohomology_dim(g: LieAlgebra, module, degree: int) -> int:
    """dim H^degree(g, module) via exact ranks of the CE differentials on
    the weight-0 block, which has all the cohomology (module docstring):
    dim C^degree and both ranks are counted on that block."""
    shift, w = _module_slice(module)
    P = PolyVectorAlgebra(g, shift)

    def dim_and_rank(k: int) -> Tuple[int, int]:
        # rank(d) = rank(d^T), so the columns go in as sparse rows; d keeps
        # weights, so every term lands on a weight-0 key of C^(k+1)
        dst_index = {m: i for i, m in enumerate(P.weight_zero_basis(k + 1, w))}
        keys, columns = _unit_differentials(P, module, k)
        return len(keys), linalg.rank({dst_index[m]: c for m, c in col.items()} for col in columns)

    dim, rank = dim_and_rank(degree)
    return dim - rank - dim_and_rank(degree - 1)[1] if degree > 0 else dim - rank


def invariants(g: LieAlgebra, module) -> List[CECochain]:
    """Exact basis of the module invariants: the kernel of d on C^0(g, module)
    (with the ledger's sign, (d x)(xi) = [x, xi] on degree 0), taken on the
    weight-0 keys only.  Every invariant has weight 0 and the matrix of d is
    block diagonal, so the basis, normalization included, is the one the
    whole of C^0 gives (module docstring)."""
    P = PolyVectorAlgebra(g, _module_slice(module)[0])
    keys, columns = _unit_differentials(P, module, 0)
    rows: Dict[Mono, Dict[int, Scalar]] = {}
    for j, col in enumerate(columns):
        for m, c in col.items():
            rows.setdefault(m, {})[j] = c
    return [
        CECochain(g, 0, module, {keys[i]: c for i, c in sorted(vec.items())})
        for vec in linalg.nullspace([rows[m] for m in sorted(rows)], n_cols=len(keys))
    ]
