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
sorted increasingly.  A product, a term of d or a contraction keeps the
blocks apart, so its key is two merges of sorted index blocks (`_merge`)
and its Koszul sign is (-1) to the swaps of odd generators that sort it:
the inversions of each merge plus the odd generators a moved block
passes, read off the block lengths.  Contracting the e^i of m1 with an
e_i of m2, say, merges m1's e^ block without e^i with m2's, and m2's e_
block without e_i with m1's.  `bracket` and the residual of `mc` form
only the pairs of monomials that the generator index
`contraction_partners` names.  The graded symmetry and Jacobi identities
of the bracket are checked exhaustively in the tests, and the kernel
against a generator-list insertion sort (tests/polyvector_oracle.py).

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

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError
from .lie import LieAlgebra
from .scalars import Scalar, combine
from .tensors import CECochain, SYM, WEDGE, multiplicity_factorial

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

    def mono_degree(self, mono: Mono) -> int:
        return len(mono[0]) + self.n * len(mono[1])

    # -- algebra operations ----------------------------------------------------

    def mul(self, a: Element, b: Element) -> Element:
        vp = self.vec_parity

        def terms():
            for (cov1, vec1), c1 in a.items():
                for (cov2, vec2), c2 in b.items():
                    cov, vec = _merge(cov1, cov2), _merge(vec1, vec2, vp)
                    if cov and vec:
                        c = c1 * c2
                        odd = cov[1] + vp * (len(vec1) * len(cov2) + vec[1])  # m1's e_ pass m2's e^
                        yield (cov[0], vec[0]), -c if odd % 2 else c

        return combine(terms())

    def d(self, a: Element) -> Element:
        """The differential: the generator images _d_cov/_d_vec extended as an
        odd derivation; the image of the p-th generator, e^j e^k or e^j e_l,
        is merged into the monomial without it."""
        vp = self.vec_parity

        def terms():
            for (cov, vec), coef in a.items():
                for p, i in enumerate(cov):  # e^j e^k passes p odd generators
                    rest = cov[:p] + cov[p + 1 :]
                    for (jk, _), icoef in self._d_cov[i].items():
                        res = _merge(rest, jk)
                        if res:
                            c = coef * icoef
                            yield (res[0], vec), -c if (p + res[1]) % 2 else c
                for t, i in enumerate(vec):  # e^j passes vec[:t], e_l moves from t
                    rest = vec[:t] + vec[t + 1 :]
                    for ((j,), (l,)), icoef in self._d_vec[i].items():
                        rc, rv = _merge(cov, (j,)), _merge(rest, (l,), vp)
                        if rc and rv:
                            c = coef * icoef
                            odd = len(cov) + rc[1] + vp * (t + len(rest) + rv[1])
                            yield (rc[0], rv[0]), -c if odd % 2 else c

        return combine(terms())

    # -- the big bracket -------------------------------------------------------

    def bracket_monos(self, m1: Mono, m2: Mono) -> Element:
        """[m1, m2] as one sum of single contractions (see the module docstring)."""
        n, vp = self.n, self.vec_parity
        (cov1, vec1), (cov2, vec2) = m1, m2
        k1, l1, k2, l2 = len(cov1), len(vec1), len(cov2), len(vec2)
        s2 = k2 + n * l2 + n + 1  # |m2| + n + 1

        out: Dict[Mono, int] = {}  # integer coefficients: no Fraction is formed
        for p, i in enumerate(cov1):  # e^i contracts with each e_i of m2
            rc = _merge(cov1[:p] + cov1[p + 1 :], cov2) if i in vec2 else None
            a = k1 - p - 1
            for t, j in enumerate(vec2 if rc else ()):
                rv = _merge(vec2[:t] + vec2[t + 1 :], vec1, vp) if j == i else None
                if rv:  # eps_pq, then the sort: m1's a later e^ pass m2's e^ and its other e_
                    odd = (a + n * l1) * s2 + (n + 2) * (k2 + n * t) + rc[1] + a * k2 + vp * ((l2 - 1) * a + rv[1])
                    key = (rc[0], rv[0])
                    out[key] = out.get(key, 0) + (-1 if odd % 2 else 1)
        for t, i in enumerate(vec1):  # e_i contracts with the e^i of m2
            if i in cov2:
                q = cov2.index(i)
                rc = _merge(cov1, cov2[:q] + cov2[q + 1 :])
                rv = _merge(vec1[:t] + vec1[t + 1 :], vec2, vp)
                if rc and rv:  # eps_pq and the pairing sign, then the sort: m2's other e^
                    b = l1 - t - 1  # pass m1's t earlier e_, and its e_ the b later ones
                    odd = n * b * s2 + q + n - 1 + rc[1] + vp * (t * (k2 - 1) + rv[1] + b * l2)
                    key = (rc[0], rv[0])
                    out[key] = out.get(key, 0) + (-1 if odd % 2 else 1)
        return {m: c for m, c in out.items() if c}

    def bracket(self, a: Element, b: Element) -> Element:
        """The bracket over the pairs of monomials that share a contraction."""
        monos = list(b.items())
        partners = contraction_partners([m for m, _ in monos])
        return combine(
            (m, c1 * monos[j][1] * c)
            for m1, c1 in a.items()
            for j in partners(m1)
            for m, c in self.bracket_monos(m1, monos[j][0]).items()
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


def _merge(a: Tuple[int, ...], b: Tuple[int, ...], odd: int = 1) -> Optional[Tuple[Tuple[int, ...], int]]:
    """The sorted merge of the sorted index blocks a and b and its inversions,
    the pairs x in a, y in b with x > y; None when the generators are odd and
    an index is in both blocks, which makes the product zero."""
    if not a or not b:
        return a + b, 0
    inv = 0
    for y in b:
        k = bisect_right(a, y)
        if odd and k and a[k - 1] == y:
            return None
        inv += len(a) - k
    return tuple(sorted(a + b)), inv


def contraction_partners(monos: Sequence[Mono]) -> Callable[[Mono], List[int]]:
    """The generator index of monos: maps a monomial m to the positions, in
    increasing order, of the monos with an e_i for an e^i of m or an e^i for
    an e_i of m, the only ones whose bracket with m can be nonzero."""
    holders: Tuple[Dict[int, List[int]], ...] = ({}, {})  # e^i, e_i -> positions
    for pos, mono in enumerate(monos):
        for kind in (0, 1):
            for i in mono[kind]:
                holders[kind].setdefault(i, []).append(pos)
    return lambda m: sorted({pos for kind in (0, 1) for i in m[kind] for pos in holders[1 - kind].get(i, ())})


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
