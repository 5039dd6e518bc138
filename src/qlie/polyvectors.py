"""Polyvector algebras on a classifying-stack model, with the big bracket.

For a Lie algebra g and a shift n in {1, 2} this is the free graded
commutative algebra on dual generators e^i (degree 1, weight 0) and
vector generators e_i (degree n, weight 1); its elements realize
Chevalley-Eilenberg cochains with polyvector coefficients.  The
structure maps are

* the differential, the odd derivation with  d e^i = 1/2 f^i_jk e^j e^k
  and  d e_i = f^k_ij e^j e_k,  that is d = (-1)^(n+1) [mu_g, -] for
  mu_g = sum_{j<k} f^i_jk e^j e^k e_i (Kosmann-Schwarzbach, Contemp. Math.
  132, 1992; Roytenberg, Lett. Math. Phys. 61, 2002);
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
sorted increasingly.  A product or a contraction keeps the blocks apart,
so its key is two merges of sorted index blocks (`_merge`) and its
Koszul sign is (-1) to the swaps of odd generators that sort it: the
inversions of each merge plus the odd generators a moved block passes,
read off the block lengths.  Contracting the e^i of m1 with an e_i of
m2, say, merges m1's e^ block without e^i with m2's, and m2's e_ block
without e_i with m1's.  `contract`, the one kernel, takes the bracket
as contraction events: `contraction_index` maps each generator i to the
monomials of the right factor that hold e_i (or e^i), with the sign
parities they alone fix, and each e^i (or e_i) of a left monomial walks
only the entries for i, one single contraction each.  d is events of the
same kernel: by graded symmetry d m = (-1)^(k + n w + 1) [m, mu_g] for a
monomial m of CE degree k and weight w, so the argument is walked, with
that sign in its coefficients, against mu_g, indexed once per algebra.
The graded symmetry and Jacobi identities of the bracket are checked
exhaustively in the tests, and the kernel against a generator-list
insertion sort (tests/polyvector_oracle.py).

`d`, `mul` and `bracket` sum integer numerators.  Each element is taken
over the lcm L of its coefficients' denominators (`numerators`), mu_g is
stored once with integer coefficients over L_g, the lcm of the structure
constants' denominators (`_d_den`), and the products of numerators are
summed per key in a plain dict; each output key is then divided once, by
L L_g for d and by L_a L_b for a product or a bracket, so a Fraction is
formed only there.  A RationalFunction coefficient or structure constant
takes the same loops with L = 1 (or L_g = 1), and what comes out has the
types that went in.  The columns of the Chevalley-Eilenberg blocks below
skip even that division: they stay integer sums, all scaled by one
positive integer, from `contract` into `linalg.rref`.

The differential d is the library's one Chevalley-Eilenberg differential.
A cochain valued in TRIVIAL, ADJOINT or WEDGE(p) is the slice of
polyvector weight 0, 1 or p at shift 1; one valued in SYM(p) is the
weight-p slice at shift 2.  `ce_differential`, `cohomology_dim` and
`invariants` work through that embedding: the first encodes, applies d
and decodes; the other two take d of each unit cochain of a slice as one
column, and read off its rank or, on C^0, its kernel.  Each unit key is
contracted against mu_g alone, with an integer coefficient, and every
column comes out times the same positive integer (`_unit_differentials`),
which changes neither the rank nor the reduced kernel basis; mu_g's index
of each kind is built on first use, and the C^0 keys of `invariants`,
which have no e^, need only one kind.  `check_lie` is
the Jacobi identity as d^2 = 0 (Chevalley-Eilenberg): for i < j < k the
coefficient of e^i e^j e^k in d d e^l is, with factor +1, the l-component
of the Jacobiator J(e_i, e_j, e_k), so no bracket is composed by hand.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError
from .lie import LieAlgebra
from .scalars import Scalar, add_term, common_denominator, over, scalar_text
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
        # mu_g, one term e^j e^k e_i per nonzero [e_j, e_k] = c e_i, j < k, with
        # c as an integer numerator over _d_den; its index is the right factor of d
        pairs = sorted(g.pairs())
        self._d_den, numerator = common_denominator([c for _, comps in pairs for c in comps.values()])
        self._mu = [(((j, k), (i,)), numerator(c)) for (j, k), comps in pairs for i, c in comps.items()]
        self._mu_indices: List[Optional[Dict[int, List[tuple]]]] = [None, None]

    def _mu_index(self, kind: int) -> Dict[int, List[tuple]]:
        """`contraction_index` of mu_g of that kind, built on first use: a
        left factor with no e^ (a C^0 key) never walks the kind-1 index."""
        index = self._mu_indices[kind]
        if index is None:
            index = self._mu_indices[kind] = contraction_index(self._mu, kind, self.n)
        return index

    def mono_degree(self, mono: Mono) -> int:
        return len(mono[0]) + self.n * len(mono[1])

    # -- algebra operations ----------------------------------------------------

    def mul(self, a: Element, b: Element) -> Element:
        vp = self.vec_parity
        (la, na), (lb, nb) = numerators(a), numerators(b)
        acc: Dict[Mono, Scalar] = {}
        for (cov1, vec1), c1 in na:
            for (cov2, vec2), c2 in nb:
                cov, vec = _merge(cov1, cov2), _merge(vec1, vec2, vp)
                if cov and vec:
                    c = c1 * c2
                    odd = cov[1] + vp * (len(vec1) * len(cov2) + vec[1])  # m1's e_ pass m2's e^
                    add_term(acc, (cov[0], vec[0]), -c if odd % 2 else c)
        return over(acc, la * lb)

    def d(self, a: Element) -> Element:
        """The differential as the contraction events of a against mu_g:
        d m = (-1)^(k + n w + 1) [m, mu_g] for a monomial m of CE degree k
        and weight w, the sign taken into each coefficient of a."""
        n = self.n
        L, nums = numerators(a)
        acc: Dict[Mono, Scalar] = {}
        terms = [(m, c if (len(m[0]) + n * len(m[1])) % 2 else -c) for m, c in nums]
        self.contract(acc, terms, self._mu_index(1), self._mu_index(0))
        return over(acc, L * self._d_den)

    # -- the big bracket -------------------------------------------------------

    def contract(self, acc: Dict[Mono, Scalar], na, vec_index, cov_index) -> None:
        """Add to acc each event of the terms c1 m1 of na with a right factor
        indexed by `contraction_index`: vec_index holds its e_i, met by the
        e^i of m1, and cov_index its e^i, met by the e_i of m1.  An event is
        c1 c2 times eps_pq (module docstring) and the sign of the sort; the
        parities that m1 fixes are taken once per generator, those that m2
        fixes come with its entry."""
        n, vp = self.n, self.vec_parity
        for (cov1, vec1), c1 in na:
            k1, l1 = len(cov1), len(vec1)
            for p, i in enumerate(cov1):  # e^i meets each e_i of m2
                rest1, a = cov1[:p] + cov1[p + 1 :], (k1 - p - 1) % 2
                lead = (a + n * l1) % 2  # A_p of eps_pq
                for rest2, cov2, c2, s2, kv, e0 in vec_index.get(i, ()):
                    rc = _merge(rest1, cov2)
                    if rc is None:
                        continue
                    # m1's a later e^ pass m2's e^ and its other e_, which merge into vec1
                    odd = lead * s2 + a * kv + e0 + rc[1]
                    if rest2:
                        rv = _merge(rest2, vec1, vp)
                        if rv is None:
                            continue
                        vec, odd = rv[0], odd + vp * rv[1]
                    else:  # the merge into vec1 is vec1 itself, with no inversion
                        vec = vec1
                    c = c1 * c2
                    add_term(acc, (rc[0], vec), -c if odd % 2 else c)
            for t, i in enumerate(vec1):  # e_i meets the e^i of m2
                rest1, b = vec1[:t] + vec1[t + 1 :], (l1 - t - 1) % 2
                for rest2, vec2, c2, sb, st, e0 in cov_index.get(i, ()):
                    rc = _merge(cov1, rest2)
                    rv = rc and _merge(rest1, vec2, vp)
                    if rv:  # m2's other e^ pass m1's t earlier e_, and its e_ the b later ones
                        c = c1 * c2
                        odd = b * sb + t * st + e0 + rc[1] + vp * rv[1]
                        add_term(acc, (rc[0], rv[0]), -c if odd % 2 else c)

    def bracket(self, a: Element, b: Element) -> Element:
        """The bracket as the contraction events of both kinds; b is indexed
        only by the kinds that a's terms meet: by its e_i when a has an e^,
        by its e^i when a has an e_."""
        (la, na), (lb, nb) = numerators(a), numerators(b)
        acc: Dict[Mono, Scalar] = {}
        vec_index = contraction_index(nb, 1, self.n) if any(cov for (cov, _), _ in na) else {}
        cov_index = contraction_index(nb, 0, self.n) if any(vec for (_, vec), _ in na) else {}
        self.contract(acc, na, vec_index, cov_index)
        return over(acc, la * lb)

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


def numerators(a: Element) -> Tuple[int, List[Tuple[Mono, Scalar]]]:
    """(L, [(m, L c_m)]) for the terms c_m m of a over their common
    denominator L (`scalars.common_denominator`)."""
    L, numerator = common_denominator(list(a.values()))
    return L, [(m, numerator(c)) for m, c in a.items()]


def _merge(a: Tuple[int, ...], b: Tuple[int, ...], odd: int = 1) -> Optional[Tuple[Tuple[int, ...], int]]:
    """The sorted merge of the sorted index blocks a and b and its inversions,
    the pairs x in a, y in b with x > y; None when the generators are odd and
    an index is in both blocks, which makes the product zero."""
    if not a or not b:
        return a + b, 0
    # one index in either block: insert it by one bisection
    if len(b) == 1:
        y = b[0]
        k = bisect_right(a, y)
        if odd and k and a[k - 1] == y:
            return None
        return a[:k] + b + a[k:], len(a) - k
    if len(a) == 1:
        x = a[0]
        k = bisect_left(b, x)
        if odd and k < len(b) and b[k] == x:
            return None
        return b[:k] + a + b[k:], k
    inv = 0
    for y in b:
        k = bisect_right(a, y)
        if odd and k and a[k - 1] == y:
            return None
        inv += len(a) - k
    return tuple(sorted(a + b)), inv


def contraction_index(nums: Sequence[Tuple[Mono, Scalar]], kind: int, n: int) -> Dict[int, List[tuple]]:
    """The index of a bracket's right factor at shift n: i -> one entry
    for each e^i (kind 0) or e_i (kind 1) of each term c m of nums, in
    order.  An entry is (m's block of that kind without i, its other
    block, c) and the three parities of the event sign (`contract`) that
    m alone fixes: for the t-th e_i, that of |m| + n + 1, of
    k + vp (l - 1) and of (n + 2)(k + n t); for the q-th e^i, that of
    n (|m| + n + 1) + vp l, of vp (k - 1) and of q + n - 1, where m has k
    e^ and l e_ and vp = n mod 2."""
    vp = n % 2
    index: Dict[int, List[tuple]] = {}
    for m, c in nums:
        own, other = m[kind], m[1 - kind]
        k, l = len(m[0]), len(m[1])
        s = k + n * l + n + 1
        # the two parities fixed by m, and the third as z + step p, from
        # (n + 2)(k + n t) = n k + vp t and q + n - 1 (mod 2)
        if kind:
            x, y, z, step = s % 2, (k + vp * (l - 1)) % 2, n * k, vp
        else:
            x, y, z, step = (n * s + vp * l) % 2, vp * (k - 1) % 2, n - 1, 1
        for p, i in enumerate(own):
            index.setdefault(i, []).append((own[:p] + own[p + 1 :], other, c, x, y, (z + step * p) % 2))
    return index


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


class LieCheckReport(NamedTuple):
    passed: bool
    failure_kind: Optional[str]
    witness: Optional[Tuple[str, ...]]
    residual: Dict[str, str]


def check_lie(g: LieAlgebra) -> LieCheckReport:
    """Jacobi as d^2 = 0 on C^*(g): for i < j < k the coefficient of
    e^i e^j e^k in d d e^l is the l-component of the Jacobiator
    J(e_i, e_j, e_k) = [[e_i, e_j], e_k] + cyclic, so the bracket is a Lie
    bracket exactly when no d d e^l has a term.  The witness is the least
    failing triple and the residual its Jacobiator.  Antisymmetry is
    structural: the table holds [e_i, e_j] for i < j only."""
    P = PolyVectorAlgebra(g, 1)
    jacobiators: Dict[Tuple[int, ...], Dict[int, Scalar]] = {}
    for l in range(g.dim):
        for (ijk, _), v in P.d(P.d({((l,), ()): Fraction(1)})).items():
            jacobiators.setdefault(ijk, {})[l] = v
    if not jacobiators:
        return LieCheckReport(True, None, None, {})
    ijk = min(jacobiators)
    return LieCheckReport(
        passed=False,
        failure_kind="jacobi",
        witness=tuple(g.basis[i] for i in ijk),
        residual={g.basis[l]: scalar_text(v) for l, v in sorted(jacobiators[ijk].items())},
    )


def _unit_differentials(P: PolyVectorAlgebra, module, k: int, keys: List[Mono]) -> Tuple[int, List[Element]]:
    """(s, columns): the columns of d on keys of C^k(g, module), in key
    order, column j being s times d of the unit orbit-basis cochain on
    keys[j], for one positive integer s.

    That cochain is the monomial of its key over the multiplicity factorial
    f of the key's vector block at shift 2 (f = 1 at shift 1; see
    `from_cochain`), and d takes it over f L_g (`d`).  So each key goes
    into `contract` alone, against mu_g, with the integer F / f and the
    sign d gives it, for F the lcm of the keys' f, and its sums are the
    column over no denominator: s = F L_g.  A positive scale common to
    every column changes neither the rank of d nor the reduced kernel
    basis read off by `rref`, so no Fraction is formed before it.  Over
    RationalFunction structure constants L_g = 1 and the sums are
    RationalFunctions, for rref's field path."""
    n, w = P.n, _module_slice(module)[1]
    factorials = [multiplicity_factorial(vec) for _, vec in keys] if n == 2 else [1] * len(keys)
    scale = lcm(*factorials)
    sign = 1 if (k + n * w) % 2 else -1
    vec_index, cov_index = P._mu_index(1) if k else {}, P._mu_index(0) if w else {}
    columns = []
    for key, f in zip(keys, factorials):
        acc: Element = {}
        P.contract(acc, [(key, sign * (scale // f))], vec_index, cov_index)
        columns.append(acc)
    return scale * P._d_den, columns


def cohomology_dim(g: LieAlgebra, module, degree: int) -> int:
    """dim H^degree(g, module) via exact ranks of the CE differentials on
    the weight-0 block, which has all the cohomology (module docstring):
    dim C^degree and both ranks are counted on that block."""
    shift, w = _module_slice(module)
    P = PolyVectorAlgebra(g, shift)

    def rank(k: int, keys: List[Mono]) -> int:
        # rank(d) = rank(d^T), so the columns go in as sparse rows.  rank
        # needs only an injective numbering of the monomials that occur;
        # numbered in sorted order, the order of the slice basis, they keep
        # rref's pivot order (numbered as they first occur, they make it
        # pick worse pivots: twice the time on sl6, ADJOINT, degree 2)
        _, columns = _unit_differentials(P, module, k, keys)
        number = {m: i for i, m in enumerate(sorted({m for col in columns for m in col}))}
        return linalg.rank({number[m]: c for m, c in col.items()} for col in columns)

    keys = P.weight_zero_basis(degree, w)
    below = rank(degree - 1, P.weight_zero_basis(degree - 1, w)) if degree > 0 else 0
    return len(keys) - rank(degree, keys) - below


def invariants(g: LieAlgebra, module) -> List[CECochain]:
    """Exact basis of the module invariants: the kernel of d on C^0(g, module)
    (with the ledger's sign, (d x)(xi) = [x, xi] on degree 0), taken on the
    weight-0 keys only.  Every invariant has weight 0 and the matrix of d is
    block diagonal, so the basis, normalization included, is the one the
    whole of C^0 gives (module docstring)."""
    shift, w = _module_slice(module)
    P = PolyVectorAlgebra(g, shift)
    return _invariants(P, module, P.weight_zero_basis(0, w))


def _invariants(P: PolyVectorAlgebra, module, keys: List[Mono]) -> List[CECochain]:
    """invariants(P.g, module), given P at the module's shift and the
    weight-0 keys of C^0(g, module) that P gives."""
    rows: Dict[Mono, Dict[int, Scalar]] = {}
    for j, col in enumerate(_unit_differentials(P, module, 0, keys)[1]):
        for m, c in col.items():
            rows.setdefault(m, {})[j] = c
    return [
        CECochain(P.g, 0, module, {keys[i]: c for i, c in sorted(vec.items())})
        for vec in linalg.nullspace([rows[m] for m in sorted(rows)], n_cols=len(keys))
    ]
