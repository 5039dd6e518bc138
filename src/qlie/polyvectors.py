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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError
from .lie import CECochain, LieAlgebra, SYM, WEDGE
from .scalars import Scalar, is_zero
from .tensors import Multivector

# generator = (kind, index) with kind 0 for e^i (dual), 1 for e_i (vector)
Gen = Tuple[int, int]
Mono = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (dual indices, vector indices)
Element = Dict[Mono, Scalar]


def _add_term(acc: Element, mono: Mono, coef: Scalar) -> None:
    v = acc.get(mono, Fraction(0)) + coef
    if is_zero(v):
        acc.pop(mono, None)
    else:
        acc[mono] = v


class PolyVectorAlgebra:
    """C^*(g, Sym(g[-n])) with product, differential and big bracket."""

    def __init__(self, g: LieAlgebra, shift: int):
        if shift not in (1, 2):
            raise InputError("shift must be 1 or 2")
        self.g = g
        self.n = shift
        self.vec_parity = shift % 2
        self._d_cov: List[Element] = []
        self._d_vec: List[Element] = []
        for i in range(g.dim):
            el: Element = {}
            for j in range(g.dim):
                for k in range(j + 1, g.dim):
                    c = g.structure_constant(j, k, i)
                    if not is_zero(c):
                        _add_term(el, ((j, k), ()), c)
            self._d_cov.append(el)
        for i in range(g.dim):
            el = {}
            for j in range(g.dim):
                for k, c in g.bracket(i, j).items():
                    _add_term(el, ((j,), (k,)), c)
            self._d_vec.append(el)

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
        out: Element = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                res = self.mul_monos(m1, m2)
                if res is None:
                    continue
                sgn, mono = res
                _add_term(out, mono, sgn * c1 * c2)
        return out

    @staticmethod
    def add(a: Element, b: Element) -> Element:
        out = dict(a)
        for m, c in b.items():
            _add_term(out, m, c)
        return out

    @staticmethod
    def smul(c: Scalar, a: Element) -> Element:
        if is_zero(c):
            return {}
        return {m: c * v for m, v in a.items()}

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.smul(Fraction(-1), b))

    def apply_odd_derivation(self, images_cov: List[Element], images_vec: List[Element], a: Element) -> Element:
        """Extend generator images (degree odd) as a derivation."""
        out: Element = {}
        for mono, coef in a.items():
            gens = self.mono_gens(mono)
            prefix_parity = 0
            for pos, gen in enumerate(gens):
                image = images_cov[gen[1]] if gen[0] == 0 else images_vec[gen[1]]
                if image:
                    sign = -1 if prefix_parity else 1
                    rest = gens[:pos] + gens[pos + 1 :]
                    for imono, icoef in image.items():
                        seq = gens[:pos] + self.mono_gens(imono) + gens[pos + 1 :]
                        res = self.canonicalize(seq)
                        if res is None:
                            continue
                        csgn, cmono = res
                        _add_term(out, cmono, sign * csgn * coef * icoef)
                prefix_parity ^= self.gen_parity(gen)
        return out

    def d(self, a: Element) -> Element:
        return self.apply_odd_derivation(self._d_cov, self._d_vec, a)

    # -- the big bracket -------------------------------------------------------

    def bracket_monos(self, m1: Mono, m2: Mono) -> Element:
        """[m1, m2] as one sum of single contractions (see the module docstring)."""
        n, s = self.n, self.n + 1
        gens1, gens2 = self.mono_gens(m1), self.mono_gens(m2)
        k2 = len(m2[0])
        deg2 = self.mono_degree(m2)
        after = self.mono_degree(m1)
        out: Element = {}
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
                    _add_term(out, res[1], pair * sign * res[0])
        return out

    def bracket(self, a: Element, b: Element) -> Element:
        out: Element = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                for m, c in self.bracket_monos(m1, m2).items():
                    _add_term(out, m, c1 * c2 * c)
        return out

    # -- encodings -------------------------------------------------------------

    def from_multivector(self, mv: Multivector) -> Element:
        if mv.dim != self.g.dim:
            raise InputError("multivector over the wrong space")
        if self.n != 1:
            raise InputError("multivector encoding requires shift 1")
        return {((), key): coef for key, coef in mv.data.items()}

    def to_multivector(self, a: Element, p: int) -> Multivector:
        data = {}
        for (cov, vec), coef in a.items():
            if cov or len(vec) != p:
                raise InputError("element is not a pure weight slice")
            data[vec] = coef
        return Multivector(self.g.dim, p, data)

    def from_sym_tensor(self, t) -> Element:
        """Orbit-basis symmetric tensor entries into polynomial monomials.

        Vector monomials multiply like polynomial generators, so an entry
        on a key with repeated indices divides by the multiplicity
        factorial (e.g. 1/2 h (x) h encodes as 1/4 e_h e_h).
        """
        if self.n != 2:
            raise InputError("symmetric encoding requires shift 2")
        out: Element = {}
        for key, coef in t.items():
            skey = tuple(sorted(key))
            mult = 1
            for v in set(skey):
                m = skey.count(v)
                for r in range(2, m + 1):
                    mult *= r
            _add_term(out, ((), skey), coef / mult)
        return out

    def from_cochain(self, x: CECochain) -> Element:
        want = "wedge" if self.n == 1 else "sym"
        if x.module[0] not in (want, "triv"):
            raise InputError(f"cochain module {x.module} does not embed at shift {self.n}")
        return {(down, up): coef for (down, up), coef in x.data.items()}

    def to_cochain(self, a: Element, k: int, w: int) -> CECochain:
        module = WEDGE(w) if self.n == 1 else SYM(w)
        entries = []
        for (cov, vec), coef in a.items():
            if len(cov) != k or len(vec) != w:
                raise InputError("element is not a pure (degree, weight) slice")
            entries.append(((cov, vec), coef))
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

            def weak(start, left):
                if left == 0:
                    yield ()
                    return
                for i in range(start, self.g.dim):
                    for rest in weak(i, left - 1):
                        yield (i,) + rest

            vecs = list(weak(0, w))
        return [(c, v) for c in covs for v in vecs]


def schouten(g: LieAlgebra, a: Multivector, b: Multivector) -> Multivector:
    """Schouten bracket of polyvectors, extending the Lie bracket.

    Computed by the classical biderivation expansion; the relation to the
    big bracket (schouten(a, b) = -[a, d b]) is covered by the tests.
    """
    if a.dim != g.dim or b.dim != g.dim:
        raise InputError("multivector over the wrong space")
    p, q = a.p, b.p
    entries = []
    for ka, ca in a.data.items():
        for kb, cb in b.data.items():
            for s in range(p):
                rest_a = ka[:s] + ka[s + 1 :]
                for t in range(q):
                    rest_b = kb[:t] + kb[t + 1 :]
                    sign = (-1) ** ((s + 1) + (t + 1))
                    for m, c in g.bracket(ka[s], kb[t]).items():
                        entries.append(((m,) + rest_a + rest_b, sign * ca * cb * c))
    return Multivector.build(g.dim, p + q - 1, entries)


def derived_square(g: LieAlgebra, lam: Multivector) -> Multivector:
    """[lambda, d lambda] in the big bracket; the square used by twists."""
    P = PolyVectorAlgebra(g, 1)
    el = P.from_multivector(lam)
    res = P.bracket(el, P.d(el))
    return P.to_multivector(res, 2 * lam.p - 1)
