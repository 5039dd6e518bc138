"""Quasi-Lie bialgebras: axioms, twists, Casimir associators, coisotropics.

A structure is a pair (delta, phi) with delta: g -> wedge^2 g stored as a
degree-1 cochain and phi in wedge^3 g.  The three axiom residuals are the
weight components of the Maurer-Cartan equation for delta + phi in the
shift-1 polyvector algebra:

    d delta = 0
    1/2 [delta, delta] + d phi = 0
    [delta, phi] = 0

The cocycle residuals are computed by the slot-wise Chevalley-Eilenberg
formula, independently of the derivation-generated differential used by
the Maurer-Cartan engine, so the two code paths genuinely cross-check
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .errors import InputError, PreconditionError
from .lie import (
    CECochain,
    LieAlgebra,
    SplitSubalgebra,
    SYM,
    WEDGE,
    ce_differential,
    multivector_to_cochain,
    sym2_signature,
)
from .polyvectors import Element, PolyVectorAlgebra, _add_term, schouten
from .scalars import Scalar, is_zero
from .tensors import Multivector, SparseTensor, _sort_with_sign, embed_wedge, plain_signature

__all__ = [
    "QuasiLieBialgebra",
    "Twist",
    "BigBracketElement",
    "big_bracket",
    "schouten",
    "check_qlb",
    "twist",
    "casimir_to_phi",
    "casimir_commutator",
    "coisotropic_casimir_check",
    "induce_from_coisotropic",
    "verify_coisotropic_morphism",
]


@dataclass
class QuasiLieBialgebra:
    g: LieAlgebra
    delta: CECochain  # degree 1, module wedge^2
    phi: Multivector  # wedge^3

    def __post_init__(self):
        if self.delta.k != 1 or self.delta.module != WEDGE(2):
            raise InputError("delta must be a degree-1 cochain valued in wedge^2")
        if self.phi.p != 3 or self.phi.dim != self.g.dim:
            raise InputError("phi must be a 3-multivector over g")

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuasiLieBialgebra):
            return NotImplemented
        return (
            self.g.same_structure(other.g)
            and self.delta == other.delta
            and self.phi == other.phi
        )


@dataclass(frozen=True)
class Twist:
    lam: Multivector

    def __post_init__(self):
        if self.lam.p != 2:
            raise InputError("a twist is a 2-multivector")


@dataclass
class BigBracketElement:
    """Element of the polyvector algebra with its bidegree on record."""

    g: LieAlgebra
    shift: int
    ce_degree: int
    weight: int
    element: Element

    @classmethod
    def from_cochain(cls, x: CECochain, shift: int) -> "BigBracketElement":
        P = PolyVectorAlgebra(x.g, shift)
        w = x.module[1] if len(x.module) > 1 else 0
        return cls(x.g, shift, x.k, w, P.from_cochain(x))

    @classmethod
    def from_multivector(cls, g: LieAlgebra, mv: Multivector) -> "BigBracketElement":
        P = PolyVectorAlgebra(g, 1)
        return cls(g, 1, 0, mv.p, P.from_multivector(mv))


def big_bracket(a: BigBracketElement, b: BigBracketElement) -> BigBracketElement:
    """The P_{n+2} bracket; biderivation over the g* / g pairing."""
    if a.g is not b.g:
        raise InputError("big bracket of elements over different algebras")
    if a.shift != b.shift:
        raise InputError("big bracket shift mismatch")
    P = PolyVectorAlgebra(a.g, a.shift)
    res = P.bracket(a.element, b.element)
    # the generator pairing removes one dual slot and one vector slot
    return BigBracketElement(
        a.g, a.shift, a.ce_degree + b.ce_degree - 1, a.weight + b.weight - 1, res
    )


@dataclass
class QLBResiduals:
    """The three axiom residuals, as full tensors."""

    cocycle: CECochain  # d delta, degree 2
    cojacobi: CECochain  # 1/2 [delta, delta] + d phi, degree 1 weight 3
    compat: CECochain  # [delta, phi], degree 0 weight 4

    @property
    def passed(self) -> bool:
        return self.cocycle.is_zero() and self.cojacobi.is_zero() and self.compat.is_zero()

    def max_support(self) -> Dict[str, int]:
        return {
            "cocycle": self.cocycle.support_size(),
            "cojacobi": self.cojacobi.support_size(),
            "compat": self.compat.support_size(),
        }


def check_qlb(q: QuasiLieBialgebra) -> QLBResiduals:
    g = q.g
    P = PolyVectorAlgebra(g, 1)
    delta_el = P.from_cochain(q.delta)
    phi_coch = multivector_to_cochain(g, q.phi)

    res1 = ce_differential(q.delta)

    half_dd = P.smul(Fraction(1, 2), P.bracket(delta_el, delta_el))
    res2 = P.to_cochain(half_dd, 1, 3) + ce_differential(phi_coch)

    phi_el = P.from_multivector(q.phi)
    res3 = P.to_cochain(P.bracket(delta_el, phi_el), 0, 4)
    return QLBResiduals(res1, res2, res3)


def twist(q: QuasiLieBialgebra, t: Twist, validate: bool = True) -> QuasiLieBialgebra:
    """Act by a twist: delta' = delta + d lambda, phi' = phi + [delta, lambda] - 1/2 [lambda, d lambda]."""
    g = q.g
    if t.lam.dim != g.dim:
        raise InputError("twist over the wrong space")
    if validate:
        res = check_qlb(q)
        if not res.passed:
            raise PreconditionError(
                "twist input fails the quasi-Lie bialgebra axioms: "
                + ", ".join(k for k, v in res.max_support().items() if v)
            )
    P = PolyVectorAlgebra(g, 1)
    lam_el = P.from_multivector(t.lam)
    lam_coch = multivector_to_cochain(g, t.lam)
    delta_el = P.from_cochain(q.delta)

    new_delta = q.delta + ce_differential(lam_coch)
    correction = P.add(
        P.bracket(delta_el, lam_el),
        P.smul(Fraction(-1, 2), P.bracket(lam_el, P.d(lam_el))),
    )
    new_phi = q.phi + P.to_multivector(correction, 3)
    return QuasiLieBialgebra(g, new_delta, new_phi)


# ---------------------------------------------------------------------------
# Casimir-induced structures
# ---------------------------------------------------------------------------

def _check_sym2(g: LieAlgebra, c: SparseTensor) -> None:
    if c.sig != sym2_signature(g.dim):
        raise InputError("Casimir element must be a symmetric 2-tensor over g")


def casimir_invariance_residual(g: LieAlgebra, c: SparseTensor) -> CECochain:
    _check_sym2(g, c)
    coch = CECochain(g, 0, SYM(2), {((), key): coef for key, coef in c.items()})
    return ce_differential(coch)


def casimir_commutator(g: LieAlgebra, c: SparseTensor) -> SparseTensor:
    """[c_12, c_23] = sum a_i (x) [b_i, a_j] (x) b_j over c = sum a (x) b."""
    _check_sym2(g, c)
    entries = []
    pairs = list(c.expanded_items())
    for (a1, b1), c1 in pairs:
        for (a2, b2), c2 in pairs:
            for m, coef in g.bracket(b1, a2).items():
                entries.append(((a1, m, b2), c1 * c2 * coef))
    return SparseTensor.build(plain_signature(g.dim, 3), entries)


def casimir_to_phi(g: LieAlgebra, c: SparseTensor) -> Multivector:
    """phi = -(1/6) [c_12, c_23] for an invariant Casimir element."""
    residual = casimir_invariance_residual(g, c)
    if not residual.is_zero():
        raise InputError(
            f"Casimir element is not invariant; residual has {residual.support_size()} "
            f"nonzero components, first: {sorted(residual.data)[0]}"
        )
    tensor = casimir_commutator(g, c)
    entries: Dict[Tuple[int, ...], Scalar] = {}
    for key, coef in tensor.items():
        if list(key) == sorted(set(key)):
            entries[key] = Fraction(-1, 6) * coef
    phi = Multivector(g.dim, 3, entries)
    # total antisymmetry of [c12, c23] holds exactly when c is invariant
    if embed_wedge(phi) != tensor.scale(Fraction(-1, 6)):
        raise InputError("commutator of an invariant Casimir must be antisymmetric")
    return phi


def split_casimir(split: SplitSubalgebra, c: SparseTensor):
    """c = P + Q with P in Sym^2(h) and Q in h (x) m, plus the m (x) m block."""
    g = split.g
    _check_sym2(g, c)
    hpos = {v: i for i, v in enumerate(split.h_indices)}
    mpos = {v: i for i, v in enumerate(split.m_indices)}
    P: Dict[Tuple[int, int], Scalar] = {}
    Q: Dict[Tuple[int, int], Scalar] = {}
    mm: Dict[Tuple[int, int], Scalar] = {}
    for (i, j), coef in c.expanded_items():
        if i in hpos and j in hpos:
            P[(hpos[i], hpos[j])] = coef
        elif i in hpos and j in mpos:
            Q[(hpos[i], mpos[j])] = coef
        elif i in mpos and j in mpos:
            mm[(mpos[i], mpos[j])] = coef
    return P, Q, mm


def coisotropic_casimir_check(split: SplitSubalgebra, c: SparseTensor) -> bool:
    """True iff the image of c in Sym^2(g/h) vanishes."""
    _, _, mm = split_casimir(split, c)
    return all(is_zero(v) for v in mm.values())


def induce_from_coisotropic(
    split: SplitSubalgebra, c: SparseTensor, validate: bool = True
) -> QuasiLieBialgebra:
    """Quasi-Lie bialgebra on h from a coisotropic Casimir element.

    delta^{ij}_k = 1/2 (A^j_{ka} Q^{ia} - A^i_{ka} Q^{ja})
    phi^{ijk}    = 1/8 f^i_{ab} P^{aj} P^{bk}
                 + 1/4 Q^{ia} (C^k_{ab} Q^{jb} - C^j_{ab} Q^{kb})
                 + 1/8 P^{ia} (A^k_{ab} Q^{jb} - A^j_{ab} Q^{kb})

    The undefined block symbols of the source formulas are instantiated as
    gamma := C and alpha := A (the only index-shape-consistent choice);
    the instantiation is validated by check_qlb and the morphism verifier.
    """
    if validate and not coisotropic_casimir_check(split, c):
        raise PreconditionError("Casimir element does not vanish on Sym^2(g/h)")
    P, Q, _ = split_casimir(split, c)
    nh, nm = split.dim_h, split.dim_m
    h = split.h_algebra()

    def Pc(i, j):
        return P.get((i, j), Fraction(0))

    def Qc(i, a):
        return Q.get((i, a), Fraction(0))

    def A(k, i, a):
        return split.block("A", i, a).get(k, Fraction(0))

    def C(k, a, b):
        return split.block("C", a, b).get(k, Fraction(0))

    def f(k, i, j):
        return h.structure_constant(i, j, k)

    delta_entries = []
    for k in range(nh):
        for i in range(nh):
            for j in range(i + 1, nh):
                total = Fraction(0)
                for a in range(nm):
                    total += Fraction(1, 2) * (A(j, k, a) * Qc(i, a) - A(i, k, a) * Qc(j, a))
                if not is_zero(total):
                    delta_entries.append((((k,), (i, j)), total))
    delta = CECochain.build(h, 1, WEDGE(2), delta_entries)

    def phi_component(i, j, k):
        total = Fraction(0)
        for a in range(nh):
            for b in range(nh):
                total += Fraction(1, 8) * f(i, a, b) * Pc(a, j) * Pc(b, k)
        for a in range(nm):
            for b in range(nm):
                total += Fraction(1, 4) * Qc(i, a) * (C(k, a, b) * Qc(j, b) - C(j, a, b) * Qc(k, b))
        for a in range(nh):
            for b in range(nm):
                total += Fraction(1, 8) * Pc(i, a) * (A(k, a, b) * Qc(j, b) - A(j, a, b) * Qc(k, b))
        return total

    phi_entries = {}
    for i in range(nh):
        for j in range(i + 1, nh):
            for k in range(j + 1, nh):
                v = phi_component(i, j, k)
                if not is_zero(v):
                    phi_entries[(i, j, k)] = v
    # the component array must be totally antisymmetric; spot-check the
    # non-canonical orderings against the canonical values
    for i in range(nh):
        for j in range(nh):
            for k in range(nh):
                expect = Fraction(0)
                if len({i, j, k}) == 3:
                    srt = tuple(sorted((i, j, k)))
                    sgn, _ = _sort_with_sign((i, j, k))
                    expect = sgn * phi_entries.get(srt, Fraction(0))
                if phi_component(i, j, k) != expect:
                    raise InputError(
                        "induced associator components are not antisymmetric; "
                        "the block instantiation gamma := C, alpha := A is inconsistent here"
                    )
    phi = Multivector(h.dim, 3, phi_entries)
    return QuasiLieBialgebra(h, delta, phi)


# ---------------------------------------------------------------------------
# the coisotropic morphism verifier
# ---------------------------------------------------------------------------

@dataclass
class MorphismReport:
    invariance_identities: Dict[str, bool]
    identities_equal_invariance: bool
    intertwines: Dict[str, bool]

    @property
    def passed(self) -> bool:
        return (
            all(self.invariance_identities.values())
            and self.identities_equal_invariance
            and all(self.intertwines.values())
        )


def _invariance_identities(split: SplitSubalgebra, P, Q) -> Dict[str, bool]:
    """The five split forms of d c = 0 for c = P + Q."""
    nh, nm = split.dim_h, split.dim_m
    h = split.h_algebra()

    def Pc(i, j):
        return P.get((i, j), Fraction(0))

    def Qc(i, a):
        return Q.get((i, a), Fraction(0))

    def A(k, i, a):
        return split.block("A", i, a).get(k, Fraction(0))

    def B(k, i, a):
        return split.block("B", i, a).get(k, Fraction(0))

    def C(k, a, b):
        return split.block("C", a, b).get(k, Fraction(0))

    def D(k, a, b):
        return split.block("D", a, b).get(k, Fraction(0))

    def f(k, i, j):
        return h.structure_constant(i, j, k)

    ok = {}
    # identity 1: free (i in h, a in h, k in m)
    good = True
    for i in range(nh):
        for a in range(nh):
            for k in range(nm):
                t = Fraction(0)
                for j in range(nh):
                    t += A(i, j, k) * Pc(j, a) + A(a, j, k) * Pc(j, i)
                for j in range(nm):
                    t += C(i, j, k) * Qc(a, j) + C(a, j, k) * Qc(i, j)
                if not is_zero(t):
                    good = False
    ok["casimirinv1"] = good
    # identity 2: free (i in h, a in h, j in h)
    good = True
    for i in range(nh):
        for a in range(nh):
            for j in range(nh):
                t = Fraction(0)
                for k in range(nm):
                    t += A(i, j, k) * Qc(a, k) + A(a, j, k) * Qc(i, k)
                for k in range(nh):
                    t -= f(i, k, j) * Pc(k, a) + f(a, k, j) * Pc(k, i)
                if not is_zero(t):
                    good = False
    ok["casimirinv2"] = good
    # identity 3: free (i in h, a in m, k in m)
    good = True
    for i in range(nh):
        for a in range(nm):
            for k in range(nm):
                t = Fraction(0)
                for j in range(nh):
                    t -= A(i, j, k) * Qc(j, a) + B(a, j, k) * Pc(i, j)
                for j in range(nm):
                    t -= D(a, j, k) * Qc(i, j)
                if not is_zero(t):
                    good = False
    ok["casimirinv3"] = good
    # identity 4: free (i in h, j in h, a in m)
    good = True
    for i in range(nh):
        for j in range(nh):
            for a in range(nm):
                t = Fraction(0)
                for k in range(nh):
                    t -= f(i, k, j) * Qc(k, a)
                for k in range(nm):
                    t += B(a, j, k) * Qc(i, k)
                if not is_zero(t):
                    good = False
    ok["casimirinv4"] = good
    # identity 5: free (i in m, a in m, k in m)
    good = True
    for i in range(nm):
        for a in range(nm):
            for k in range(nm):
                t = Fraction(0)
                for j in range(nh):
                    t += B(i, j, k) * Qc(j, a) + B(a, j, k) * Qc(j, i)
                if not is_zero(t):
                    good = False
    ok["casimirinv5"] = good
    return ok


def verify_coisotropic_morphism(split: SplitSubalgebra, c: SparseTensor) -> MorphismReport:
    """Three checks: the five invariance identities, their equivalence to
    d c = 0, and that the generator map F intertwines the differentials."""
    g = split.g
    P, Q, _ = split_casimir(split, c)
    identities = _invariance_identities(split, P, Q)

    invariance = casimir_invariance_residual(g, c).is_zero()
    identities_equal = all(identities.values()) == invariance

    q = induce_from_coisotropic(split, c, validate=False)
    h = q.g
    nh, nm = split.dim_h, split.dim_m
    Pg = PolyVectorAlgebra(g, 1)
    Ph = PolyVectorAlgebra(h, 1)

    # target differential twisted by the induced structure:
    #   d e^i += phi^{ijk} e_j e_k - delta^{ij}_k e^k e_j
    #   d e_i += 1/2 delta_i^{jk} e_j e_k
    def delta_comp(i, j, k):
        # coefficient of e_i wedge e_j in delta(e_k) is stored on (i < j)
        down_up = ((k,), tuple(sorted((i, j))))
        v = q.delta.data.get(down_up, Fraction(0))
        return v if i < j else -v if i > j else Fraction(0)

    def phi_comp(i, j, k):
        return q.phi.get((i, j, k))

    cov_images = []
    for i in range(nh):
        img: Element = dict(Ph._d_cov[i])
        extra: Element = {}
        for j in range(nh):
            for k in range(nh):
                pc = phi_comp(i, j, k)
                if not is_zero(pc):
                    res = Ph.canonicalize([(1, j), (1, k)])
                    if res:
                        sgn, mono = res
                        v = extra.get(mono, Fraction(0)) + sgn * pc
                        extra[mono] = v
                dc = delta_comp(i, j, k)
                if not is_zero(dc):
                    res = Ph.canonicalize([(0, k), (1, j)])
                    if res:
                        sgn, mono = res
                        v = extra.get(mono, Fraction(0)) + sgn * (-dc)
                        extra[mono] = v
        img = Ph.add(img, {m: v for m, v in extra.items() if not is_zero(v)})
        cov_images.append(img)
    vec_images = []
    for i in range(nh):
        img = dict(Ph._d_vec[i])
        extra = {}
        for j in range(nh):
            for k in range(nh):
                dc = delta_comp(j, k, i)  # delta_i^{jk}
                if not is_zero(dc):
                    res = Ph.canonicalize([(1, j), (1, k)])
                    if res:
                        sgn, mono = res
                        v = extra.get(mono, Fraction(0)) + sgn * Fraction(1, 2) * dc
                        extra[mono] = v
        img = Ph.add(img, {m: v for m, v in extra.items() if not is_zero(v)})
        vec_images.append(img)

    def d_target(el: Element) -> Element:
        return Ph.apply_odd_derivation(cov_images, vec_images, el)

    # F on generators of the source cochain algebra
    hpos = {v: i for i, v in enumerate(split.h_indices)}
    mpos = {v: i for i, v in enumerate(split.m_indices)}

    def F_gen(i_global: int) -> Element:
        out: Element = {}
        if i_global in hpos:
            i = hpos[i_global]
            out[((i,), ())] = Fraction(1)
            for j in range(nh):
                pc = P.get((i, j), Fraction(0))
                if not is_zero(pc):
                    _add_term(out, ((), (j,)), Fraction(1, 2) * pc)
        else:
            a = mpos[i_global]
            for j in range(nh):
                qc = Q.get((j, a), Fraction(0))
                if not is_zero(qc):
                    _add_term(out, ((), (j,)), qc)
        return out

    def F_apply(el: Element) -> Element:
        out: Element = {}
        for (cov, vec), coef in el.items():
            if vec:
                raise InputError("F is defined on the cochain algebra of g only")
            term: Element = {((), ()): coef}
            for i_global in cov:
                term = Ph.mul(term, F_gen(i_global))
            for m, v in term.items():
                _add_term(out, m, v)
        return out

    intertwines = {}
    for i_global in range(g.dim):
        gen_el: Element = {((i_global,), ()): Fraction(1)}
        lhs = F_apply(Pg.d(gen_el))
        rhs = d_target(F_gen(i_global))
        label = ("e^" if i_global in hpos else "et^") + g.basis[i_global]
        intertwines[label] = not Ph.sub(lhs, rhs)

    return MorphismReport(identities, identities_equal, intertwines)
