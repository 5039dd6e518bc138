"""Quasi-Lie bialgebras: axioms, twists, Casimir associators, coisotropics.

A structure is a pair (delta, phi) with delta: g -> wedge^2 g stored as a
degree-1 cochain and phi in wedge^3 g.  The three axiom residuals are the
weight components of the Maurer-Cartan residual of delta + phi in the
shift-1 polyvector algebra (`mc.mc_residual`):

    d delta = 0                        (weight 2, cocycle)
    1/2 [delta, delta] + d phi = 0     (weight 3, cojacobi)
    [delta, phi] = 0                   (weight 4, compat)

The independent checks live in the tests: the three residuals taken one
by one, the slot-wise Chevalley-Eilenberg formula in
tests/test_ce_reference.py and the generator recursion of the bracket in
tests/test_bracket_oracle.py.

The coisotropic morphism verifier uses the same two maps: its target
differential is d + [delta + phi, -] on the polyvector algebra of the
subalgebra, twisted by the structure that `induce_from_coisotropic`
returns, so the verifier and `check_qlb` judge the same (delta, phi).

`induce_from_coisotropic` is the library's one map from a Casimir to a
structure.  The associator of an invariant Casimir (`casimir_to_phi`) is
the ledger's casimir_vs_induced times the structure it induces on h = g,
and the Lie bialgebra of a Manin triple (`manin.triple_to_bialgebra`) is
the structure the Casimir pairing^-1 induces on g along g*.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, Tuple

from .errors import InputError, PreconditionError
from .lie import CECochain, LieAlgebra, SplitSubalgebra, WEDGE, split_subalgebra, sym2_signature
from .mc import mc_residual
from .polyvectors import Element, PolyVectorAlgebra, schouten
from .scalars import Scalar, combine, is_zero, vec_add
from .tensors import CASIMIR_VS_INDUCED, Multivector, SparseTensor, embed_wedge, plain_signature

__all__ = [
    "QuasiLieBialgebra",
    "Twist",
    "schouten",
    "mc_element",
    "check_qlb",
    "twist",
    "casimir_to_phi",
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


def mc_element(P: PolyVectorAlgebra, delta: CECochain, phi: Multivector) -> Element:
    """delta + phi as one degree-1 element of P = Pol(BG, 1)."""
    return vec_add(P.from_cochain(delta), P.from_multivector(phi))


def check_qlb(q: QuasiLieBialgebra) -> QLBResiduals:
    P = PolyVectorAlgebra(q.g, 1)
    res = mc_residual(P, mc_element(P, q.delta, q.phi))
    return QLBResiduals(*(res.get(w) or P.to_cochain({}, 4 - w, w) for w in (2, 3, 4)))


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
    d_lam = P.d(lam_el)
    delta_el = P.from_cochain(q.delta)

    new_delta = q.delta + P.to_cochain(d_lam, 1, 2)
    correction = vec_add(P.bracket(delta_el, lam_el), P.bracket(lam_el, d_lam), Fraction(-1, 2))
    new_phi = q.phi + P.to_multivector(correction, 3)
    return QuasiLieBialgebra(g, new_delta, new_phi)


# ---------------------------------------------------------------------------
# Casimir-induced structures
# ---------------------------------------------------------------------------

def _check_sym2(g: LieAlgebra, c: SparseTensor) -> None:
    if c.sig != sym2_signature(g.dim):
        raise InputError("Casimir element must be a symmetric 2-tensor over g")


def casimir_invariance_residual(g: LieAlgebra, c: SparseTensor) -> CECochain:
    """d c, the weight-2 Maurer-Cartan residual of c in Pol(BG, 2)."""
    _check_sym2(g, c)
    P = PolyVectorAlgebra(g, 2)
    return mc_residual(P, P.from_sym_tensor(c)).get(2) or P.to_cochain({}, 1, 2)


def casimir_to_phi(g: LieAlgebra, c: SparseTensor) -> Multivector:
    """phi = -(1/6) [c_12, c_23] for an invariant Casimir element."""
    residual = casimir_invariance_residual(g, c)
    if not residual.is_zero():
        raise InputError(
            f"Casimir element is not invariant; residual has {residual.support_size()} "
            f"nonzero components, first: {sorted(residual.data)[0]}"
        )
    return casimir_to_phi_unchecked(g, c)


def casimir_to_phi_unchecked(g: LieAlgebra, c: SparseTensor) -> Multivector:
    """`casimir_to_phi` on a Casimir element already known to be invariant.

    The associator is the structure induced on h = g, scaled by the
    ledger's casimir_vs_induced: with I^{ijk} = 1/4 f^i_{ab} c^{aj} c^{bk}
    the induced tensor, [c_12, c_23] has 4 I^{ijk} at (j, i, k), and it is
    totally antisymmetric when c is invariant, so -(1/6) [c_12, c_23] = 2/3 I.
    """
    q = induce_from_coisotropic(split_subalgebra(g, range(g.dim)), c, validate=False)
    return q.phi.scale(CASIMIR_VS_INDUCED)


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
    phi^{ijk}    = 1/4 f^i_{ab} P^{aj} P^{bk}
                 + 1/2 Q^{ia} (C^k_{ab} Q^{jb} - C^j_{ab} Q^{kb})
                 + 1/4 P^{ia} (A^k_{ab} Q^{jb} - A^j_{ab} Q^{kb})

    The undefined block symbols of the source formulas are instantiated as
    gamma := C and alpha := A (the only index-shape-consistent choice);
    the instantiation is validated by check_qlb and the morphism verifier.
    The overall scale of phi is fixed where delta != 0: at h = g the
    quotient is trivial, delta = 0 and any multiple of phi passes, but on
    the coisotropic subalgebras with delta != 0 only this one does.

    delta and phi^{ijk} for every (i, j, k) are contracted on the nonzero
    entries of P, Q, f, A and C; the induction is rejected unless that phi
    tensor is totally antisymmetric.
    """
    if validate and not coisotropic_casimir_check(split, c):
        raise PreconditionError("Casimir element does not vanish on Sym^2(g/h)")
    P, Q, _ = split_casimir(split, c)
    Prow, Qcol, _ = _casimir_rows(P, Q)
    h = split.h_algebra()
    half, quarter = Fraction(1, 2), Fraction(1, 4)

    def delta_terms():
        # delta^{ij}_k = 1/2 (T^{ij}_k - T^{ji}_k), T^{ij}_k = A^j_{ka} Q^{ia}
        for (k, a), row in split.A.items():
            for j, x in row.items():
                for i, q in Qcol[a].items():
                    yield ((k,), (i, j)), half * x * q

    def phi_terms():
        # phi^{ijk} for every (i, j, k), one sum of the formula at a time
        for (a, b), row in split.f.items():
            if a not in Prow or b not in Prow:
                continue
            for i, x in row.items():
                for j, p in Prow[a].items():
                    for k, r in Prow[b].items():
                        yield (i, j, k), quarter * x * p * r
        for block, left, scale in ((split.C, Qcol, half), (split.A, Prow, quarter)):
            # Q^{ia} C^k_{ab} Q^{jb} and P^{ia} A^k_{ab} Q^{jb}, minus j <-> k
            for (a, b), row in block.items():
                for k, x in row.items():
                    for i, p in left[a].items():
                        for j, q in Qcol[b].items():
                            yield (i, j, k), scale * p * x * q
                            yield (i, k, j), -scale * p * x * q

    delta = CECochain.build(h, 1, WEDGE(2), delta_terms())
    tensor = SparseTensor.build(plain_signature(h.dim, 3), phi_terms())
    phi = Multivector(
        h.dim, 3, {key: v for key, v in sorted(tensor.items()) if key[0] < key[1] < key[2]}
    )
    # the component array must be totally antisymmetric: the whole tensor
    # is the antisymmetric embedding of its increasing-key part
    if embed_wedge(phi) != tensor:
        raise InputError(
            "induced associator components are not antisymmetric; "
            "the block instantiation gamma := C, alpha := A is inconsistent here"
        )
    return QuasiLieBialgebra(h, delta, phi)


def _casimir_rows(P, Q):
    """P by rows (it is symmetric), and Q by columns and by rows."""
    Prow: Dict[int, Dict[int, Scalar]] = defaultdict(dict)
    Qcol: Dict[int, Dict[int, Scalar]] = defaultdict(dict)
    Qrow: Dict[int, Dict[int, Scalar]] = defaultdict(dict)
    for (i, j), v in P.items():
        Prow[i][j] = v
    for (i, a), v in Q.items():
        Qcol[a][i] = v
        Qrow[i][a] = v
    return Prow, Qcol, Qrow


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
    """The five split forms of d c = 0 for c = P + Q.

    Each identity is a tensor in three free indices that must vanish.  It
    is summed over the nonzero entries of the blocks of the split and of P
    and Q, with X^k_{ab} = split.X[(a, b)][k]; the comments name the free
    indices, i and j in h and a and k in m except where they say otherwise.
    """
    Prow, Qcol, Qrow = _casimir_rows(P, Q)
    f, A, B, C, D = split.f, split.A, split.B, split.C, split.D

    def swapped(terms):
        # identities 1, 2 and 5 are symmetric in their first two free indices
        for (x, y, z), v in terms:
            yield (x, y, z), v
            yield (y, x, z), v

    def contract(block, rows, first, key, sign=1):
        # sign * X^x_{st} R^{uy} with u = s (first) or u = t, at key(x, y, s, t)
        for (s, t), row in block.items():
            for x, c in row.items():
                for y, v in rows[s if first else t].items():
                    yield key(x, y, s, t), sign * c * v

    identities = {
        # (i, a in h; k): A^i_{jk} P^{ja} + C^i_{jk} Q^{aj} + (i <-> a)
        "casimirinv1": swapped(chain(
            contract(A, Prow, True, lambda i, a, j, k: (i, a, k)),
            contract(C, Qcol, True, lambda i, a, j, k: (i, a, k)),
        )),
        # (i, a, j in h): A^i_{jk} Q^{ak} - f^i_{kj} P^{ka} + (i <-> a)
        "casimirinv2": swapped(chain(
            contract(A, Qcol, False, lambda i, a, j, k: (i, a, j)),
            contract(f, Prow, True, lambda i, a, k, j: (i, a, j), -1),
        )),
        # (i; a, k): -A^i_{jk} Q^{ja} - B^a_{jk} P^{ij} - D^a_{jk} Q^{ij}
        "casimirinv3": chain(
            contract(A, Qrow, True, lambda i, a, j, k: (i, a, k), -1),
            contract(B, Prow, True, lambda a, i, j, k: (i, a, k), -1),
            contract(D, Qcol, True, lambda a, i, j, k: (i, a, k), -1),
        ),
        # (i, j; a): -f^i_{kj} Q^{ka} + B^a_{jk} Q^{ik}
        "casimirinv4": chain(
            contract(f, Qrow, True, lambda i, a, k, j: (i, j, a), -1),
            contract(B, Qcol, False, lambda a, i, j, k: (i, j, a)),
        ),
        # (i, a, k in m): B^i_{jk} Q^{ja} + (i <-> a)
        "casimirinv5": swapped(contract(B, Qrow, True, lambda i, a, j, k: (i, a, k))),
    }
    return {name: not combine(terms) for name, terms in identities.items()}


def verify_coisotropic_morphism(split: SplitSubalgebra, c: SparseTensor) -> MorphismReport:
    """Three checks: the five invariance identities, their equivalence to
    d c = 0, and that the generator map F intertwines the differentials,
    F(d_g x) = (d_h + [mu, -]) F(x) on every generator x, where mu is the
    induced structure delta + phi as a Maurer-Cartan element of the shift-1
    polyvector algebra of h."""
    g = split.g
    P, Q, _ = split_casimir(split, c)
    identities = _invariance_identities(split, P, Q)

    invariance = casimir_invariance_residual(g, c).is_zero()
    identities_equal = all(identities.values()) == invariance

    q = induce_from_coisotropic(split, c, validate=False)
    h = q.g
    nh = split.dim_h
    Pg = PolyVectorAlgebra(g, 1)
    Ph = PolyVectorAlgebra(h, 1)
    # the target differential d + [mu, -], twisted by the induced
    # Maurer-Cartan element mu = delta + phi
    mu = mc_element(Ph, q.delta, q.phi)

    def d_target(el: Element) -> Element:
        return vec_add(Ph.d(el), Ph.bracket(mu, el))

    # F on generators of the source cochain algebra
    hpos = {v: i for i, v in enumerate(split.h_indices)}
    mpos = {v: i for i, v in enumerate(split.m_indices)}

    def F_gen(i_global: int) -> Element:
        if i_global in hpos:
            i = hpos[i_global]
            terms = [(((), (j,)), Fraction(1, 2) * P.get((i, j), Fraction(0))) for j in range(nh)]
            return combine(terms, {((i,), ()): Fraction(1)})
        a = mpos[i_global]
        return combine((((), (j,)), Q.get((j, a), Fraction(0))) for j in range(nh))

    def F_apply(el: Element) -> Element:
        out: Element = {}
        for (cov, vec), coef in el.items():
            if vec:
                raise InputError("F is defined on the cochain algebra of g only")
            term: Element = {((), ()): coef}
            for i_global in cov:
                term = Ph.mul(term, F_gen(i_global))
            combine(term.items(), out)
        return out

    intertwines = {}
    for i_global in range(g.dim):
        gen_el: Element = {((i_global,), ()): Fraction(1)}
        lhs = F_apply(Pg.d(gen_el))
        rhs = d_target(F_gen(i_global))
        label = ("e^" if i_global in hpos else "et^") + g.basis[i_global]
        intertwines[label] = not vec_add(lhs, rhs, Fraction(-1))

    return MorphismReport(identities, identities_equal, intertwines)
