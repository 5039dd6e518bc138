"""Quasi-Lie bialgebras: axioms, twists, Casimir associators, coisotropics.

A structure is a pair (delta, phi) with delta: g -> wedge^2 g stored as a
degree-1 cochain and phi in wedge^3 g as a degree-0 one, both valued in
WEDGE(p); a twist lambda is the degree-0 WEDGE(2) cochain.  The three
axiom residuals are the weight components of the Maurer-Cartan residual
of delta + phi in the shift-1 polyvector algebra (`mc.mc_residual`):

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
Its five split invariance identities are the blocks of d c, taken by the
same differential as the invariance of c itself
(`casimir_invariance_residual`).

`induce_from_coisotropic` is the library's one map from a Casimir to a
structure.  The associator of an invariant Casimir (`casimir_to_phi`) is
the ledger's casimir_vs_induced times the structure it induces on h = g,
and the Lie bialgebra of a Manin triple (`manin.triple_to_bialgebra`) is
the structure the Casimir pairing^-1 induces on g along g*.

These maps compute on trust: `twist`, `casimir_to_phi`,
`induce_from_coisotropic` and `verify_coisotropic_morphism` check none
of their preconditions (axioms, invariance, coisotropy); the CLI does.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Dict, NamedTuple, Tuple

from .errors import InputError
from .lie import LieAlgebra, SplitSubalgebra, split_subalgebra
from .mc import mc_residual
from .polyvectors import Element, PolyVectorAlgebra
from .scalars import Scalar, combine, is_zero, vec_add
from .tensors import CASIMIR_VS_INDUCED, CECochain, SYM, TENSOR, WEDGE, embed_wedge

__all__ = [
    "QuasiLieBialgebra",
    "Twist",
    "mc_element",
    "check_qlb",
    "twist",
    "casimir_to_phi",
    "coisotropic_casimir_check",
    "induce_from_coisotropic",
    "verify_coisotropic_morphism",
]


class QuasiLieBialgebra:
    def __init__(self, g: LieAlgebra, delta: CECochain, phi: CECochain):
        # delta of degree 1 in wedge^2, phi of degree 0 in wedge^3, both over
        # g: the same structure, as cochain arithmetic compares it
        if delta.k != 1 or delta.module != WEDGE(2) or not delta.g.same_structure(g):
            raise InputError("delta must be a degree-1 cochain over g valued in wedge^2")
        if phi.k != 0 or phi.module != WEDGE(3) or not phi.g.same_structure(g):
            raise InputError("phi must be a 3-multivector over g")
        self.g, self.delta, self.phi = g, delta, phi

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuasiLieBialgebra):
            return NotImplemented
        return (
            self.g.same_structure(other.g)
            and self.delta == other.delta
            and self.phi == other.phi
        )


class Twist:
    def __init__(self, lam: CECochain):
        if lam.k != 0 or lam.module != WEDGE(2):
            raise InputError("a twist is a 2-multivector")
        self.lam = lam


class QLBResiduals(NamedTuple):
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


def mc_element(P: PolyVectorAlgebra, delta: CECochain, phi: CECochain) -> Element:
    """delta + phi as one degree-1 element of P = Pol(BG, 1)."""
    return vec_add(P.from_cochain(delta), P.from_cochain(phi))


def check_qlb(q: QuasiLieBialgebra) -> QLBResiduals:
    P = PolyVectorAlgebra(q.g, 1)
    res = mc_residual(P, mc_element(P, q.delta, q.phi))
    return QLBResiduals(*(res.get(w) or P.to_cochain({}, 4 - w, w) for w in (2, 3, 4)))


def twist(q: QuasiLieBialgebra, t: Twist) -> QuasiLieBialgebra:
    """Act by a twist: delta' = delta + d lambda, phi' = phi + [delta, lambda] - 1/2 [lambda, d lambda].

    This is the gauge action on any (delta, phi); it does not check that q
    satisfies the axioms (the CLI's `twist` does, before it twists)."""
    g = q.g
    if t.lam.g.dim != g.dim:
        raise InputError("twist over the wrong space")
    P = PolyVectorAlgebra(g, 1)
    lam_el = P.from_cochain(t.lam)
    d_lam = P.d(lam_el)
    delta_el = P.from_cochain(q.delta)

    new_delta = q.delta + P.to_cochain(d_lam, 1, 2)
    correction = vec_add(P.bracket(delta_el, lam_el), P.bracket(lam_el, d_lam), Fraction(-1, 2))
    new_phi = q.phi + P.to_cochain(correction, 0, 3)
    return QuasiLieBialgebra(g, new_delta, new_phi)


# ---------------------------------------------------------------------------
# Casimir-induced structures
# ---------------------------------------------------------------------------

def _check_sym2(g: LieAlgebra, c: CECochain) -> None:
    if not (isinstance(c, CECochain) and c.k == 0 and c.module == SYM(2) and c.g.dim == g.dim):
        raise InputError("Casimir element must be a symmetric 2-tensor over g")


def casimir_invariance_residual(g: LieAlgebra, c: CECochain) -> CECochain:
    """d c, the weight-2 Maurer-Cartan residual of c in Pol(BG, 2)."""
    _check_sym2(g, c)
    P = PolyVectorAlgebra(g, 2)
    return mc_residual(P, P.from_cochain(c)).get(2) or P.to_cochain({}, 1, 2)


def casimir_to_phi(g: LieAlgebra, c: CECochain) -> CECochain:
    """phi = -(1/6) [c_12, c_23] for an invariant Casimir element; that c
    is invariant is the caller's to check (`casimir_invariance_residual`,
    which the CLI's `casimir-phi` checks first).

    The associator is the structure induced on h = g, scaled by the
    ledger's casimir_vs_induced: with I^{ijk} = 1/4 f^i_{ab} c^{aj} c^{bk}
    the induced tensor, [c_12, c_23] has 4 I^{ijk} at (j, i, k), and it is
    totally antisymmetric when c is invariant, so -(1/6) [c_12, c_23] = 2/3 I.
    A zero c (the symmetric part of every Etingof-Varchenko r-matrix) has
    the zero associator, with no split to build.
    """
    if c.is_zero():
        return CECochain(g, 0, WEDGE(3))
    q = induce_from_coisotropic(split_subalgebra(g, range(g.dim)), c)
    return q.phi.scale(CASIMIR_VS_INDUCED)


def split_casimir(split: SplitSubalgebra, c: CECochain):
    """c = P + Q with P in Sym^2(h) and Q in h (x) m, plus the m (x) m block:
    P by rows (it is symmetric), Q by columns (Qcol[a][i] = Q^{ia}) and
    the m (x) m block by pairs.

    c stores one key (i, j), i <= j, per symmetric pair; the blocks read
    its coefficient in both orders."""
    _check_sym2(split.g, c)
    hpos, mpos = split.hpos, split.mpos
    Prow: Dict[int, Dict[int, Scalar]] = defaultdict(dict)
    Qcol: Dict[int, Dict[int, Scalar]] = defaultdict(dict)
    mm: Dict[Tuple[int, int], Scalar] = {}
    for ((), (k, l)), coef in c.items():
        for i, j in ((k, l),) if k == l else ((k, l), (l, k)):
            if i in hpos and j in hpos:
                Prow[hpos[i]][hpos[j]] = coef
            elif i in hpos and j in mpos:
                Qcol[mpos[j]][hpos[i]] = coef
            elif i in mpos and j in mpos:
                mm[(mpos[i], mpos[j])] = coef
    return Prow, Qcol, mm


def coisotropic_casimir_check(split: SplitSubalgebra, c: CECochain) -> bool:
    """True iff the image of c in Sym^2(g/h) vanishes."""
    _, _, mm = split_casimir(split, c)
    return all(is_zero(v) for v in mm.values())


def induce_from_coisotropic(split: SplitSubalgebra, c: CECochain) -> QuasiLieBialgebra:
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
    tensor is totally antisymmetric.  That c is coisotropic is the caller's
    to check (`coisotropic_casimir_check`, which the CLI's `induce` reports);
    the m (x) m block of c is not read.
    """
    Prow, Qcol, _ = split_casimir(split, c)
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
                        yield ((), (i, j, k)), quarter * x * p * r
        for block, left, scale in ((split.C, Qcol, half), (split.A, Prow, quarter)):
            # Q^{ia} C^k_{ab} Q^{jb} and P^{ia} A^k_{ab} Q^{jb}, minus j <-> k
            for (a, b), row in block.items():
                for k, x in row.items():
                    for i, p in left[a].items():
                        for j, q in Qcol[b].items():
                            yield ((), (i, j, k)), scale * p * x * q
                            yield ((), (i, k, j)), -scale * p * x * q

    delta = CECochain.build(h, 1, WEDGE(2), delta_terms())
    tensor = CECochain.build(h, 0, TENSOR(3), phi_terms())
    phi = CECochain(
        h, 0, WEDGE(3), {((), idx): v for ((), idx), v in sorted(tensor.items()) if idx[0] < idx[1] < idx[2]}
    )
    # the component array must be totally antisymmetric: the whole tensor
    # is the antisymmetric embedding of its increasing-key part
    if embed_wedge(phi) != tensor:
        raise InputError(
            "induced associator components are not antisymmetric; "
            "the block instantiation gamma := C, alpha := A is inconsistent here"
        )
    return QuasiLieBialgebra(h, delta, phi)


# ---------------------------------------------------------------------------
# the coisotropic morphism verifier
# ---------------------------------------------------------------------------

class MorphismReport(NamedTuple):
    invariance_identities: Dict[str, bool]
    intertwines: Dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.invariance_identities.values()) and all(self.intertwines.values())


# (down slot in h; up pair in h (x) h, h (x) m or m (x) m) -> identity.  The
# block (h; m m) of d c is zero because h is a subalgebra and c has no
# m (x) m entry.
_IDENTITY_BLOCKS = {
    (False, 2): "casimirinv1",
    (True, 2): "casimirinv2",
    (False, 1): "casimirinv3",
    (True, 1): "casimirinv4",
    (False, 0): "casimirinv5",
}


def _invariance_identities(split: SplitSubalgebra, c: CECochain) -> Dict[str, bool]:
    """The five split forms of d c = 0 for a coisotropic c = P + Q.

    d c is a cochain in C^1(g, Sym^2 g).  Identity n is one block of it:
    the keys whose down slot lies in h or in m and whose up pair has two,
    one or no slots in h (`_IDENTITY_BLOCKS`); it holds iff that block
    vanishes.
    """
    hpos = split.hpos
    residual = casimir_invariance_residual(split.g, c)
    failing = {_IDENTITY_BLOCKS[x in hpos, (u in hpos) + (v in hpos)] for ((x,), (u, v)) in residual.data}
    return {name: name not in failing for name in sorted(_IDENTITY_BLOCKS.values())}


def verify_coisotropic_morphism(split: SplitSubalgebra, c: CECochain) -> MorphismReport:
    """Two checks on a coisotropic c (the caller's to check,
    `coisotropic_casimir_check`): the five invariance identities, which are
    the blocks of d c, and that the generator map F intertwines the
    differentials, F(d_g x) = (d_h + [mu, -]) F(x) on every generator x,
    where mu is the induced structure delta + phi as a Maurer-Cartan
    element of the shift-1 polyvector algebra of h."""
    g = split.g
    Prow, Qcol, _ = split_casimir(split, c)
    identities = _invariance_identities(split, c)

    q = induce_from_coisotropic(split, c)
    h = q.g
    Pg = PolyVectorAlgebra(g, 1)
    Ph = PolyVectorAlgebra(h, 1)
    # the target differential d + [mu, -], twisted by the induced
    # Maurer-Cartan element mu = delta + phi
    mu = mc_element(Ph, q.delta, q.phi)

    def d_target(el: Element) -> Element:
        return vec_add(Ph.d(el), Ph.bracket(mu, el))

    # F on generators of the source cochain algebra
    hpos, mpos = split.hpos, split.mpos

    def F_gen(i_global: int) -> Element:
        if i_global in hpos:
            i = hpos[i_global]
            terms = [(((), (j,)), Fraction(1, 2) * p) for j, p in Prow[i].items()]
            return combine(terms, {((i,), ()): Fraction(1)})
        return {((), (j,)): v for j, v in Qcol[mpos[i_global]].items()}

    def F_apply(el: Element) -> Element:
        out: Element = {}
        for (cov, _), coef in el.items():  # d_g of a generator e^i has no vector slot
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

    return MorphismReport(identities, intertwines)
