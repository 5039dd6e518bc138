"""Classical and dynamical r-matrices: one check, the CDYBE and the lambda-form.

A dynamical r-matrix is a map from an open set of h* to g (x) g, over
coordinates x_a dual to a basis h_a of a subalgebra h of g.  A constant
r is the case h = 0: there are no coordinates, the h-equivariance
checks are empty, the derivative D below is zero and the CDYBE is the
CYBE, so `dynamical_check` on DynamicalRMatrix(split_subalgebra(g, ()),
(), r) is the check of a classical r-matrix.

Each value of r (a plain 2-tensor, a degree-0 TENSOR(2) cochain) splits
as r = 2 lambda + c with c in Sym^2 g the symmetric part, a degree-0
SYM(2) cochain, and lambda the 2-multivector, a degree-0 WEDGE(2)
cochain, with embed(2 lambda) = r - c.
The derivative of r is taken once, as the 3-vector
D = sum_a h_a ^ d r / d x_a.  Under the ledger conventions the exact
identity

    cybe(r) + embed(D) = 4 * embed( 1/2 [[lambda, lambda]]
                                    + 1/4 D
                                    + 3/2 casimir_to_phi(c) )

holds whenever c is constant and invariant; the proportionality constant
4 and the 3/2 in front of the associator were determined once on sl2 and
are re-verified on sl3 by the test suite.  The left side is the CDYBE
residual; the lambda-form criterion is the vanishing of the right-hand
bracket.  Its Schouten bracket [[a, b]] is the derived bracket -[a, d b]
of Pol(BG, 1) (the ledger's schouten_convention), as in `qlb.twist`; the
slot-wise formulas it replaces are oracles in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError
from .lie import LieAlgebra, SplitSubalgebra
from .polyvectors import PolyVectorAlgebra
from .qlb import casimir_invariance_residual, casimir_to_phi
from .scalars import Polynomial, RationalFunction, Scalar, check_power, combine
from .tensors import KAPPA_CYBE, LAMBDA_FORM_PHI_COEFF, CECochain, SYM, TENSOR, WEDGE, embed_wedge


class DynamicalRMatrix:
    """Map U -> g (x) g with rational-function entries over coordinates on h*;
    over h = 0 (no coordinates) a constant r with Fraction entries.

    split is the base subalgebra h inside g, variables the coordinates
    dual to the h basis, tensor the g (x) g valued map.  The open locus U
    is described implicitly by the denominator polynomials of locus, where
    none of them vanishes.  A coefficient is accepted when dividing its
    expanded denominator by locus entries, each time by the first that
    divides, ends in a constant (`_divides_out`), or when each of its
    normalised factors divides a power of a locus entry or divides out so
    itself: either way its denominator has no zero on U.  Neither rule
    covers the other: 1/(x-1) over x^2-1 needs the second, and so does
    1/(x-1)^2, whose one factor x^2-2x+1 divides (x^2-1)^2; 1/(x y (x+1)
    (y+1)) over x (y+1) and y (x+1), whose factor x y + x + y + 1 divides
    neither entry, needs the first.
    """

    def __init__(
        self,
        split: SplitSubalgebra,
        variables: Tuple[str, ...],
        tensor: CECochain,
        locus: Sequence[Polynomial] = (),
    ):
        self.split, self.variables, self.tensor, self.locus = split, variables, tensor, locus
        if len(variables) != split.dim_h:
            raise InputError("one coordinate per basis vector of h is required")
        if not _is_two_tensor_over(tensor, split.g):
            raise InputError("a dynamical r-matrix takes values in g (x) g")
        for ((), key), coef in tensor.items():
            if isinstance(coef, RationalFunction):
                if coef.vars != self.variables:
                    raise InputError("coefficient over the wrong variable tuple")
                if not self._denominator_allowed(coef):
                    raise InputError(
                        f"denominator {coef.den} at {key} is not supported on the declared locus"
                    )

    def _denominator_allowed(self, coef: RationalFunction) -> bool:
        # a constant locus entry removes no pole, and dividing by it again
        # and again would never make rem constant
        entries = [p for p in self.locus if not p.is_constant()]
        return _divides_out(coef.den, entries) or all(
            _divides_out(f, entries) or any(_divides_a_power(f, p) for p in entries) for f in coef.factors
        )


def _divides_out(den: Polynomial, entries: Sequence[Polynomial]) -> bool:
    """Whether dividing den by the first entry that divides it, again and
    again, leaves a constant."""
    rem = den
    progress = True
    while progress and not rem.is_constant():
        progress = False
        for p in entries:
            q = rem.exact_div(p)
            if q is not None:
                rem = q
                progress = True
                break
    return rem.is_constant()


def _divides_a_power(f: Polynomial, p: Polynomial) -> bool:
    """Whether f divides p^k for some k <= deg f, so that every zero of f is
    a zero of p.  That k suffices: an irreducible factor of f to the power
    a divides p^a once it divides p, and a <= deg f.  Each power past p
    itself is held to the bounds on a parsed power first (exit 2)."""
    power = p
    for k in range(1, f.total_degree() + 1):
        if k > 1:
            check_power(RationalFunction._of(p, {}), k, f"the power {k} of the locus entry {p}")
            power = power * p
        if power.exact_div(f) is not None:
            return True
    return False


def _is_two_tensor_over(r: CECochain, g: LieAlgebra) -> bool:
    return r.k == 0 and r.module == TENSOR(2) and r.g.same_structure(g)


def cybe(g: LieAlgebra, r: CECochain) -> CECochain:
    """[r12, r13] + [r12, r23] + [r13, r23] of a plain 2-tensor r over g,
    by structure constants.  Each ordered pair of entries (a1 b1, c1),
    (a2 b2, c2) forms c1 * c2 once, and only when one of [a1, a2],
    [b1, a2] and [b1, b2] is nonzero; the product is never reused for
    the swapped pair, since over non-coprime factors c2 * c1 may reduce to
    another form (scalars docstring)."""
    if not _is_two_tensor_over(r, g):
        raise InputError("r-matrix over the wrong space: a plain 2-tensor over g is required")
    # [e_i, e_j] for both orders of each nonzero pair, shared by every
    # lookup of this call: g.bracket would copy or negate a row each time
    rows = {}
    for (i, j), row in g.pairs():
        rows[i, j], rows[j, i] = row, {k: -c for k, c in row.items()}
    empty: Dict[int, Scalar] = {}
    entries = []
    terms = list(r.items())
    for ((), (a1, b1)), c1 in terms:
        for ((), (a2, b2)), c2 in terms:
            aa, ba, bb = rows.get((a1, a2), empty), rows.get((b1, a2), empty), rows.get((b1, b2), empty)
            if not (aa or ba or bb):
                continue
            coef = c1 * c2
            for m, s in aa.items():
                entries.append((((), (m, b1, b2)), coef if s == 1 else coef * s))  # [r12, r13]
            for m, s in ba.items():
                entries.append((((), (a1, m, b2)), coef if s == 1 else coef * s))  # [r12, r23]
            for m, s in bb.items():
                entries.append((((), (a1, a2, m)), coef if s == 1 else coef * s))  # [r13, r23]
    # TENSOR(3) keys with no down slot are canonical, and no term is zero
    return CECochain(g, 0, TENSOR(3))._from_terms(entries)


def _symmetric_part_entries(r_items) -> Dict[Tuple[int, int], Scalar]:
    return combine(
        ((min(i, j), max(i, j)), coef if i == j else coef * Fraction(1, 2))
        for ((), (i, j)), coef in r_items
    )


def _antisymmetric_half(g: LieAlgebra, r_items) -> CECochain:
    # the unique lambda with embed(2 lambda) = r - sym(r):
    # lambda_{ij} = (r_{ij} - r_{ji}) / 4 on i < j
    return CECochain.build(
        g,
        0,
        WEDGE(2),
        [(((), (i, j)), coef * Fraction(1, 4)) for ((), (i, j)), coef in r_items if i != j],
    )


def lambda_form_residual(g: LieAlgebra, lam: CECochain, c: CECochain, D: CECochain) -> CECochain:
    """1/2 [[lambda, lambda]] + 1/4 D + 3/2 casimir_to_phi(c), for a c that
    its caller has found invariant; D is zero when h = 0.  The bracket term
    is -1/2 [lambda, d lambda] in Pol(BG, 1)."""
    P = PolyVectorAlgebra(g, 1)
    lam_el = P.from_cochain(lam)
    res = P.to_cochain(P.bracket(lam_el, P.d(lam_el)), 0, 3).scale(Fraction(-1, 2))
    phi = casimir_to_phi(g, c)
    return res + D.scale(Fraction(1, 4)) + phi.scale(LAMBDA_FORM_PHI_COEFF)


def _h_derivative(dr: DynamicalRMatrix) -> CECochain:
    """D = sum over a and the entries (i, j) of r of (h_a, i, j) d r_ij / d x_a:
    the derivative of r along h*, its new slot pushed into g, as a 3-vector."""
    entries = []
    for ((), (i, j)), coef in dr.tensor.items():
        if not isinstance(coef, RationalFunction):
            continue
        for h_global, name in zip(dr.split.h_indices, dr.variables):
            dc = coef.derivative(name)
            if not dc.is_zero():
                entries.append((((), (h_global, i, j)), dc))
    return CECochain.build(dr.split.g, 0, WEDGE(3), entries)


class DynamicalReport(NamedTuple):
    # per basis vector of h, the TENSOR(2) sum that vanishes when r is
    # equivariant along it
    equivariance_defects: Dict[str, CECochain]
    lam: CECochain  # degree 0, module WEDGE(2)
    c: Optional[CECochain]  # degree 0, module SYM(2); None unless constant
    # the least pair (i, j), i <= j, at which the symmetric part is not
    # constant, and its value there; None when it is constant
    nonconstant: Optional[Tuple[Tuple[int, int], Scalar]]
    invariance_residual: Optional[CECochain]  # d c; None unless c is constant
    cdybe_residual: CECochain  # degree 0, module TENSOR(3)
    lambda_form_residual: Optional[CECochain]
    # cdybe_residual - kappa_cybe embed(lambda_form_residual), zero when the
    # two criteria agree; None with lambda_form_residual
    criteria_defect: Optional[CECochain]

    @property
    def criteria_agree(self) -> Optional[bool]:
        return None if self.criteria_defect is None else self.criteria_defect.is_zero()

    @property
    def symmetric_part_constant(self) -> bool:
        return self.nonconstant is None

    @property
    def symmetric_part_invariant(self) -> bool:
        return self.invariance_residual is not None and self.invariance_residual.is_zero()

    @property
    def cdybe_holds(self) -> bool:
        return self.cdybe_residual.is_zero()

    @property
    def lambda_form_holds(self) -> Optional[bool]:
        if self.lambda_form_residual is None:
            return None
        return self.lambda_form_residual.is_zero()

    @property
    def passed(self) -> bool:
        return (
            all(t.is_zero() for t in self.equivariance_defects.values())
            and self.symmetric_part_constant
            and self.symmetric_part_invariant
            and self.cdybe_holds
        )


def _constant_value(coef: Scalar):
    if isinstance(coef, RationalFunction):
        if not coef.is_constant():
            return None
        return coef.constant_value()
    return Fraction(coef)


def dynamical_check(dr: DynamicalRMatrix) -> DynamicalReport:
    """The four checks of a quasi-triangular classical dynamical r-matrix."""
    split = dr.split
    g = split.g
    variables = dr.variables

    # (1) h-equivariance: total adjoint action matches the derivative term
    # along the coadjoint vector field of h* (zero for abelian h)
    defects: Dict[str, CECochain] = {}
    for a, h_global in enumerate(split.h_indices):
        entries = []
        for ((), (i, j)), coef in dr.tensor.items():
            for m, s in g.bracket(h_global, i).items():
                entries.append((((), (m, j)), s * coef))
            for m, s in g.bracket(h_global, j).items():
                entries.append((((), (i, m)), s * coef))
        # coadjoint flow: X_j(x) = -sum_k x_k <e^k, [xi_a, h_j]>
        flow_entries = []
        for j_local in range(split.dim_h):
            comps = split.f.get((a, j_local))
            if not comps:
                continue
            # velocity of coordinate x_j under xi_a
            vel = None
            for k_local, s in comps.items():
                term = RationalFunction.var(variables, variables[k_local]) * s
                vel = term if vel is None else vel + term
            vel = -vel
            for key, coef in dr.tensor.items():
                if isinstance(coef, RationalFunction):
                    dc = coef.derivative(variables[j_local])
                    if not dc.is_zero():
                        flow_entries.append((key, vel * dc))
        defects[g.basis[h_global]] = CECochain.build(
            g, 0, TENSOR(2), entries + [(k, -v) for k, v in flow_entries]
        )

    # (2) r = 2 lambda + c, with c constant and invariant
    lam = _antisymmetric_half(g, dr.tensor.items())
    sym = _symmetric_part_entries(dr.tensor.items())
    values = {key: _constant_value(coef) for key, coef in sym.items()}
    varying = min((key for key, v in values.items() if v is None), default=None)
    nonconstant = c = dc = None
    if varying is not None:
        nonconstant = (varying, sym[varying])
    else:
        c = CECochain(g, 0, SYM(2), {((), key): v for key, v in values.items()})
        dc = casimir_invariance_residual(g, c)

    # (3) CDYBE residual, with the derivative of r taken once
    D = _h_derivative(dr)
    residual = cybe(g, dr.tensor) + embed_wedge(D)

    # (4) lambda-form, when the symmetric part qualifies
    lf = defect = None
    if dc is not None and dc.is_zero():
        lf = lambda_form_residual(g, lam, c, D)
        defect = residual - embed_wedge(lf).scale(KAPPA_CYBE)
    return DynamicalReport(defects, lam, c, nonconstant, dc, residual, lf, defect)
