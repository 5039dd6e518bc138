"""Classical and dynamical r-matrices: CYBE, CDYBE and the lambda-form.

An element r of g (x) g splits as r = 2 lambda + c with c the symmetric
part and lambda the 2-multivector with embed(2 lambda) = r - c.  Under
the ledger conventions the exact identity

    cybe(r) + Alt(d_dR r) = 4 * embed( 1/2 schouten(lambda, lambda)
                                       + Alt_mv(d_dR lambda)
                                       + 3/2 casimir_to_phi(c) )

holds whenever c is constant and invariant; the proportionality constant
4 and the 3/2 in front of the associator were determined once on sl2 and
are re-verified on sl3 by the test suite.  The lambda-form criterion is
the vanishing of the right-hand bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError
from .lie import LieAlgebra, SplitSubalgebra, sym2_signature
from .polyvectors import schouten
from .qlb import casimir_invariance_residual, casimir_to_phi_unchecked
from .scalars import Polynomial, RationalFunction, Scalar, combine, is_zero
from .tensors import (
    KAPPA_CYBE,
    LAMBDA_FORM_PHI_COEFF,
    Multivector,
    SparseTensor,
    alt_tensor,
    embed_wedge,
    plain_signature,
)


@dataclass
class RMatrix:
    """Element of g (x) g with no symmetry assumptions."""

    tensor: SparseTensor

    def __post_init__(self):
        if self.tensor.sig.arity != 2 or any(g.kind != "none" for g in self.tensor.sig.groups):
            raise InputError("an r-matrix is a plain 2-tensor")

    @property
    def dim(self) -> int:
        return self.tensor.sig.dim


@dataclass
class DynamicalRMatrix:
    """Map U -> g (x) g with rational-function entries over coordinates on h*.

    The open locus U is described implicitly by the denominator
    polynomials; every coefficient denominator must divide a product of
    powers of these.
    """

    split: SplitSubalgebra  # base subalgebra h inside g
    variables: Tuple[str, ...]  # coordinates dual to the h basis
    tensor: SparseTensor  # g (x) g valued, RationalFunction entries
    locus: List[Polynomial] = field(default_factory=list)

    def __post_init__(self):
        if len(self.variables) != self.split.dim_h:
            raise InputError("one coordinate per basis vector of h is required")
        if self.tensor.sig.arity != 2:
            raise InputError("a dynamical r-matrix takes values in g (x) g")
        for key, coef in self.tensor.items():
            if isinstance(coef, RationalFunction):
                if coef.vars != self.variables:
                    raise InputError("coefficient over the wrong variable tuple")
                if not self._denominator_allowed(coef.den):
                    raise InputError(
                        f"denominator {coef.den} at {key} is not supported on the declared locus"
                    )

    def _denominator_allowed(self, den: Polynomial) -> bool:
        rem = den
        progress = True
        while progress and not rem.is_constant():
            progress = False
            for p in self.locus:
                q = rem.exact_div(p)
                if q is not None:
                    rem = q
                    progress = True
                    break
        return rem.is_constant()


def cybe(g: LieAlgebra, r: RMatrix) -> SparseTensor:
    """[r12, r13] + [r12, r23] + [r13, r23], by structure constants."""
    if r.dim != g.dim:
        raise InputError("r-matrix over the wrong space")
    entries = []
    terms = list(r.tensor.items())
    for (a1, b1), c1 in terms:
        for (a2, b2), c2 in terms:
            coef = c1 * c2
            for m, s in g.bracket(a1, a2).items():
                entries.append(((m, b1, b2), coef * s))  # [r12, r13]
            for m, s in g.bracket(b1, a2).items():
                entries.append(((a1, m, b2), coef * s))  # [r12, r23]
            for m, s in g.bracket(b1, b2).items():
                entries.append(((a1, a2, m), coef * s))  # [r13, r23]
    return SparseTensor.build(plain_signature(g.dim, 3), entries)


@dataclass
class SplitReport:
    lam: Multivector
    c: SparseTensor
    symmetric_part_invariant: bool
    invariance_residual_size: int


def _symmetric_part_entries(r_items) -> Dict[Tuple[int, int], Scalar]:
    return combine(
        ((min(i, j), max(i, j)), coef if i == j else coef * Fraction(1, 2))
        for (i, j), coef in r_items
    )


def _antisymmetric_half(g_dim: int, r_items) -> Multivector:
    # the unique lambda with embed(2 lambda) = r - sym(r):
    # lambda_{ij} = (r_{ij} - r_{ji}) / 4 on i < j
    return Multivector.build(
        g_dim,
        2,
        [((i, j), coef * Fraction(1, 4)) for (i, j), coef in r_items if i != j],
    )


def split_r(g: LieAlgebra, r: RMatrix) -> SplitReport:
    """r = 2 lambda + c: c = (r + r^T)/2, embed(2 lambda) = r - c."""
    c = SparseTensor.build(
        sym2_signature(g.dim), list(_symmetric_part_entries(r.tensor.items()).items())
    )
    lam = _antisymmetric_half(g.dim, r.tensor.items())
    residual = casimir_invariance_residual(g, c)
    return SplitReport(lam, c, residual.is_zero(), residual.support_size())


@dataclass
class QuasiTriangularReport:
    cybe_residual: SparseTensor
    split: SplitReport
    lambda_form_residual: Optional[Multivector]
    criteria_agree: Optional[bool]

    @property
    def cybe_holds(self) -> bool:
        return self.cybe_residual.is_zero()

    @property
    def lambda_form_holds(self) -> Optional[bool]:
        if self.lambda_form_residual is None:
            return None
        return self.lambda_form_residual.is_zero()

    @property
    def passed(self) -> bool:
        return self.cybe_holds and self.split.symmetric_part_invariant


def lambda_form_residual(
    g: LieAlgebra,
    lam: Multivector,
    c: SparseTensor,
    alt_mv: Optional[Multivector] = None,
) -> Multivector:
    """1/2 [[lambda, lambda]] + Alt(d_dR lambda) + 3/2 casimir_to_phi(c), for
    a c that its caller has found invariant."""
    res = schouten(g, lam, lam).scale(Fraction(1, 2))
    if alt_mv is not None:
        res = res + alt_mv
    phi = casimir_to_phi_unchecked(g, c)
    return res + phi.scale(LAMBDA_FORM_PHI_COEFF)


def quasitriangular_check(g: LieAlgebra, r: RMatrix) -> QuasiTriangularReport:
    """CYBE plus invariant symmetric part; also evaluates the lambda-form."""
    residual = cybe(g, r)
    sp = split_r(g, r)
    lf = None
    agree = None
    if sp.symmetric_part_invariant:
        lf = lambda_form_residual(g, sp.lam, sp.c)
        agree = residual == embed_wedge(lf).scale(KAPPA_CYBE)
    return QuasiTriangularReport(residual, sp, lf, agree)


# ---------------------------------------------------------------------------
# dynamical layer
# ---------------------------------------------------------------------------

def d_dr(t: SparseTensor, variables: Sequence[str]) -> SparseTensor:
    """Slot-wise exact derivative: a new leading slot indexed by h."""
    variables = tuple(variables)
    sig = plain_signature(t.sig.dim, t.sig.arity + 1, "up")
    entries = []
    for key, coef in t.expanded_items():
        if not isinstance(coef, RationalFunction):
            continue
        for a, name in enumerate(variables):
            dc = coef.derivative(name)
            if not dc.is_zero():
                entries.append(((a,) + key, dc))
    return SparseTensor.build(sig, entries)


def alt_ddr(split: SplitSubalgebra, t: SparseTensor) -> SparseTensor:
    """Push the leading h slot into g, then fully antisymmetrize (no 1/3!)."""
    if t.sig.arity != 3:
        raise InputError("alt_ddr expects an h (x) g (x) g tensor")
    g = split.g
    entries = []
    for (a, i, j), coef in t.expanded_items():
        if a >= split.dim_h:
            raise InputError("leading slot index outside h")
        entries.append(((split.h_indices[a], i, j), coef))
    pushed = SparseTensor.build(plain_signature(g.dim, 3), entries)
    return alt_tensor(pushed)


def alt_mv_of_derivative(split: SplitSubalgebra, r_tensor_entries) -> Multivector:
    """sum_k xi_k wedge (d lambda / d x_k) for lambda the antisymmetric half of r.

    Each r entry contributes a quarter: lambda_{ij} = (r_{ij} - r_{ji})/4
    and the wedge kills the symmetric part.
    """
    g = split.g
    entries = []
    for (i, j), coef in r_tensor_entries:
        if not isinstance(coef, RationalFunction):
            continue
        for a in range(split.dim_h):
            name = coef.vars[a]
            dc = coef.derivative(name)
            if not dc.is_zero():
                entries.append(((split.h_indices[a], i, j), dc * Fraction(1, 4)))
    return Multivector.build(g.dim, 3, entries)


@dataclass
class DynamicalReport:
    equivariance: Dict[str, bool]
    symmetric_part_constant: bool
    symmetric_part_invariant: bool
    cdybe_residual: SparseTensor
    lambda_form_residual: Optional[Multivector]
    criteria_agree: Optional[bool]

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
            all(self.equivariance.values())
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
    equivariance: Dict[str, bool] = {}
    for a, h_global in enumerate(split.h_indices):
        entries = []
        for (i, j), coef in dr.tensor.expanded_items():
            for m, s in g.bracket(h_global, i).items():
                entries.append(((m, j), s * coef))
            for m, s in g.bracket(h_global, j).items():
                entries.append(((i, m), s * coef))
        # coadjoint flow: X_j(x) = -sum_k x_k <e^k, [xi_a, h_j]>
        flow_entries = []
        for j_local in range(split.dim_h):
            comps = split.block("f", a, j_local)
            if not comps:
                continue
            # velocity of coordinate x_j under xi_a
            vel = None
            for k_local, s in comps.items():
                term = RationalFunction.var(variables, variables[k_local]) * s
                vel = term if vel is None else vel + term
            if vel is None:
                continue
            vel = -vel
            for (i, j), coef in dr.tensor.expanded_items():
                if isinstance(coef, RationalFunction):
                    dc = coef.derivative(variables[j_local])
                    if not dc.is_zero():
                        flow_entries.append(((i, j), vel * dc))
        total = SparseTensor.build(
            plain_signature(g.dim, 2),
            entries + [(k, -v) for k, v in flow_entries],
        )
        equivariance[g.basis[h_global]] = total.is_zero()

    # (2) symmetric part constant and invariant
    constant = True
    c_entries = {}
    for key, coef in _symmetric_part_entries(dr.tensor.items()).items():
        value = _constant_value(coef)
        if value is None:
            constant = False
        else:
            c_entries[key] = value
    invariant = False
    c = None
    if constant:
        c = SparseTensor.build(sym2_signature(g.dim), list(c_entries.items()))
        invariant = casimir_invariance_residual(g, c).is_zero()

    # (3) CDYBE residual
    rm = RMatrix(dr.tensor)
    residual = cybe(g, rm) + alt_ddr(split, d_dr(dr.tensor, variables))

    # (4) lambda-form, when the symmetric part qualifies
    lf = None
    agree = None
    if constant and invariant:
        lam = _antisymmetric_half(g.dim, dr.tensor.items())
        alt_mv = alt_mv_of_derivative(split, list(dr.tensor.items()))
        lf = lambda_form_residual(g, lam, c, alt_mv)
        agree = residual == embed_wedge(lf).scale(KAPPA_CYBE)
    return DynamicalReport(equivariance, constant, invariant, residual, lf, agree)
