"""Pol(BG, n) as a weight-graded dg Lie algebra, and Maurer-Cartan machinery.

Degrees are stored in the shifted convention in which Maurer-Cartan
elements live in degree 1: the differential has bidegree (+1, 0), the
bracket (0, -1).  Vectors are sparse dicts keyed by polyvector monomials
(``polyvectors.Mono``), and the differential and the bracket are taken on
the supports of their arguments: nothing is enumerated to compute a
residual, so there is no dimension limit.  A slice is a (degree, weight)
predicate: the slice (d, w) holds the cochains of CE degree
k = d + (n+1) - n w, and it exists when 0 <= k <= dim g and w >= 2.  No
slice basis is ever listed.

The gauge ODE is checked in the orientation

    d alpha / dt = D lambda + [alpha(t), lambda]

of the differential and bracket, which is the orientation under which the
integrated twist path solves the equation; the opposite orientation is
the relabeling lambda -> -lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import InputError
from .lie import CECochain, LieAlgebra
from .polyvectors import Element, PolyVectorAlgebra
from .scalars import Scalar, vec_add, vec_scale
from .tensors import Multivector, SparseTensor

Vec = Element  # sparse coefficient vector keyed by polyvector monomials
SliceKey = Tuple[int, int]  # (shifted degree, weight)

# the weight bound of gauge paths
MAX_WEIGHT = 4


class WeightGradedDGLA:
    """The weight >= 2 polyvector dg Lie algebra Pol(BG, n) of a Lie algebra g.

    Its vectors are CE cochains with polyvector coefficients, the
    differential is the Chevalley-Eilenberg one, the bracket the big
    bracket, both those of ``P = PolyVectorAlgebra(g, n)``; degrees are
    shifted so Maurer-Cartan elements sit in degree 1.  A bracket of
    slices k1 and k2 lands in (d1 + d2, w1 + w2 - 1).
    """

    def __init__(self, g: LieAlgebra, shift: int):
        self.P = PolyVectorAlgebra(g, shift)
        self.name = f"Pol(B{g.name}, {shift})[>=2]"

    def in_slice(self, key: SliceKey) -> bool:
        return key[1] >= 2 and 0 <= _ce_degree(self.P.n, key) <= self.P.g.dim

    def apply_diff(self, key: SliceKey, vec: Vec) -> Vec:
        if not vec or not self.in_slice(key):
            return {}
        return self.P.d(vec)

    def apply_bracket(self, k1: SliceKey, v1: Vec, k2: SliceKey, v2: Vec) -> Vec:
        if not v1 or not v2 or not self.in_slice(k1) or not self.in_slice(k2):
            return {}
        return self.P.bracket(v1, v2)


def _ce_degree(shift: int, key: SliceKey) -> int:
    """The CE degree of the cochains in the shifted slice key = (d, w)."""
    d, w = key
    return d + (shift + 1) - shift * w


@dataclass
class MCElement:
    """Degree-1 element stored per weight."""

    comps: Dict[int, Vec] = field(default_factory=dict)

    def weight(self, w: int) -> Vec:
        return self.comps.get(w, {})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MCElement):
            return NotImplemented
        weights = set(self.comps) | set(other.comps)
        return not any(vec_add(self.weight(w), other.weight(w), Fraction(-1)) for w in weights)


def mc_residual(L: WeightGradedDGLA, x: MCElement) -> Dict[int, Vec]:
    """d x + 1/2 [x, x], componentwise by weight."""
    for w in x.comps:
        if w < 2:
            raise InputError("Maurer-Cartan elements live in weights >= 2")
        if not L.in_slice((1, w)):
            raise InputError(f"there is no degree-1 slice at weight {w}")
    res = _mc_poly_residual(L, {w: [vec] for w, vec in x.comps.items() if vec})
    return {w: poly[0] for w, poly in res.items()}


def mc_residual_is_zero(res: Dict[int, Vec]) -> bool:
    return not any(res.values())


# polynomial-in-t vectors: list of Vec, index = power of t
Poly = List[Vec]


def _poly_weight(path_alpha: Dict[int, Poly], w: int) -> Poly:
    return path_alpha.get(w, [])


def _poly_add(a: Poly, b: Poly, scale: Scalar = Fraction(1)) -> Poly:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        va = a[i] if i < len(a) else {}
        vb = b[i] if i < len(b) else {}
        out.append(vec_add(va, vb, scale))
    return out


def _poly_is_zero(a: Poly) -> bool:
    return not any(a)


def _poly_eval(a: Poly, t: Fraction) -> Vec:
    out: Vec = {}
    power = Fraction(1)
    for coef in a:
        out = vec_add(out, coef, power)
        power *= t
    return out


@dataclass
class GaugePath:
    """Degree-0 element lambda with a polynomial family alpha(t)."""

    lam: Dict[int, Vec]
    alpha: Dict[int, Poly]


@dataclass
class GaugeReport:
    endpoints_match: bool
    ode_holds: bool
    stays_maurer_cartan: bool

    @property
    def passed(self) -> bool:
        return self.endpoints_match and self.ode_holds and self.stays_maurer_cartan


def _mc_poly_residual(L: WeightGradedDGLA, alpha: Dict[int, Poly]) -> Dict[int, Poly]:
    """d alpha + 1/2 [alpha, alpha] per weight, as polynomials in t; zero weights left out."""
    weights = sorted(alpha)
    targets = sorted(set(weights) | {w1 + w2 - 1 for w1 in weights for w2 in weights})
    out: Dict[int, Poly] = {}
    for w in targets:
        if not L.in_slice((2, w)):
            continue
        acc = [L.apply_diff((1, w), coef) for coef in _poly_weight(alpha, w)]
        for w1 in weights:
            w2 = w + 1 - w1
            p1, p2 = alpha[w1], _poly_weight(alpha, w2)
            conv: Poly = [{} for _ in range(max(len(p1) + len(p2) - 1, 0))]
            for a_pow, va in enumerate(p1):
                for b_pow, vb in enumerate(p2):
                    conv[a_pow + b_pow] = vec_add(
                        conv[a_pow + b_pow],
                        L.apply_bracket((1, w1), va, (1, w2), vb),
                        Fraction(1, 2),
                    )
            acc = _poly_add(acc, conv)
        if not _poly_is_zero(acc):
            out[w] = acc
    return out


def gauge_verify(L: WeightGradedDGLA, x: MCElement, y: MCElement, path: GaugePath) -> GaugeReport:
    max_deg = max((len(p) for p in path.alpha.values()), default=1)
    if max_deg - 1 > MAX_WEIGHT:
        raise InputError("gauge path degree exceeds the weight cutoff")
    weights = sorted(set(path.alpha) | set(x.comps) | set(y.comps))

    endpoints = True
    for w in weights:
        poly = _poly_weight(path.alpha, w)
        a0 = _poly_eval(poly, Fraction(0))
        a1 = _poly_eval(poly, Fraction(1))
        if vec_add(a0, x.weight(w), Fraction(-1)):
            endpoints = False
        if vec_add(a1, y.weight(w), Fraction(-1)):
            endpoints = False

    # ODE: d alpha/dt - D lambda - [alpha(t), lambda] == 0 per degree-1 slice and t power
    ode = True
    lam = path.lam
    ode_weights = set(weights) | set(lam) | {w1 + w2 - 1 for w1 in path.alpha for w2 in lam}
    for w in sorted(ode_weights):
        if not L.in_slice((1, w)):
            continue
        poly = _poly_weight(path.alpha, w)
        ddt: Poly = [vec_scale(poly[k], Fraction(k)) for k in range(1, len(poly))]
        rhs: Poly = [L.apply_diff((0, w), lam.get(w, {}))]
        for w1, poly1 in path.alpha.items():
            w2 = w + 1 - w1
            lam_vec = lam.get(w2, {})
            rhs = _poly_add(rhs, [L.apply_bracket((1, w1), coef, (0, w2), lam_vec) for coef in poly1])
        if not _poly_is_zero(_poly_add(ddt, rhs, Fraction(-1))):
            ode = False

    # alpha(t) must satisfy the Maurer-Cartan equation identically in t
    mc_ok = not _mc_poly_residual(L, path.alpha)
    return GaugeReport(endpoints, ode, mc_ok)


# ---------------------------------------------------------------------------
# polyvector models of classifying stacks
# ---------------------------------------------------------------------------

def encode_structure(L: WeightGradedDGLA, delta: CECochain, phi: Multivector) -> MCElement:
    """(delta, phi) as a degree-1 element of Pol(BG, 1): weights 2 and 3."""
    P = L.P
    if P.n != 1:
        raise InputError("(delta, phi) encodes at shift 1")
    comps = {2: P.from_cochain(delta), 3: P.from_multivector(phi)}
    return MCElement({w: el for w, el in comps.items() if el})


def encode_casimir(L: WeightGradedDGLA, c: SparseTensor) -> MCElement:
    """A symmetric 2-tensor as a degree-1 element of Pol(BG, 2) at weight 2."""
    P = L.P
    if P.n != 2:
        raise InputError("a Casimir element encodes at shift 2")
    el = P.from_sym_tensor(c)
    return MCElement({2: el} if el else {})


def decode_residual(L: WeightGradedDGLA, res: Dict[int, Vec]) -> Dict[int, CECochain]:
    """The degree-2 residual components as CE cochains, by weight."""
    P = L.P
    return {w: P.to_cochain(el, _ce_degree(P.n, (2, w)), w) for w, el in res.items() if el}


def twist_path(L: WeightGradedDGLA, delta0: CECochain, phi0: Multivector, lam: Multivector):
    """The integrated gauge path of a twist:
    delta(t) = delta0 + t d(lam), phi(t) = phi0 + t [delta0, lam] + t^2/2 [d lam, lam]."""
    from .qlb import QuasiLieBialgebra, Twist, twist as twist_op

    P = L.P
    lam_el = P.from_multivector(lam)
    d_lam = P.d(lam_el)

    x = encode_structure(L, delta0, phi0)
    q1 = twist_op(QuasiLieBialgebra(P.g, delta0, phi0), Twist(lam), validate=False)
    y = encode_structure(L, q1.delta, q1.phi)

    alpha: Dict[int, Poly] = {
        2: [x.weight(2), d_lam],
        3: [
            x.weight(3),
            P.bracket(P.from_cochain(delta0), lam_el),
            vec_scale(P.bracket(d_lam, lam_el), Fraction(1, 2)),
        ],
    }
    lam_vec = {2: lam_el} if lam_el else {}
    return x, y, GaugePath(lam_vec, alpha)


def pol_bg(g: LieAlgebra, shift: int) -> WeightGradedDGLA:
    """Pol(BG, shift) in weights >= 2 (see ``WeightGradedDGLA``)."""
    return WeightGradedDGLA(g, shift)
