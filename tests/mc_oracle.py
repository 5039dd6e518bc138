"""Independent Maurer-Cartan computations, the oracles of `qlie.mc` and `qlie.qlb`.

The library takes the Maurer-Cartan residual d x + 1/2 [x, x] once over
the whole element x (`mc.mc_residual`), and `check_qlb` reads its weights.
The computations here take it apart instead:

* `check_qlb_by_weight` forms the three quasi-Lie bialgebra residuals one
  by one from delta and phi;
* `mc_poly_residual` forms it weight by weight, with the full bracket of
  each pair of weight components and x a polynomial in t;
* `full_residual` forms d x + 1/2 [x, x] with the generator-list kernel
  (`polyvector_oracle`), over every ordered pair of monomials and both
  contraction directions;
* `gauge_verify` checks a polynomial gauge path alpha(t) from x to y
  generated by lambda, and `twist_path` integrates the path of a twist,
  so that `qlb.twist` is checked against the gauge action it integrates.

The gauge ODE is checked in the orientation

    d alpha / dt = D lambda + [alpha(t), lambda]

of the differential and bracket, under which the integrated twist path
solves the equation; the opposite orientation is the relabeling
lambda -> -lambda.  Elements are sparse dicts keyed by polyvector
monomials; an element stored per weight is a dict {weight: element}.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

import polyvector_oracle as old
from qlie.errors import InputError
from qlie.polyvectors import Element, PolyVectorAlgebra
from qlie.qlb import QLBResiduals, QuasiLieBialgebra, Twist, twist
from qlie.scalars import Scalar, vec_add, vec_scale

# the weight bound of gauge paths
MAX_WEIGHT = 4

ByWeight = Dict[int, Element]
# polynomial-in-t elements: list of Element, index = power of t
Poly = List[Element]


def check_qlb_by_weight(q: QuasiLieBialgebra) -> QLBResiduals:
    """d delta, d phi + 1/2 [delta, delta] and [delta, phi], each on its own."""
    P = PolyVectorAlgebra(q.g, 1)
    delta_el = P.from_cochain(q.delta)
    phi_el = P.from_cochain(q.phi)
    res1 = P.to_cochain(P.d(delta_el), 2, 2)
    res2 = P.to_cochain(vec_add(P.d(phi_el), P.bracket(delta_el, delta_el), Fraction(1, 2)), 1, 3)
    res3 = P.to_cochain(P.bracket(delta_el, phi_el), 0, 4)
    return QLBResiduals(res1, res2, res3)


def structure_by_weight(P: PolyVectorAlgebra, delta, phi) -> ByWeight:
    """(delta, phi) per weight in Pol(BG, 1): weights 2 and 3."""
    comps = {2: P.from_cochain(delta), 3: P.from_cochain(phi)}
    return {w: el for w, el in comps.items() if el}


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


def _poly_eval(a: Poly, t: Fraction) -> Element:
    out: Element = {}
    power = Fraction(1)
    for coef in a:
        out = vec_add(out, coef, power)
        power *= t
    return out


def mc_poly_residual(P: PolyVectorAlgebra, alpha: Dict[int, Poly]) -> Dict[int, Poly]:
    """d alpha + 1/2 [alpha, alpha] per weight, as polynomials in t; zero
    weights left out.  Weight w collects d alpha_w and 1/2 [alpha_w1, alpha_w2]
    over all ordered pairs with w1 + w2 - 1 = w."""
    weights = sorted(alpha)
    targets = sorted(set(weights) | {w1 + w2 - 1 for w1 in weights for w2 in weights})
    out: Dict[int, Poly] = {}
    for w in targets:
        acc = [P.d(coef) for coef in alpha.get(w, [])]
        for w1 in weights:
            p1, p2 = alpha[w1], alpha.get(w + 1 - w1, [])
            conv: Poly = [{} for _ in range(max(len(p1) + len(p2) - 1, 0))]
            for a_pow, va in enumerate(p1):
                for b_pow, vb in enumerate(p2):
                    conv[a_pow + b_pow] = vec_add(conv[a_pow + b_pow], P.bracket(va, vb), Fraction(1, 2))
            acc = _poly_add(acc, conv)
        if not _poly_is_zero(acc):
            out[w] = acc
    return out


def mc_residual_by_weight(P: PolyVectorAlgebra, x: ByWeight):
    """The residual of the constant path x, decoded like `mc.mc_residual`."""
    res = mc_poly_residual(P, {w: [el] for w, el in x.items()})
    return {w: P.to_cochain(poly[0], P.n + 3 - P.n * w, w) for w, poly in res.items()}


def full_residual(P: PolyVectorAlgebra, x: Element):
    """d x + 1/2 [x, x] from the generator-list kernel, decoded like
    `mc.mc_residual`; zero weights left out."""
    by_weight: ByWeight = {}
    for mono, c in vec_add(old.d(P, x), old.bracket(P, x, x), Fraction(1, 2)).items():
        by_weight.setdefault(len(mono[1]), {})[mono] = c
    return {w: P.to_cochain(el, P.n + 3 - P.n * w, w) for w, el in sorted(by_weight.items())}


@dataclass
class GaugePath:
    """Degree-0 element lambda with a polynomial family alpha(t), both per weight."""

    lam: ByWeight
    alpha: Dict[int, Poly]


@dataclass
class GaugeReport:
    endpoints_match: bool
    ode_holds: bool
    stays_maurer_cartan: bool

    @property
    def passed(self) -> bool:
        return self.endpoints_match and self.ode_holds and self.stays_maurer_cartan


def gauge_verify(P: PolyVectorAlgebra, x: ByWeight, y: ByWeight, path: GaugePath) -> GaugeReport:
    max_deg = max((len(p) for p in path.alpha.values()), default=1)
    if max_deg - 1 > MAX_WEIGHT:
        raise InputError("gauge path degree exceeds the weight cutoff")
    weights = sorted(set(path.alpha) | set(x) | set(y))

    endpoints = True
    for w in weights:
        poly = path.alpha.get(w, [])
        if vec_add(_poly_eval(poly, Fraction(0)), x.get(w, {}), Fraction(-1)):
            endpoints = False
        if vec_add(_poly_eval(poly, Fraction(1)), y.get(w, {}), Fraction(-1)):
            endpoints = False

    # ODE: d alpha/dt - D lambda - [alpha(t), lambda] == 0 per weight and t power
    ode = True
    lam = path.lam
    ode_weights = set(weights) | set(lam) | {w1 + w2 - 1 for w1 in path.alpha for w2 in lam}
    for w in sorted(ode_weights):
        poly = path.alpha.get(w, [])
        ddt: Poly = [vec_scale(poly[k], Fraction(k)) for k in range(1, len(poly))]
        rhs: Poly = [P.d(lam.get(w, {}))]
        for w1, poly1 in path.alpha.items():
            lam_el = lam.get(w + 1 - w1, {})
            rhs = _poly_add(rhs, [P.bracket(coef, lam_el) for coef in poly1])
        if not _poly_is_zero(_poly_add(ddt, rhs, Fraction(-1))):
            ode = False

    # alpha(t) must satisfy the Maurer-Cartan equation identically in t
    mc_ok = not mc_poly_residual(P, path.alpha)
    return GaugeReport(endpoints, ode, mc_ok)


def twist_path(P: PolyVectorAlgebra, delta0, phi0, lam):
    """The integrated gauge path of a twist, with y the output of `qlb.twist`:
    delta(t) = delta0 + t d(lam), phi(t) = phi0 + t [delta0, lam] + t^2/2 [d lam, lam]."""
    lam_el = P.from_cochain(lam)
    d_lam = P.d(lam_el)

    x = structure_by_weight(P, delta0, phi0)
    q1 = twist(QuasiLieBialgebra(P.g, delta0, phi0), Twist(lam))
    y = structure_by_weight(P, q1.delta, q1.phi)

    alpha: Dict[int, Poly] = {
        2: [x.get(2, {}), d_lam],
        3: [
            x.get(3, {}),
            P.bracket(P.from_cochain(delta0), lam_el),
            vec_scale(P.bracket(d_lam, lam_el), Fraction(1, 2)),
        ],
    }
    lam_by_weight = {2: lam_el} if lam_el else {}
    return x, y, GaugePath(lam_by_weight, alpha)
