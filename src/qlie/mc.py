"""Weight-graded dg Lie algebras and Maurer-Cartan machinery.

Degrees are stored in the shifted convention in which Maurer-Cartan
elements live in degree 1: the differential has bidegree (+1, 0), the
bracket (0, -1).  Vectors are sparse dicts keyed by polyvector monomials
(``polyvectors.Mono``), and the differential and the bracket are taken on
the supports of their arguments: nothing is enumerated to compute a
residual, so there is no dimension limit.  A slice is a (degree, weight)
predicate; for ``pol_bg`` the slice (d, w) holds the cochains of CE degree
k = d + (n+1) - n w, and it exists when 0 <= k <= dim g and w >= 2.  Only
the checks that are about a finite basis (``check_bracket_laws``,
``check_differential_squares_to_zero``, ``bracket_structure`` and
``formats.dgla_to_dict``) list one, through ``window``.

The gauge ODE is checked in the orientation

    d alpha / dt = D lambda + [alpha(t), lambda]

of the differential and bracket, which is the orientation under which the
integrated twist path solves the equation; the opposite orientation is
the relabeling lambda -> -lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .errors import InputError
from .lie import CECochain, LieAlgebra
from .polyvectors import Element, Mono, PolyVectorAlgebra
from .scalars import Scalar, vec_add, vec_scale
from .tensors import Multivector, SparseTensor

Vec = Element  # sparse coefficient vector keyed by polyvector monomials
SliceKey = Tuple[int, int]  # (shifted degree, weight)
StructureMap = Dict[Tuple[Mono, Mono], Vec]  # (m1, m2) -> [m1, m2]

# the weight bound of gauge paths and of the finite window
MAX_WEIGHT = 4


class WeightGradedDGLA:
    """A weight-graded dg Lie algebra given by its structure maps.

    in_slice(key) says whether the slice key = (d, w) exists; diff(v) and
    bracket(v1, v2) are the differential and the bracket on sparse
    vectors.  A bracket of slices k1 and k2 lands in (d1 + d2, w1 + w2 - 1).
    """

    # the polyvector algebra of a ``pol_bg`` model, recorded by ``pol_bg``
    # and read by the tensor translations and ``window``
    P: PolyVectorAlgebra

    def __init__(
        self,
        name: str,
        in_slice: Callable[[SliceKey], bool],
        diff: Callable[[Vec], Vec],
        bracket: Callable[[Vec, Vec], Vec],
    ):
        self.name = name
        self.in_slice = in_slice
        self._diff = diff
        self._bracket = bracket

    def apply_diff(self, key: SliceKey, vec: Vec) -> Vec:
        if not vec or not self.in_slice(key):
            return {}
        return self._diff(vec)

    def apply_bracket(self, k1: SliceKey, v1: Vec, k2: SliceKey, v2: Vec) -> Vec:
        if not v1 or not v2 or not self.in_slice(k1) or not self.in_slice(k2):
            return {}
        return self._bracket(v1, v2)

    # -- checks on the finite window --------------------------------------------

    def bracket_structure(self, k1: SliceKey, k2: SliceKey) -> StructureMap:
        """The nonzero brackets of window basis vectors of two slices, computed afresh."""
        bases = window(self)
        one = Fraction(1)
        out: StructureMap = {}
        for m1 in bases.get(k1, []):
            for m2 in bases.get(k2, []):
                img = self.apply_bracket(k1, {m1: one}, k2, {m2: one})
                if img:
                    out[(m1, m2)] = img
        return out

    def check_differential_squares_to_zero(self) -> bool:
        one = Fraction(1)
        for (d, w), monos in window(self).items():
            for m in monos:
                if self.apply_diff((d + 1, w), self.apply_diff((d, w), {m: one})):
                    return False
        return True

    def check_bracket_laws(self) -> bool:
        """Graded antisymmetry and Jacobi on every basis triple of the window."""
        one = Fraction(1)
        pool = [(k, {m: one}) for k, monos in window(self).items() for m in monos]
        br = self.apply_bracket
        for (k1, u1) in pool:
            for (k2, u2) in pool:
                # law: [a, b] = -(-1)^{d1 d2} [b, a] in shifted degrees
                sign = (-1) ** (k1[0] * k2[0])
                if vec_add(br(k1, u1, k2, u2), br(k2, u2, k1, u1), Fraction(sign)):
                    return False
        for (k1, u1) in pool:
            for (k2, u2) in pool:
                k12 = _sum_key(k1, k2)
                u12 = br(k1, u1, k2, u2)
                sign = Fraction((-1) ** (k1[0] * k2[0]))
                for (k3, u3) in pool:
                    lhs = br(k1, u1, _sum_key(k2, k3), br(k2, u2, k3, u3))
                    t1 = br(k12, u12, k3, u3)
                    t2 = vec_scale(br(k2, u2, _sum_key(k1, k3), br(k1, u1, k3, u3)), sign)
                    if vec_add(lhs, vec_add(t1, t2), Fraction(-1)):
                        return False
        return True


def _sum_key(k1: SliceKey, k2: SliceKey) -> SliceKey:
    return (k1[0] + k2[0], k1[1] + k2[1] - 1)


def _ce_degree(shift: int, key: SliceKey) -> int:
    """The CE degree of the cochains in the shifted slice key = (d, w)."""
    d, w = key
    return d + (shift + 1) - shift * w


def window(L: WeightGradedDGLA) -> Dict[SliceKey, List[Mono]]:
    """The finite window of a ``pol_bg`` algebra, for the checks that need a basis.

    Slices (d, w) with d in 0..3 and w in 2..MAX_WEIGHT, in sorted key
    order, each with ``P.slice_basis`` as its basis; empty slices are
    left out.  Their CE degree is at most 3, so no degree cut is needed.
    """
    P = L.P
    out: Dict[SliceKey, List[Mono]] = {}
    for d in range(4):
        for w in range(2, MAX_WEIGHT + 1):
            if L.in_slice((d, w)):
                monos = P.slice_basis(_ce_degree(P.n, (d, w)), w)
                if monos:
                    out[(d, w)] = monos
    return out


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
    """The weight >= 2 polyvector dg Lie algebra of the classifying stack.

    Its vectors are CE cochains with polyvector coefficients, the
    differential is the Chevalley-Eilenberg one, the bracket the big
    bracket; degrees are shifted so Maurer-Cartan elements sit in degree 1.
    """
    P = PolyVectorAlgebra(g, shift)

    def in_slice(key: SliceKey) -> bool:
        return key[1] >= 2 and 0 <= _ce_degree(shift, key) <= g.dim

    L = WeightGradedDGLA(f"Pol(B{g.name}, {shift})[>=2]", in_slice, P.d, P.bracket)
    L.P = P
    return L
