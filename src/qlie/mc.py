"""Finite weight-graded dg Lie algebras and Maurer-Cartan machinery.

Degrees are stored in the shifted convention in which Maurer-Cartan
elements live in degree 1: the differential has bidegree (+1, 0), the
bracket (0, -1).  The gauge ODE is checked in the orientation

    d alpha / dt = D lambda + [alpha(t), lambda]

of the differential and bracket, which is the orientation under which the
integrated twist path solves the equation; the opposite orientation is
the relabeling lambda -> -lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .errors import InputError, WindowOverflowError
from .lie import CECochain, LieAlgebra
from .polyvectors import Element, Mono, PolyVectorAlgebra
from .scalars import Scalar, is_zero
from .tensors import Multivector, SparseTensor

Vec = Dict[int, Scalar]  # sparse coefficient vector over a slice basis
SliceKey = Tuple[int, int]  # (shifted degree, weight)
StructureMap = Dict[Tuple[int, int], Vec]  # (i, j) -> output vector
BracketFn = Callable[[SliceKey, Vec, SliceKey, Vec], Vec]


def _vec_add(a: Vec, b: Vec, scale: Scalar = Fraction(1)) -> Vec:
    out = dict(a)
    for i, c in b.items():
        v = out.get(i, Fraction(0)) + scale * c
        if is_zero(v):
            out.pop(i, None)
        else:
            out[i] = v
    return out


def _vec_scale(a: Vec, c: Scalar) -> Vec:
    if is_zero(c):
        return {}
    return {i: c * v for i, v in a.items()}


def _vec_is_zero(a: Vec) -> bool:
    return not a


class WeightGradedDGLA:
    """Finite presentation of a weight-graded dg Lie algebra.

    bases[(d, w)] is an ordered list of opaque basis labels; diff[(d, w)]
    holds the image of each basis vector in the (d+1, w) slice.  The
    bracket is the callable bracket(k1, v1, k2, v2), which takes two
    nonzero vectors on the slices k1 and k2 and returns their bracket on
    the slice (d1 + d2, w1 + w2 - 1).  It is evaluated on the supports of
    its arguments only; no structure map is built or stored.
    """

    def __init__(
        self,
        name: str,
        bases: Dict[SliceKey, List],
        diff: Dict[SliceKey, List[Vec]],
        bracket: BracketFn,
        max_weight: int = 4,
    ):
        self.name = name
        self.bases = {k: list(v) for k, v in bases.items()}
        self.diff = {k: [dict(col) for col in v] for k, v in diff.items()}
        self._bracket = bracket
        self.max_weight = max_weight
        for (d, w), cols in self.diff.items():
            if len(cols) != len(self.bases.get((d, w), [])):
                raise InputError("differential shape mismatch")

    def dim(self, key: SliceKey) -> int:
        return len(self.bases.get(key, []))

    def weights(self) -> List[int]:
        return sorted({w for (_, w) in self.bases})

    def slice_weights(self, degree: int) -> List[int]:
        return sorted(w for (d, w) in self.bases if d == degree)

    def apply_diff(self, key: SliceKey, vec: Vec) -> Vec:
        cols = self.diff.get(key)
        if cols is None:
            return {}
        out: Vec = {}
        for i, c in vec.items():
            for j, cc in cols[i].items():
                v = out.get(j, Fraction(0)) + c * cc
                if is_zero(v):
                    out.pop(j, None)
                else:
                    out[j] = v
        return out

    def bracket_structure(self, k1: SliceKey, k2: SliceKey) -> StructureMap:
        """The nonzero brackets of basis vectors of two slices, computed afresh."""
        one = Fraction(1)
        out: StructureMap = {}
        for i in range(self.dim(k1)):
            for j in range(self.dim(k2)):
                img = self.apply_bracket(k1, {i: one}, k2, {j: one})
                if img:
                    out[(i, j)] = img
        return out

    def apply_bracket(self, k1: SliceKey, v1: Vec, k2: SliceKey, v2: Vec) -> Vec:
        if not v1 or not v2 or k1 not in self.bases or k2 not in self.bases:
            return {}
        return self._bracket(k1, v1, k2, v2)

    # -- structural validation ----------------------------------------------

    def check_differential_squares_to_zero(self) -> bool:
        for (d, w), cols in self.diff.items():
            for i in range(len(cols)):
                img = self.apply_diff((d, w), {i: Fraction(1)})
                if not _vec_is_zero(self.apply_diff((d + 1, w), img)):
                    return False
        return True

    def _sum_key(self, k1: SliceKey, k2: SliceKey) -> SliceKey:
        return (k1[0] + k2[0], k1[1] + k2[1] - 1)

    def check_bracket_laws(self, slices: Optional[List[SliceKey]] = None) -> bool:
        """Graded antisymmetry and Jacobi on basis triples of the slices."""
        if slices is None:
            slices = sorted(self.bases)
        pool = [(k, i) for k in slices for i in range(self.dim(k))]
        br = self.apply_bracket
        one = Fraction(1)
        for (k1, i1) in pool:
            for (k2, i2) in pool:
                lhs = br(k1, {i1: one}, k2, {i2: one})
                rhs = br(k2, {i2: one}, k1, {i1: one})
                # law: [a, b] = -(-1)^{d1 d2} [b, a] in shifted degrees
                sign = (-1) ** (k1[0] * k2[0])
                if not _vec_is_zero(_vec_add(lhs, rhs, Fraction(sign))):
                    return False
        for (k1, i1) in pool:
            for (k2, i2) in pool:
                for (k3, i3) in pool:
                    k23 = self._sum_key(k2, k3)
                    k12 = self._sum_key(k1, k2)
                    k13 = self._sum_key(k1, k3)
                    lhs = br(k1, {i1: one}, k23, br(k2, {i2: one}, k3, {i3: one}))
                    t1 = br(k12, br(k1, {i1: one}, k2, {i2: one}), k3, {i3: one})
                    sign = (-1) ** (k1[0] * k2[0])
                    t2 = _vec_scale(
                        br(k2, {i2: one}, k13, br(k1, {i1: one}, k3, {i3: one})),
                        Fraction(sign),
                    )
                    if not _vec_is_zero(_vec_add(lhs, _vec_add(t1, t2), Fraction(-1))):
                        return False
        return True


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
        return all(
            _vec_is_zero(_vec_add(self.weight(w), other.weight(w), Fraction(-1)))
            for w in weights
        )


def mc_residual(L: WeightGradedDGLA, x: MCElement) -> Dict[int, Vec]:
    """d x + 1/2 [x, x], componentwise by weight."""
    for w in x.comps:
        if w < 2:
            raise InputError("Maurer-Cartan elements live in weights >= 2")
        if (1, w) not in L.bases:
            raise InputError(f"degree-1 slice at weight {w} is outside the window")
    out: Dict[int, Vec] = {}
    for (d, w) in list(L.bases):
        if d != 2:
            continue
        acc = L.apply_diff((1, w), x.weight(w))
        for w1 in L.slice_weights(1):
            w2 = w + 1 - w1
            if (1, w2) not in L.bases:
                continue
            br = L.apply_bracket((1, w1), x.weight(w1), (1, w2), x.weight(w2))
            acc = _vec_add(acc, br, Fraction(1, 2))
        if acc:
            out[w] = acc
    return out


def mc_residual_is_zero(res: Dict[int, Vec]) -> bool:
    return all(_vec_is_zero(v) for v in res.values())


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
        out.append(_vec_add(va, vb, scale))
    return out


def _poly_is_zero(a: Poly) -> bool:
    return all(_vec_is_zero(v) for v in a)


def _poly_eval(a: Poly, t: Fraction) -> Vec:
    out: Vec = {}
    power = Fraction(1)
    for coef in a:
        out = _vec_add(out, coef, power)
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


def gauge_verify(L: WeightGradedDGLA, x: MCElement, y: MCElement, path: GaugePath) -> GaugeReport:
    max_deg = max((len(p) for p in path.alpha.values()), default=1)
    if max_deg - 1 > L.max_weight:
        raise InputError("gauge path degree exceeds the weight cutoff")
    weights = sorted(set(L.slice_weights(1)) | set(path.alpha) | set(x.comps) | set(y.comps))

    endpoints = True
    for w in weights:
        poly = _poly_weight(path.alpha, w)
        a0 = _poly_eval(poly, Fraction(0))
        a1 = _poly_eval(poly, Fraction(1))
        if not _vec_is_zero(_vec_add(a0, x.weight(w), Fraction(-1))):
            endpoints = False
        if not _vec_is_zero(_vec_add(a1, y.weight(w), Fraction(-1))):
            endpoints = False

    # ODE: d alpha/dt - D lambda - [alpha(t), lambda] == 0 per weight and t power
    ode = True
    for w in weights:
        if (2, w) in L.bases or (1, w) in L.bases:
            poly = _poly_weight(path.alpha, w)
            ddt: Poly = []
            for k in range(1, len(poly)):
                ddt.append(_vec_scale(poly[k], Fraction(k)))
            rhs: Poly = []
            for w2, lam_vec in path.lam.items():
                if (0, w2) in L.bases:
                    dlam = L.apply_diff((0, w2), lam_vec)
                    if w2 == w and dlam:
                        rhs = _poly_add(rhs, [dlam])
            for w1 in weights:
                for w2, lam_vec in path.lam.items():
                    if w1 + w2 - 1 != w:
                        continue
                    if (1, w1) not in L.bases or (0, w2) not in L.bases:
                        continue
                    poly1 = _poly_weight(path.alpha, w1)
                    contrib = [
                        L.apply_bracket((1, w1), coef, (0, w2), lam_vec) for coef in poly1
                    ]
                    rhs = _poly_add(rhs, contrib)
            if not _poly_is_zero(_poly_add(ddt, rhs, Fraction(-1))):
                ode = False

    # alpha(t) must satisfy the Maurer-Cartan equation identically in t
    mc_ok = True
    for (d, w) in list(L.bases):
        if d != 2:
            continue
        acc: Poly = []
        poly_w = _poly_weight(path.alpha, w)
        acc = _poly_add(acc, [L.apply_diff((1, w), coef) for coef in poly_w])
        for w1 in weights:
            w2 = w + 1 - w1
            if (1, w1) not in L.bases or (1, w2) not in L.bases:
                continue
            p1 = _poly_weight(path.alpha, w1)
            p2 = _poly_weight(path.alpha, w2)
            conv: Poly = [{} for _ in range(max(len(p1) + len(p2) - 1, 0))]
            for a_pow, va in enumerate(p1):
                for b_pow, vb in enumerate(p2):
                    conv[a_pow + b_pow] = _vec_add(
                        conv[a_pow + b_pow],
                        L.apply_bracket((1, w1), va, (1, w2), vb),
                        Fraction(1, 2),
                    )
            acc = _poly_add(acc, conv)
        if not _poly_is_zero(acc):
            mc_ok = False
    return GaugeReport(endpoints, ode, mc_ok)


# ---------------------------------------------------------------------------
# polyvector models of classifying stacks
# ---------------------------------------------------------------------------

class PolBgCodec:
    """Translation between tensors and coordinates of a polyvector model."""

    def __init__(self, P: PolyVectorAlgebra, slices: Dict[SliceKey, List[Mono]]):
        self.P = P
        self.g = P.g
        self.shift = P.n
        self.slices = slices
        self._pos = {key: {m: i for i, m in enumerate(monos)} for key, monos in slices.items()}

    def encode_element(self, key: SliceKey, el: Element) -> Vec:
        pos = self._pos.get(key)
        if pos is None:
            raise WindowOverflowError(f"slice {key} is outside the window")
        out: Vec = {}
        for mono, coef in el.items():
            if mono not in pos:
                raise WindowOverflowError(f"monomial {mono} missing from slice {key}")
            out[pos[mono]] = coef
        return out

    def decode_element(self, key: SliceKey, vec: Vec) -> Element:
        monos = self.slices[key]
        return {monos[i]: c for i, c in vec.items() if not is_zero(c)}

    def encode_structure(self, delta: CECochain, phi: Multivector) -> MCElement:
        if self.shift != 1:
            raise InputError("(delta, phi) encodes at shift 1")
        comps = {}
        d_el = self.P.from_cochain(delta)
        if d_el:
            comps[2] = self.encode_element((1, 2), d_el)
        p_el = self.P.from_multivector(phi)
        if p_el:
            comps[3] = self.encode_element((1, 3), p_el)
        return MCElement(comps)

    def encode_casimir(self, c: SparseTensor) -> MCElement:
        if self.shift != 2:
            raise InputError("a Casimir element encodes at shift 2")
        el = self.P.from_sym_tensor(c)
        return MCElement({2: self.encode_element((1, 2), el)} if el else {})

    def decode_residual(self, res: Dict[int, Vec]) -> Dict[int, CECochain]:
        out = {}
        for w, vec in res.items():
            el = self.decode_element((2, w), vec)
            # a shifted-degree-d slice at weight w has CE degree d + (n+1) - n w
            k = 2 + (self.shift + 1) - self.shift * w
            if el:
                out[w] = self.P.to_cochain(el, k, w)
        return out

    def twist_path(self, delta0: CECochain, phi0: Multivector, lam: Multivector):
        """The integrated gauge path of a twist:
        delta(t) = delta0 + t d(lam), phi(t) = phi0 + t [delta0, lam] + t^2/2 [d lam, lam]."""
        from .lie import ce_differential, multivector_to_cochain
        from .qlb import QuasiLieBialgebra, Twist, twist as twist_op

        P = self.P
        lam_el = P.from_multivector(lam)
        lam_coch = multivector_to_cochain(self.g, lam)
        d_lam = ce_differential(lam_coch)
        delta0_el = P.from_cochain(delta0)

        x = self.encode_structure(delta0, phi0)
        q1 = twist_op(QuasiLieBialgebra(self.g, delta0, phi0), Twist(lam), validate=False)
        y = self.encode_structure(q1.delta, q1.phi)

        alpha: Dict[int, Poly] = {}
        alpha[2] = [
            x.weight(2),
            self.encode_element((1, 2), P.from_cochain(d_lam)) if not d_lam.is_zero() else {},
        ]
        t1 = P.bracket(delta0_el, lam_el)
        t2 = P.smul(Fraction(1, 2), P.bracket(P.d(lam_el), lam_el))
        alpha[3] = [
            x.weight(3),
            self.encode_element((1, 3), t1) if t1 else {},
            self.encode_element((1, 3), t2) if t2 else {},
        ]
        lam_vec = {2: self.encode_element((0, 2), lam_el)} if lam_el else {}
        return x, y, GaugePath(lam_vec, alpha)


def pol_bg(
    g: LieAlgebra, shift: int, max_weight: int = 4, max_ce_degree: int = 4
) -> Tuple[WeightGradedDGLA, PolBgCodec]:
    """The weight >= 2 polyvector dg Lie algebra of the classifying stack.

    Bases are CE cochains with polyvector coefficients, the differential
    is the Chevalley-Eilenberg one, the bracket the big bracket; degrees
    are shifted so Maurer-Cartan elements sit in degree 1.
    """
    if shift not in (1, 2):
        raise InputError("shift must be 1 or 2")
    if g.dim > 8:
        raise WindowOverflowError(
            f"dim g = {g.dim} exceeds the supported window (dim <= 8)"
        )
    P = PolyVectorAlgebra(g, shift)
    slices: Dict[SliceKey, List[Mono]] = {}
    for d in range(0, 4):
        for w in range(2, max_weight + 1):
            k = d + (shift + 1) - shift * w
            if k < 0 or k > min(g.dim, max_ce_degree):
                continue
            monos = P.slice_basis(k, w)
            if monos:
                slices[(d, w)] = monos
    codec = PolBgCodec(P, slices)

    diff: Dict[SliceKey, List[Vec]] = {}
    for (d, w), monos in slices.items():
        if (d + 1, w) in slices:
            diff[(d, w)] = [codec.encode_element((d + 1, w), P.d({m: Fraction(1)})) for m in monos]

    def bracket(k1: SliceKey, v1: Vec, k2: SliceKey, v2: Vec) -> Vec:
        img = P.bracket(codec.decode_element(k1, v1), codec.decode_element(k2, v2))
        if not img:
            return {}
        tgt = (k1[0] + k2[0], k1[1] + k2[1] - 1)
        if tgt not in slices:
            raise WindowOverflowError(f"bracket of {k1} x {k2} escapes the window at {tgt}")
        return codec.encode_element(tgt, img)

    name = f"Pol(B{g.name}, {shift})[>=2]"
    return WeightGradedDGLA(name, slices, diff, bracket, max_weight=max_weight), codec
