"""Monomial-keyed Pol(BG, n) against the positional window it replaced.

`RefDGLA`, `ref_mc_residual`, `RefCodec` and `ref_pol_bg` are the enumerated
window of the earlier `qlie.mc`: every slice basis listed up front, the
differential stored as positional columns, and every vector encoded and
decoded through the slice lists.  They are kept here as an independent
oracle only: the decoded residuals of both must be equal.
"""

import random
from fractions import Fraction

import pytest

from conftest import rand_fraction, sparse_structures, zero_cobracket
from qlie.errors import InputError
from qlie.lie import casimir_from_pairing, sl2, sl3, sym2_signature
from qlie.mc import MCElement, decode_residual, encode_casimir, encode_structure, mc_residual, pol_bg
from qlie.polyvectors import PolyVectorAlgebra
from qlie.scalars import combine, is_zero, vec_add
from qlie.tensors import Multivector, SparseTensor


class RefDGLA:
    def __init__(self, bases, diff, bracket):
        self.bases = bases
        self.diff = diff
        self._bracket = bracket

    def slice_weights(self, degree):
        return sorted(w for (d, w) in self.bases if d == degree)

    def apply_diff(self, key, vec):
        cols = self.diff.get(key)
        if cols is None:
            return {}
        return combine((j, c * cc) for i, c in vec.items() for j, cc in cols[i].items())

    def apply_bracket(self, k1, v1, k2, v2):
        if not v1 or not v2 or k1 not in self.bases or k2 not in self.bases:
            return {}
        return self._bracket(k1, v1, k2, v2)


def ref_mc_residual(L, x):
    out = {}
    for (d, w) in list(L.bases):
        if d != 2:
            continue
        acc = L.apply_diff((1, w), x.weight(w))
        for w1 in L.slice_weights(1):
            w2 = w + 1 - w1
            if (1, w2) not in L.bases:
                continue
            br = L.apply_bracket((1, w1), x.weight(w1), (1, w2), x.weight(w2))
            acc = vec_add(acc, br, Fraction(1, 2))
        if acc:
            out[w] = acc
    return out


class RefCodec:
    def __init__(self, P, slices):
        self.P = P
        self.shift = P.n
        self.slices = slices
        self._pos = {key: {m: i for i, m in enumerate(monos)} for key, monos in slices.items()}

    def encode_element(self, key, el):
        pos = self._pos[key]
        return {pos[mono]: coef for mono, coef in el.items()}

    def decode_element(self, key, vec):
        monos = self.slices[key]
        return {monos[i]: c for i, c in vec.items() if not is_zero(c)}

    def encode_structure(self, delta, phi):
        comps = {}
        d_el = self.P.from_cochain(delta)
        if d_el:
            comps[2] = self.encode_element((1, 2), d_el)
        p_el = self.P.from_multivector(phi)
        if p_el:
            comps[3] = self.encode_element((1, 3), p_el)
        return MCElement(comps)

    def encode_casimir(self, c):
        el = self.P.from_sym_tensor(c)
        return MCElement({2: self.encode_element((1, 2), el)} if el else {})

    def decode_residual(self, res):
        out = {}
        for w, vec in res.items():
            el = self.decode_element((2, w), vec)
            k = 2 + (self.shift + 1) - self.shift * w
            if el:
                out[w] = self.P.to_cochain(el, k, w)
        return out


def ref_pol_bg(g, shift, max_weight=4, max_ce_degree=4):
    P = PolyVectorAlgebra(g, shift)
    slices = {}
    for d in range(0, 4):
        for w in range(2, max_weight + 1):
            k = d + (shift + 1) - shift * w
            if k < 0 or k > min(g.dim, max_ce_degree):
                continue
            monos = P.slice_basis(k, w)
            if monos:
                slices[(d, w)] = monos
    codec = RefCodec(P, slices)
    diff = {}
    for (d, w), monos in slices.items():
        if (d + 1, w) in slices:
            diff[(d, w)] = [codec.encode_element((d + 1, w), P.d({m: Fraction(1)})) for m in monos]

    def bracket(k1, v1, k2, v2):
        img = P.bracket(codec.decode_element(k1, v1), codec.decode_element(k2, v2))
        if not img:
            return {}
        return codec.encode_element((k1[0] + k2[0], k1[1] + k2[1] - 1), img)

    return RefDGLA(slices, diff, bracket), codec


def _sym2(g, rng):
    keys = [(i, j) for i in range(g.dim) for j in range(i, g.dim)]
    return SparseTensor.build(sym2_signature(g.dim), [(k, rand_fraction(rng)) for k in rng.sample(keys, 4)])


@pytest.mark.parametrize("make_g, trials", [(sl2, 30), (sl3, 8)], ids=["sl2", "sl3"])
def test_decoded_residuals_equal_the_positional_window(make_g, trials):
    g = make_g()
    rng = random.Random(20240901 + g.dim)
    phi_inv = Multivector(3, 3, {(0, 1, 2): Fraction(1)}) if g.dim == 3 else Multivector.zero(g.dim, 3)
    L = pol_bg(g, 1)
    ref, codec = ref_pol_bg(g, 1)
    failing = 0
    for q in sparse_structures(g, rng, trials, phi_inv):
        res = mc_residual(L, encode_structure(L, q.delta, q.phi))
        ref_res = ref_mc_residual(ref, codec.encode_structure(q.delta, q.phi))
        assert decode_residual(L, res) == codec.decode_residual(ref_res)
        failing += bool(res)
    assert failing == trials // 2
    L2 = pol_bg(g, 2)
    ref2, codec2 = ref_pol_bg(g, 2)
    casimirs = [casimir_from_pairing(g)] + [_sym2(g, rng) for _ in range(trials)]
    for c in casimirs:
        res = mc_residual(L2, encode_casimir(L2, c))
        ref_res = ref_mc_residual(ref2, codec2.encode_casimir(c))
        assert decode_residual(L2, res) == codec2.decode_residual(ref_res)
    assert not mc_residual(L2, encode_casimir(L2, casimirs[0]))
    assert mc_residual(L2, encode_casimir(L2, casimirs[1]))


def test_encoders_check_the_shift():
    L2 = pol_bg(sl2(), 2)
    with pytest.raises(InputError):
        encode_structure(L2, zero_cobracket(sl2()), Multivector.zero(3, 3))
    L1 = pol_bg(sl2(), 1)
    with pytest.raises(InputError):
        encode_casimir(L1, casimir_from_pairing(sl2()))
