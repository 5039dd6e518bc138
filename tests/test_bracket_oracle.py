"""The closed-form big bracket against the generator recursion it replaced.

`RecursiveBracket` is the memoised recursion on generators that computed
the bracket of two monomials before the closed form, which
`PolyVectorAlgebra.bracket` now takes as contraction events.  It is kept
here as an independent oracle only.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from polyvector_oracle import canonicalize, mono_gens, mul
from conftest import multivector, rand_multivector, window_monos, zero_cobracket
from qlie.lie import casimir_from_pairing, sl2, sl3
from qlie.mc import mc_residual
from qlie.polyvectors import PolyVectorAlgebra
from qlie.qlb import QuasiLieBialgebra, Twist, check_qlb, mc_element, twist
from qlie.scalars import combine, is_zero


def _add_term(acc, mono, coef):
    combine([(mono, coef)], acc)


class RecursiveBracket:
    """[m1, m2] by recursion on the first generator of each monomial."""

    def __init__(self, P: PolyVectorAlgebra):
        self.P = P
        self.cache = {}

    def base_pair(self, g1, g2):
        if g1[0] == 0 and g2[0] == 1:
            return Fraction(1) if g1[1] == g2[1] else Fraction(0)
        if g1[0] == 1 and g2[0] == 0:
            if g1[1] != g2[1]:
                return Fraction(0)
            return Fraction(1) if self.P.n == 1 else Fraction(-1)
        return Fraction(0)

    def gen_degree(self, gen):
        return 1 if gen[0] == 0 else self.P.n

    @staticmethod
    def gen_mono(gen):
        return ((gen[1],), ()) if gen[0] == 0 else ((), (gen[1],))

    def __call__(self, m1, m2):
        key = (m1, m2)
        if key in self.cache:
            return self.cache[key]
        P = self.P
        s = P.n + 1
        gens1 = mono_gens(m1)
        gens2 = mono_gens(m2)
        out = {}
        if not gens1 or not gens2:
            pass
        elif len(gens1) == 1:
            g = gens1[0]
            if len(gens2) == 1:
                c = self.base_pair(g, gens2[0])
                if not is_zero(c):
                    out = {((), ()): c}
            else:
                # [g, h . rest] = [g,h] rest + (-1)^{(|g|+s)|h|} h [g, rest]
                h, rest = gens2[0], gens2[1:]
                res_rest = canonicalize(P, rest)
                if res_rest is not None:
                    rsgn, rmono = res_rest
                    c = self.base_pair(g, h)
                    if not is_zero(c):
                        _add_term(out, rmono, rsgn * c)
                    sub = self(self.gen_mono(g), rmono)
                    sign = (-1) ** ((self.gen_degree(g) + s) * self.gen_degree(h))
                    for m, cc in mul(P, {self.gen_mono(h): Fraction(1)}, sub).items():
                        _add_term(out, m, sign * rsgn * cc)
        else:
            # [a . restA, B] = a [restA, B] + (-1)^{|restA|(|B|+s)} [a, B] restA
            a0, restA = gens1[0], gens1[1:]
            res_rest = canonicalize(P, restA)
            if res_rest is not None:
                rsgn, rmono = res_rest
                inner = self(rmono, m2)
                for m, cc in mul(P, {self.gen_mono(a0): Fraction(1)}, inner).items():
                    _add_term(out, m, rsgn * cc)
                deg_rest = sum(self.gen_degree(x) for x in restA)
                sign = (-1) ** (deg_rest * (P.mono_degree(m2) + s))
                inner2 = self(self.gen_mono(a0), m2)
                for m, cc in mul(P, inner2, {rmono: Fraction(1)}).items():
                    _add_term(out, m, sign * rsgn * cc)
        self.cache[key] = out
        return out


@pytest.mark.parametrize("shift", [1, 2])
def test_closed_form_matches_recursion_on_sl2_window(shift):
    P = PolyVectorAlgebra(sl2(), shift)
    monos = window_monos(P)
    ref = RecursiveBracket(P)
    nonzero = 0
    for m1 in monos:
        for m2 in monos:
            got = P.bracket({m1: 1}, {m2: 1})
            assert got == ref(m1, m2), (m1, m2)
            nonzero += bool(got)
    assert nonzero > 0


@pytest.mark.parametrize("shift", [1, 2])
def test_closed_form_matches_recursion_on_sl3_window_sample(shift):
    P = PolyVectorAlgebra(sl3(), shift)
    monos = window_monos(P)
    ref = RecursiveBracket(P)
    rng = random.Random(20240817 + shift)
    nonzero = 0
    for _ in range(5000):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        got = P.bracket({m1: 1}, {m2: 1})
        assert got == ref(m1, m2), (m1, m2)
        nonzero += bool(got)
    assert nonzero > 500


def test_algebras_are_not_retained(rng):
    g = sl2()
    q = QuasiLieBialgebra(g, zero_cobracket(g), multivector(g, 3, [((0, 1, 2), Fraction(1))]))
    assert check_qlb(q).passed
    assert check_qlb(twist(q, Twist(rand_multivector(g, 2, rng)))).passed
    P = PolyVectorAlgebra(g, 1)
    mc_residual(P, mc_element(P, q.delta, q.phi))
    P2 = PolyVectorAlgebra(g, 2)
    mc_residual(P2, P2.from_cochain(casimir_from_pairing(g)))
    ref = weakref.ref(g)
    del g, q, P, P2
    gc.collect()
    assert ref() is None

