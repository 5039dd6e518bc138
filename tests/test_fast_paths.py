"""The shortcuts that skip rational-function work whose result is known.

Multiplying by 1 or -1, differentiating a value that does not move, a
reduction whose numerator has become constant and a bracket whose left
factor meets only one kind of generator each take a path of their own.
Each path is compared here with the work it skips, on seeded values built
as in tests/test_ratfun_oracle.py: the printed form, numerator terms and
factor order alike, since the order of every operation decides the
reduced form.  The last test counts the operations of one CDYBE check.
"""

import random
from fractions import Fraction

import pytest

import polyvector_oracle as old
import test_reports_pinned
from conftest import rand_fraction, window_monos
from qlie.lie import sl2, sl3
from qlie.polyvectors import PolyVectorAlgebra
from qlie.rmatrix import dynamical_check
from qlie.scalars import Polynomial, RationalFunction, _reduce
from test_ratfun_oracle import pairs_for, rand_linear, rand_poly
from test_rmatrix import dynamical_from_argv


def _same(a: RationalFunction, b: RationalFunction) -> bool:
    """The same reduced form: print, numerator terms with their types, and
    the factors in the same order."""
    return (
        str(a) == str(b)
        and [(k, type(c), c) for k, c in a.num.terms.items()] == [(k, type(c), c) for k, c in b.num.terms.items()]
        and list(a.factors.items()) == list(b.factors.items())
    )


def _values(seed):
    """Seeded rational functions, and ones with a constant numerator over
    factors in the first variable alone, whose other derivatives are 0."""
    rng, variables, pairs = pairs_for(seed)
    values = [a for a, _ in pairs]
    num = Polynomial.const(variables, rng.choice([2, -2, Fraction(1, 3)]))
    for _ in range(3):
        den = Polynomial.var(variables, variables[0]) + Polynomial.const(variables, rng.randint(-2, 2))
        values.append(RationalFunction(num, den ** rng.randint(1, 2)))
    return rng, variables, values


@pytest.mark.parametrize("seed", range(12))
def test_multiplying_by_one_or_minus_one(seed):
    _, _, values = _values(seed)
    for r in values:
        for one in (1, Fraction(1)):
            assert _same(r * one, r) and _same(one * r, r)
            assert _same(r * one, RationalFunction._of(r.num.scale(one), r.factors))
        for minus in (-1, Fraction(-1)):
            assert str(r * minus) == str(-r)
            assert _same(r * minus, -r) and _same(minus * r, -r)
            assert _same(r * minus, RationalFunction._of(r.num.scale(minus), r.factors))


def test_derivative_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    zero_paths = 0
    for seed in range(12):
        _, variables, values = _values(seed)
        syms = {v: sympy.Symbol(v) for v in variables}

        def to_sympy(r):
            return sympy.sympify(str(r).replace("^", "**"), locals=syms)

        for r in values:
            for v in variables:
                dr = r.derivative(v)
                if dr.is_zero() and r.num.is_constant():
                    zero_paths += 1
                p, q = sympy.fraction(sympy.cancel(sympy.diff(to_sympy(r), syms[v])))
                assert sympy.expand(to_sympy(dr.num) * q - p * to_sympy(dr.den)) == 0, (str(r), v)
    assert zero_paths  # the shortcut was taken


def _reduce_by_trial_division(num, factors):
    """Divide num by each factor for as long as it divides, trying every
    division, also those a constant numerator cannot pass."""
    if num.is_zero():
        return num, {}
    kept = {}
    for f, e in factors.items():
        while e:
            q = num.exact_div(f)
            if q is None:
                kept[f] = e
                break
            num, e = q, e - 1
    return num, kept


@pytest.mark.parametrize("seed", range(12))
def test_reduce_agrees_with_trial_division(seed):
    rng, variables, _ = pairs_for(seed)
    pool = [rand_linear(rng, variables) for _ in range(3)]
    for _ in range(30):
        factors = {}
        for f in rng.sample(pool, rng.randint(1, 3)):
            factors[f] = rng.randint(0, 3)
        kind = rng.random()
        num = Polynomial.const(variables, rand_fraction(rng) or 1)
        if kind < 0.6:
            # a product of some of the factors, so that the numerator turns
            # constant part way
            for f in rng.sample(list(factors), rng.randint(1, len(factors))):
                num = num * f ** rng.randint(1, 2)
        elif kind < 0.8:
            num = num * rand_poly(rng, variables)
        expected_num, expected = _reduce_by_trial_division(num, factors)
        got_num, got = _reduce(num, factors)
        assert got_num.terms == expected_num.terms and list(got.items()) == list(expected.items())


@pytest.mark.parametrize("shift", [1, 2])
def test_bracket_indexes_only_what_the_left_factor_meets(shift):
    # left factors with vector generators only, dual generators only, both
    # and none, against the bracket over every pair of monomials
    rng = random.Random(20240817 + shift)
    for g in (sl2(), sl3()):
        P = PolyVectorAlgebra(g, shift)
        monos = window_monos(P)
        kinds = {
            "vector": [m for m in monos if m[1] and not m[0]],
            "dual": [m for m in monos if m[0] and not m[1]],
            "both": [m for m in monos if m[0] and m[1]],
            "scalar": [m for m in monos if not (m[0] or m[1])],
        }
        for pool in kinds.values():
            for _ in range(15):
                a = {m: rand_fraction(rng) or Fraction(1) for m in rng.sample(pool, min(3, len(pool)))}
                b = {m: rand_fraction(rng) or Fraction(1) for m in rng.sample(monos, 4)}
                assert P.bracket(a, b) == old.bracket(P, a, b)


def test_cdybe_check_skips_scaling_by_one_and_the_shift_2_algebra(monkeypatch):
    # on sl4 with the Etingof-Varchenko r-matrix no numerator is scaled by
    # 1 or -1, and the one polyvector algebra built is the shift-1 one of
    # the lambda-form (its symmetric part is 0, whose d needs none)
    dr = dynamical_from_argv(test_reports_pinned.CASES["dynamical-ev-sl4"])
    scales, shifts = [], []
    scale, init = Polynomial.scale, PolyVectorAlgebra.__init__

    def counted_scale(self, c):
        scales.append(c)
        return scale(self, c)

    def counted_init(self, g, shift):
        shifts.append(shift)
        init(self, g, shift)

    monkeypatch.setattr(Polynomial, "scale", counted_scale)
    monkeypatch.setattr(PolyVectorAlgebra, "__init__", counted_init)
    rep = dynamical_check(dr)
    assert rep.passed and rep.criteria_agree
    assert scales and not [c for c in scales if c in (1, -1)]
    assert shifts == [1]
