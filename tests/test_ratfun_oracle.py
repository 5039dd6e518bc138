"""Rational functions over factored denominators against an independent oracle.

``CrossRationalFunction`` is the earlier representation of
``qlie.scalars.RationalFunction``, kept here as the reference: one expanded
denominator, addition by cross-multiplication, reduction by rational
content, common monomials and full exact division only.  The factored
representation must agree with it on every operation, on seeded random
rational functions in one to three variables whose denominators are
shared, repeated, monomial or reducible, and whose numerators sometimes
cancel them completely.  sympy (when installed) and a hypothesis
round-trip property through ``str`` and ``parse_scalar`` are further
oracles.  Products and sums with constant numerators and non-coprime
factors (x-1, x+1, x^2-1, (x-1)^2) are compared with the Fraction-only
classes of tests/ratfun_reference.py, print, numerator terms and factor
order alike, since the order of every operation decides the reduced form.
"""

import random
from fractions import Fraction
from typing import Dict, Tuple

import pytest

import ratfun_reference as ref
from conftest import ev_rmatrix_sl3, evaluate
from qlie.errors import InputError
from qlie.rmatrix import dynamical_check
from qlie.scalars import Polynomial, RationalFunction, parse_scalar


class CrossRationalFunction:
    """Quotient of two polynomials over the same variable tuple."""

    __slots__ = ("vars", "num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if num.vars != den.vars:
            raise InputError("numerator and denominator over different variables")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.vars = num.vars
        self.num, self.den = self._reduce(num, den)

    @staticmethod
    def _reduce(num: Polynomial, den: Polynomial) -> Tuple[Polynomial, Polynomial]:
        if num.is_zero():
            return num, Polynomial.const(num.vars, 1)
        m_num = num.content_monomial()
        m_den = den.content_monomial()
        common = tuple(min(a, b) for a, b in zip(m_num, m_den))
        if any(common):
            num = num.shift_down(common)
            den = den.shift_down(common)
        c_den = den.rational_content()
        _, lead = den.leading()
        if lead < 0:
            c_den = -c_den
        num = num.scale(Fraction(1) / c_den)
        den = den.scale(Fraction(1) / c_den)
        # cheap full cancellation when one side literally divides the other
        q = num.exact_div(den)
        if q is not None:
            return q, Polynomial.const(num.vars, 1)
        return num, den

    @classmethod
    def const(cls, variables, value) -> "CrossRationalFunction":
        return cls(Polynomial.const(variables, value), Polynomial.const(variables, 1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def _coerce(self, other) -> "CrossRationalFunction":
        if isinstance(other, CrossRationalFunction):
            return other
        return CrossRationalFunction.const(self.vars, other)

    def __add__(self, other) -> "CrossRationalFunction":
        o = self._coerce(other)
        return CrossRationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self) -> "CrossRationalFunction":
        return CrossRationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "CrossRationalFunction":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "CrossRationalFunction":
        o = self._coerce(other)
        return CrossRationalFunction(self.num * o.num, self.den * o.den)

    def __truediv__(self, other) -> "CrossRationalFunction":
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return CrossRationalFunction(self.num * o.den, self.den * o.num)

    def __pow__(self, k: int) -> "CrossRationalFunction":
        if k >= 0:
            return CrossRationalFunction(self.num**k, self.den**k)
        if self.is_zero():
            raise ZeroDivisionError("negative power of zero")
        return CrossRationalFunction(self.den ** (-k), self.num ** (-k))

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        return (self.num * o.den - o.num * self.den).is_zero()

    def derivative(self, name: str) -> "CrossRationalFunction":
        i = self.vars.index(name)
        g = self.num.derivative(i) * self.den - self.num * self.den.derivative(i)
        q = g.exact_div(self.den)
        if q is not None:
            return CrossRationalFunction(q, self.den)
        return CrossRationalFunction(g, self.den * self.den)

    def evaluate(self, point: Dict[str, Fraction]) -> Fraction:
        d = evaluate(self.den, point)
        if d == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return evaluate(self.num, point) / d


VARIABLE_SETS = (("x",), ("x", "y"), ("x", "y", "z"))


def rand_poly(rng, variables, terms=3, degree=2):
    out = {}
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(0, degree) for _ in variables)
        out[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return Polynomial(variables, out)


def rand_linear(rng, variables):
    """A root-hyperplane-like factor: a sum of +-variables plus a constant."""
    terms = {(0,) * len(variables): Fraction(rng.randint(-2, 2))}
    for i in rng.sample(range(len(variables)), rng.randint(1, len(variables))):
        exps = tuple(int(j == i) for j in range(len(variables)))
        terms[exps] = Fraction(rng.choice([-2, -1, 1, 2]))
    return Polynomial(variables, terms)


def rand_monomial(rng, variables):
    exps = tuple(rng.randint(0, 2) for _ in variables)
    if not any(exps):
        exps = (1,) + exps[1:]
    return Polynomial(variables, {exps: Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))})


def rand_denominator(rng, variables, pool):
    """Shared (drawn from a small pool), repeated (a power), monomial or
    reducible (a product of several factors, expanded)."""
    kind = rng.choice(("shared", "repeated", "monomial", "reducible", "mixed"))
    if kind == "shared":
        return rng.choice(pool)
    if kind == "repeated":
        return rng.choice(pool) ** rng.randint(2, 3)
    if kind == "monomial":
        return rand_monomial(rng, variables)
    if kind == "reducible":
        return rng.choice(pool) * rng.choice(pool) * rand_linear(rng, variables)
    return rand_monomial(rng, variables) * rng.choice(pool)


def rand_pair(rng, variables, pool):
    """The same value in both representations."""
    den = rand_denominator(rng, variables, pool)
    kind = rng.random()
    if kind < 0.2:
        num = den * rand_poly(rng, variables, terms=2, degree=1)  # full cancellation
    elif kind < 0.4:
        num = rng.choice(pool) * rand_poly(rng, variables, terms=2, degree=1)  # partial
    elif kind < 0.5:
        num = Polynomial(variables, {})
    else:
        num = rand_poly(rng, variables)
    return RationalFunction(num, den), CrossRationalFunction(num, den)


def agree(new: RationalFunction, old: CrossRationalFunction) -> bool:
    """Equal values, decided by each representation's own equality."""
    return (
        CrossRationalFunction(new.num, new.den) == old
        and new == RationalFunction(old.num, old.den)
        and new.is_constant() == old.is_constant()
        and new.is_zero() == old.is_zero()
    )


def assert_reduced(r: RationalFunction):
    for f, e in r.factors.items():
        assert e > 0
        assert r.num.exact_div(f) is None, (str(r), str(f))
        _, lead = f.leading()
        assert lead > 0 and f.rational_content() == 1 and not f.is_constant()
    den = r.den
    assert den.rational_content() == 1 and den.leading()[1] > 0


def rand_point(rng, variables):
    return {v: Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for v in variables}


def pairs_for(seed):
    rng = random.Random(seed)
    variables = VARIABLE_SETS[seed % 3]
    pool = [rand_linear(rng, variables) for _ in range(3)]
    return rng, variables, [rand_pair(rng, variables, pool) for _ in range(6)]


@pytest.mark.parametrize("seed", range(24))
def test_arithmetic_agrees_with_cross_multiplication(seed):
    rng, variables, pairs = pairs_for(seed)
    for (a, a_old), (b, b_old) in zip(pairs, pairs[1:] + pairs[:1]):
        results = [(a + b, a_old + b_old), (a - b, a_old - b_old), (a * b, a_old * b_old),
                   (a - a, a_old - a_old), (a ** 2, a_old ** 2), (-a, -a_old)]
        if not b.is_zero():
            results += [(a / b, a_old / b_old), (b ** -1, b_old ** -1)]
        for name in variables:
            results.append((a.derivative(name), a_old.derivative(name)))
        for c in (Fraction(0), Fraction(-3, 2), 5):
            results += [(a + c, a_old + c), (a * c, a_old * c), (c - a, -a_old + c)]
        for new, old in results:
            assert agree(new, old), (str(a), str(b), str(new))
            assert_reduced(new)
        assert (a == b) == (a_old == b_old)
        assert a == RationalFunction(a_old.num, a_old.den)
        assert (a - a).is_zero() and (a + (-a)).is_zero()


@pytest.mark.parametrize("seed", range(12))
def test_evaluate_and_is_constant_agree(seed):
    rng, variables, pairs = pairs_for(seed)
    hits = 0
    for a, a_old in pairs:
        assert a.is_constant() == a_old.is_constant()
        for _ in range(6):
            point = rand_point(rng, variables)
            try:
                expected = a_old.evaluate(point)
            except ZeroDivisionError:
                continue  # the reference keeps some removable poles
            assert evaluate(a, point) == expected
            hits += 1
        # every pole of the factored form is a pole of the reference
        for _ in range(6):
            point = rand_point(rng, variables)
            try:
                evaluate(a, point)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    a_old.evaluate(point)
    assert hits


def test_denominator_kinds_reduce():
    v = ("x", "y")
    x, y = Polynomial.var(v, "x"), Polynomial.var(v, "y")
    one = Polynomial.const(v, 1)
    # monomial content splits into single-variable factors
    r = RationalFunction(one, (x * x * y).scale(-4))
    assert {str(f): e for f, e in r.factors.items()} == {"x": 2, "y": 1}
    assert str(r) == "(-1/4)/(x^2*y)"
    # a shared factor is not repeated by addition: 1/(x+y) + 1/(x+y)
    s = RationalFunction(one, x + y)
    assert (s + s).factors == {x + y: 1} and str(s + s) == "(2)/(x+y)"
    # repeated: exponents add under * and take the max under +
    assert (s * s).factors == {x + y: 2}
    assert (s * s + s).factors == {x + y: 2}
    # full cancellation leaves a polynomial
    q = RationalFunction((x + y) * (x - y), (x + y).scale(3))
    assert not q.factors and q.num == (x - y).scale(Fraction(1, 3))
    assert (s * s * RationalFunction((x + y) * (x + y), one)).is_constant()
    # a reducible denominator stays one factor; its den is the old normal form
    d = RationalFunction(one, (x + y) * (x - y).scale(-2))
    assert len(d.factors) == 1 and d.den == (x + y) * (x - y)
    assert str(d) == "(-1/2)/(x^2-y^2)"


def test_sympy_cancel_agrees():
    # sympy's cancel brings each expected result to lowest terms p/q; the
    # factored result num/den must satisfy num * q == p * den
    sympy = pytest.importorskip("sympy")
    for seed in range(6):
        rng, variables, pairs = pairs_for(seed)
        syms = {v: sympy.Symbol(v) for v in variables}

        def to_sympy(r):
            return sympy.sympify(str(r).replace("^", "**"), locals=syms)

        for (a, _), (b, _) in zip(pairs[:3], pairs[1:3]):
            sa, sb = to_sympy(a), to_sympy(b)
            checks = [(a + b, sa + sb), (a * b, sa * sb), (a - b, sa - sb)]
            checks += [(a.derivative(v), sympy.diff(sa, syms[v])) for v in variables]
            if not b.is_zero():
                checks.append((a / b, sa / sb))
            for new, expected in checks:
                p, q = sympy.fraction(sympy.cancel(expected))
                assert sympy.expand(to_sympy(new.num) * q - p * to_sympy(new.den)) == 0


def test_str_parse_round_trip():
    """parse_scalar(str(r)) == r on rational functions in x, y, z drawn by
    hypothesis, derandomized so that every run tests the same examples."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    variables = ("x", "y", "z")
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    polys = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 3), coefs, min_size=1, max_size=3
    ).map(lambda terms: Polynomial(variables, terms))

    @st.composite
    def rational_functions(draw):
        value = RationalFunction.const(variables, draw(coefs))
        for _ in range(draw(st.integers(1, 3))):
            op = draw(st.sampled_from("+-*/"))
            num, den = draw(polys), draw(polys)
            if den.is_zero():
                continue
            rhs = RationalFunction(num, den)
            if op == "/" and rhs.is_zero():
                continue
            value = {"+": value.__add__, "-": value.__sub__,
                     "*": value.__mul__, "/": value.__truediv__}[op](rhs)
        return value

    @hypothesis.settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @hypothesis.given(rational_functions())
    def round_trip(r):
        assert parse_scalar(str(r), variables) == r
        assert_reduced(r)

    round_trip()


def test_scaled_ev_residual_is_reduced():
    residual = dynamical_check(ev_rmatrix_sl3(2)).cdybe_residual
    assert not residual.is_zero()
    for _, coef in residual.items():
        assert_reduced(coef)


# -- constant numerators and non-coprime factors against the reference ---------

# over (x, y): the family x-1, x+1, x^2-1, (x-1)^2, whose normalised factors
# are not coprime, 2x-1, whose quotients are not integral, a variable, and
# the pair x+y, x^2-y^2
FACTORS = [
    {(1, 0): 1, (0, 0): -1},
    {(1, 0): 2, (0, 0): -1},
    {(1, 0): 1, (0, 0): 1},
    {(2, 0): 1, (0, 0): -1},
    {(2, 0): 1, (1, 0): -2, (0, 0): 1},
    {(0, 1): 1},
    {(1, 0): 1, (0, 1): 1},
    {(2, 0): 1, (0, 2): -1},
]
CONSTANTS = [{(0, 0): 4}, {(0, 0): -1}, {(0, 0): Fraction(2, 3)}]
XY = ("x", "y")


def oracle_pair(rng):
    """c / f or g / f, in the library and in tests/ratfun_reference.py: a
    constant numerator, or a numerator from the factor family."""
    num = rng.choice(CONSTANTS + FACTORS)
    den = rng.choice(FACTORS)
    if rng.random() < 0.3:
        den = dict((Polynomial(XY, den) * Polynomial(XY, rng.choice(FACTORS))).terms)
    return (
        RationalFunction(Polynomial(XY, num), Polynomial(XY, den)),
        ref.RationalFunction(ref.Polynomial(XY, num), ref.Polynomial(XY, den)),
    )


def assert_as_reference(new, old):
    """The same print, numerator terms and factors, in order; each library
    coefficient an int exactly when it is integral."""
    assert str(new) == str(old)
    assert new.num.terms == old.num.terms
    assert [(str(f), e) for f, e in new.factors.items()] == [(str(f), e) for f, e in old.factors.items()]
    for p in (new.num, *new.factors):
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in p.terms.values()), str(p)


@pytest.mark.parametrize("seed", range(16))
def test_products_and_sums_match_the_reference(seed):
    rng = random.Random(f"ratfun-reference/{seed}")
    values = [oracle_pair(rng) for _ in range(5)]
    for (a, a_old), (b, b_old) in zip(values, values[1:] + values[:1]):
        results = [
            (a * b, a_old * b_old), (b * a, b_old * a_old), (a + b, a_old + b_old), (b + a, b_old + a_old),
            (a - b, a_old - b_old), ((a * b) * a, (a_old * b_old) * a_old), (a * b + b * a, a_old * b_old + b_old * a_old),
            (a ** 0, a_old ** 0), (a ** 2, a_old ** 2), (a * 3, a_old * 3), (a + Fraction(1, 2), a_old + Fraction(1, 2)),
        ]
        if not b.is_zero():
            results += [(a / b, a_old / b_old), (b ** -1, b_old ** -1)]
        for new, old in results:
            assert_as_reference(new, old)
            assert_reduced(new)


def test_non_coprime_products_keep_their_order():
    variables = ("x",)
    a = parse_scalar("(x-1)/(x^2-1)", variables)
    b = parse_scalar("(x+1)/(x-1)", variables)
    c = parse_scalar("(x+1)/(x^2-1)", variables)
    # a * c cancels x^2-1 once and keeps one copy of it
    assert str(a * c) == "(1)/(x^2-1)"
    # the factors of a and b are not coprime: the order of a product decides its form
    assert str(a * b) == "(1)/(x-1)" and str(b * a) == "(x+1)/(x^2-1)"
    assert a * b == b * a
    # a monomial numerator is divided like any other, a constant one keeps
    # every factor, and a zero power keeps none
    assert str(parse_scalar("x", variables) * parse_scalar("1/(x^2-x)", variables)) == "(1)/(x-1)"
    assert str(parse_scalar("4/(x^2-1)", variables) * parse_scalar("2/(x-1)", variables)) == "(8)/(x^3-x^2-x+1)"
    assert str(a ** 0) == "1" and not (a ** 0).factors
