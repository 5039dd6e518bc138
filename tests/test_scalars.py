import random
import sys
from fractions import Fraction

import pytest

from conftest import evaluate
from qlie.errors import InputError
from qlie.scalars import Polynomial, RationalFunction, parse_scalar, scalar_text


def test_parse_rationals():
    assert parse_scalar("1/2") == Fraction(1, 2)
    assert parse_scalar("-3") == Fraction(-3)
    assert parse_scalar("(2+3)*4/6") == Fraction(10, 3)
    assert parse_scalar("2^-2") == Fraction(1, 4)
    assert parse_scalar("-2^2") == Fraction(-4)


def test_parse_rejects_decimals_and_unknowns():
    with pytest.raises(InputError):
        parse_scalar("0.5")
    with pytest.raises(InputError):
        parse_scalar("y", ("x",))
    with pytest.raises(InputError):
        parse_scalar("1 +")


def test_power_coefficient_size_cap():
    # the digit limit of integer literals bounds a power's coefficients too
    assert parse_scalar("(2^64)^64") == Fraction(2) ** 4096
    assert parse_scalar("(2^64)^-64", ("x",)) == RationalFunction.const(("x",), Fraction(1, 2**4096))
    for text in ("((2^64)^64)^64", "(((2^64)^64)^64)^64", "((1/3^64)^64)^64"):
        for variables in ((), ("x",)):
            with pytest.raises(InputError, match="digit limit"):
                parse_scalar(text, variables)


def test_product_coefficient_size_cap():
    # products and quotients of accepted powers are held to the same limit
    assert parse_scalar("(10^64)^64*10^64") == Fraction(10) ** 4160
    assert parse_scalar("1/(10^64)^64/10^64") == Fraction(1, 10**4160)
    for text in ("(10^64)^64*(10^64)^64", "(10^64)^64/(10^64)^64", "(10^64)^64*x*(10^64)^64"):
        with pytest.raises(InputError, match="digit limit"):
            parse_scalar(text, ("x",) if "x" in text else ())


def test_sum_coefficient_size_cap():
    # a/b + c/d is estimated at max(|a d|, |c b|) times 2 over |b d|
    assert parse_scalar("(10^64)^64+(10^64)^64") == 2 * Fraction(10) ** 4096
    assert parse_scalar("(10^64)^64-1/10^64") == Fraction(10**4160 - 1, 10**64)
    for text in ("(10^64)^64+1/(10^64)^64", "1/(10^64)^64-(10^64)^64", "(10^64)^64*x+1/(10^64)^64"):
        with pytest.raises(InputError, match="digit limit"):
            parse_scalar(text, ("x",) if "x" in text else ())


def test_product_and_power_term_cap():
    xyz = ("x", "y", "z")
    # accepted: up to about 63,000 terms formed
    assert len(parse_scalar("(x+y+z+1)^20", xyz).num.terms) == 1771
    assert len(parse_scalar("(x+y+1)^16*(x+y+1)^16", xyz).num.terms) == 561
    # a quotient multiplies by the denominator of its right side only
    assert parse_scalar("(x+y+z+1)^12/(x+y+z+1)^12", xyz) == 1
    for text, what in (
        ("(x+y+z+1)^24", "a power"),
        ("((x+y+z+1)^3)^8", "a power"),
        ("(x+y+z+1)^16*(x+y+z+1)^16", "a product"),
        ("(x+y+z+1)^12*(x+y+z+1)^12", "a product"),
        ("(x+y+z+1)^12/(1/(x+y+z+1)^12)", "a quotient"),
    ):
        with pytest.raises(InputError, match=f"{what} forming about .*-term limit"):
            parse_scalar(text, xyz)


def test_parse_rational_functions():
    x = parse_scalar("1/x", ("x",))
    assert isinstance(x, RationalFunction)
    assert x * parse_scalar("x", ("x",)) == 1
    assert parse_scalar("(x+1)^2", ("x",)) == parse_scalar("x^2 + 2*x + 1", ("x",))
    assert parse_scalar("x/x", ("x",)) == 1


def test_exact_arithmetic_round_trip(rng):
    # (a + b) - b == a for random rational functions in two variables
    variables = ("x", "y")

    def rand_poly():
        terms = {}
        for _ in range(4):
            exps = (rng.randint(0, 2), rng.randint(0, 2))
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if c:
                terms[exps] = c
        return Polynomial(variables, terms)

    for _ in range(25):
        num1, den1 = rand_poly(), rand_poly()
        num2, den2 = rand_poly(), rand_poly()
        if den1.is_zero() or den2.is_zero():
            continue
        a = RationalFunction(num1, den1)
        b = RationalFunction(num2, den2)
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a / b) * b == a


def test_division_cancellation_at_sample_points(rng):
    # (a/b)*b - a evaluates to zero at random non-pole points
    variables = ("x", "y")
    for _ in range(100):
        a = RationalFunction(
            Polynomial(variables, {(1, 0): Fraction(rng.randint(1, 5)), (0, 0): Fraction(1)}),
            Polynomial.const(variables, 1),
        )
        b = RationalFunction(
            Polynomial(variables, {(0, 1): Fraction(rng.randint(1, 4))}),
            Polynomial(variables, {(1, 1): Fraction(1), (0, 0): Fraction(rng.randint(1, 3))}),
        )
        expr = (a / b) * b - a
        hits = 0
        while hits < 5:
            point = {"x": Fraction(rng.randint(-9, 9)), "y": Fraction(rng.randint(1, 9))}
            try:
                value = evaluate(expr, point)
            except ZeroDivisionError:
                continue
            assert value == 0
            hits += 1


def test_equality_by_cross_multiplication():
    variables = ("x",)
    x = Polynomial.var(variables, "x")
    one = Polynomial.const(variables, 1)
    # (x^2 - 1)/(x - 1) == x + 1 without any gcd computation
    lhs = RationalFunction(x * x - one, x - one)
    rhs = RationalFunction(x + one, one)
    assert lhs == rhs
    assert not (lhs - rhs).num.is_zero() or (lhs - rhs).is_zero()


def test_derivative_quotient_rule():
    variables = ("x",)
    f = parse_scalar("1/x", variables)
    assert f.derivative("x") == parse_scalar("-1/x^2", variables)
    g = parse_scalar("x^2", variables)
    assert g.derivative("x") == parse_scalar("2*x", variables)
    h = parse_scalar("(x+1)/(x-1)", variables)
    assert h.derivative("x") == parse_scalar("-2/(x^2 - 2*x + 1)", variables)


def test_mixed_fraction_arithmetic():
    variables = ("x",)
    f = parse_scalar("x", variables)
    assert f + Fraction(1, 2) == parse_scalar("x + 1/2", variables)
    assert Fraction(2) * f == parse_scalar("2*x", variables)
    assert (Fraction(1) - f).is_zero() is False


def test_polynomial_exact_division():
    variables = ("x", "y")
    x = Polynomial.var(variables, "x")
    y = Polynomial.var(variables, "y")
    p = (x + y) * (x - y)
    assert p.exact_div(x + y) == x - y
    assert p.exact_div(x) is None


def _shape(v):
    """Value, type and print of a parsed scalar, with the type of each
    numerator term of a rational function."""
    terms = [(k, type(c)) for k, c in v.num.terms.items()] if isinstance(v, RationalFunction) else None
    return type(v), str(v), terms, dict(getattr(v, "factors", {}))


@pytest.mark.parametrize("variables", [(), ("x",)], ids=["Q", "Q(x)"])
@pytest.mark.parametrize(
    "literal", ["0", "-0", "007", "-12", "9" * 18, "-" + "9" * 18, "1" + "0" * 18, "-" + "1" * 19]
)
def test_plain_integer_literals_read_as_the_tokenizer_reads_them(literal, variables):
    # a plain literal of at most 18 digits skips the tokenizer; in
    # parentheses it is tokenized, and the two must not differ
    v, tokenized = parse_scalar(literal, variables), parse_scalar(f"({literal})", variables)
    assert v == tokenized and v == int(literal)
    assert _shape(v) == _shape(tokenized)


@pytest.mark.parametrize("variables", [(), ("x",)], ids=["Q", "Q(x)"])
def test_unusual_integer_literals_keep_their_reading(variables):
    # what each of these gave before plain literals skipped the tokenizer
    for text, value in (("--1", 1), ("１", 1), ("−1", -1), (" 5", 5), ("5 ", 5), ("+5", 5), ("-007", -7)):
        v = parse_scalar(text, variables)
        assert v == value and _shape(v) == _shape(parse_scalar(f"({value})", variables))
    for text, message in (
        ("1.5", "decimal literals are not allowed; use exact rationals"),
        ("-", "unexpected end of scalar expression"),
        ("²", "integer literal '²' cannot be read: invalid literal for int() with base 10: '²'"),
        ("1_000", "trailing input in scalar expression at token ('name', '_000')"),
    ):
        with pytest.raises(InputError) as err:
            parse_scalar(text, variables)
        assert str(err.value) == message


def test_nesting_is_capped_by_depth_not_by_count():
    # parentheses and unary signs nest at most MAX_NESTING = 100 deep; side
    # by side they are not counted together
    assert parse_scalar("(" * 100 + "3" + ")" * 100) == 3
    assert parse_scalar("-" * 100 + "3") == 3
    assert parse_scalar("+".join(["(-(1))"] * 150), ("x",)) == RationalFunction.const(("x",), -150)
    for text in ("(" * 101 + "3" + ")" * 101, "-" * 101 + "3", "-(" * 51 + "3" + ")" * 51):
        with pytest.raises(InputError, match="nested over 100 deep"):
            parse_scalar(text)


# Sums, differences and products whose factors are shared, disjoint or not
# coprime (x - 1 and x^2 - 1), printed as they were printed before
# `_over_lcm` formed the lcm and both cofactors in one pass.  The reduced
# form depends on the order of the operands and of the factors (the last
# case swaps the operands of the third from last, and prints another
# form), so these pin that order as well as the values.
PRINTED = [
    ('1/(x-1)', '+', '1/(x-1)', '(2)/(x-1)'),
    ('1/(x-1)', '+', '1/(y+2)', '(x+y+1)/(x*y+2*x-y-2)'),
    ('1/(x-1)', '+', '1/(x^2-1)', '(x+2)/(x^2-1)'),
    ('x/(x-1)^2', '-', '1/(x^2-1)', '(x^3-x^2+x-1)/(x^4-2*x^3+2*x-1)'),
    ('(x+1)/(x-1)', '*', '(x-1)/(x^2-1)', '(x+1)/(x^2-1)'),
    ('(x-1)/(x^2-1)', '*', '(x+1)/(x-1)', '(1)/(x-1)'),
    ('1/(x^2-1)', '+', '1/((x-1)*y)', '(x+y+1)/(x^2*y-y)'),
    ('y/(x^2-1)^2', '+', 'x/((x-1)^3*(y+2))', '(x^5+x^3*y^2+2*x^3*y-3*x^2*y^2-2*x^3-6*x^2*y+3*x*y^2+6*x*y-y^2+x-2*y)/(x^7*y+2*x^7-3*x^6*y-6*x^6+x^5*y+2*x^5+5*x^4*y+10*x^4-5*x^3*y-10*x^3-x^2*y-2*x^2+3*x*y+6*x-y-2)'),
    ('1/(x-1)', '*', '1/(x^2-1)', '(1)/(x^3-x^2-x+1)'),
    ('(x^2-1)/(x-1)', '+', '1/(x+1)', '(x^2+2*x+2)/(x+1)'),
    ('(x+1)/((x-1)*(x^2-1)^2)', '+', '(x-1)/((x^2-1)*(x-1)^3*y)', '(x*y+x-y-1)/(x^5*y-3*x^4*y+2*x^3*y+2*x^2*y-3*x*y+y)'),
    ('(x+1)/((x-1)*(x^2-1)^2)', '-', '(x-1)/((x^2-1)*(x-1)^3*y)', '(x*y-x-y+1)/(x^5*y-3*x^4*y+2*x^3*y+2*x^2*y-3*x*y+y)'),
    ('(x-1)/((x^2-1)*(x-1)^3*y)', '+', '(x+1)/((x-1)*(x^2-1)^2)', '(x*y+x+y+1)/(x^5*y-x^4*y-2*x^3*y+2*x^2*y+x*y-y)'),
]


@pytest.mark.parametrize("a, op, b, printed", PRINTED)
def test_sums_and_products_print_as_before(a, op, b, printed):
    variables = ("x", "y")
    x, y = parse_scalar(a, variables), parse_scalar(b, variables)
    value = x + y if op == "+" else x - y if op == "-" else x * y
    assert str(value) == printed


def _digits(n: int, limit: int) -> str:
    """str(n) with the interpreter's digit limit set to limit (0: none)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit to test")
@pytest.mark.parametrize("seed", range(6))
def test_scalar_text_is_str_at_any_size(seed):
    rng = random.Random(seed)
    for digits in (1, 570, 572, 640, 641, 4300, 4301, 8001, rng.randrange(2, 20000)):
        n = rng.choice([1, -1]) * rng.randrange(10 ** (digits - 1), 10**digits)
        text = _digits(n, 0)
        assert scalar_text(n) == text
        # the pieces are printed under the lowest limit an interpreter allows
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert scalar_text(n) == text
            f = Fraction(n, 7 * 10**digits + 1)
            assert scalar_text(f) == f"{_digits(f.numerator, 0)}/{_digits(f.denominator, 0)}"
            assert scalar_text(Fraction(n)) == text
        finally:
            sys.set_int_max_str_digits(old)
        if digits <= 4300:
            assert scalar_text(n) == str(n) and scalar_text(Fraction(n, 3)) == str(Fraction(n, 3))
    for n in (0, 10**600, 10**4300, -(10**8000), 2**20000):
        assert scalar_text(n) == _digits(n, 0)


def test_rational_functions_print_coefficients_past_the_digit_limit():
    big = 10**5000 + 1
    x = RationalFunction.var(("x",), "x")
    value = (x * big + 1) / (x - 1)
    assert str(value) == f"({_digits(big, 0)}*x+1)/(x-1)"
    assert scalar_text(value) == str(value)
