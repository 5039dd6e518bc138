"""The integer kernels against their Fraction-only forms.

`scalars.Polynomial` keeps a coefficient as an ``int`` when it is integral
and forms a Fraction only where it divides; `polyvectors` sums `d`, `mul`
and `bracket` over integer numerators and divides each output key once.
Neither may change a value, a printed form or a type that leaves them:

* seeded chains of + - * /, ``**``, `derivative` and `exact_div` on
  root-hyperplane factors, non-integral coefficients and the non-coprime
  pair x + 1, x^2 + 2x + 1 print byte for byte as the Fraction-only
  classes of tests/ratfun_reference.py print them, and are equal to them;
* every stored polynomial term is an int exactly when it is integral,
  no float appears, and `constant_value()` is a Fraction;
* `d`, `mul` and `bracket` equal the generator-list kernel of
  tests/polyvector_oracle.py on Fraction, RationalFunction and mixed
  coefficients, over integral (sl3), half-integral (sl2 on e/2, f, h) and
  RationalFunction structure constants, and return Fractions (never
  ints) where only Fractions went in.
"""

import random
from fractions import Fraction

import pytest

import polyvector_oracle as oracle
import ratfun_reference as ref
from qlie.lie import LieAlgebra, sl3
from qlie.polyvectors import PolyVectorAlgebra, check_lie
from qlie.scalars import Polynomial, RationalFunction

VARS = ("x", "y")

# (exponents -> coefficient) of the atoms the chains are built from: root
# hyperplanes, a non-integral linear form, the non-coprime pair x + 1 and
# x^2 + 2x + 1, a constant and a monomial
ATOMS = [
    {(1, 0): 1, (0, 1): -1},
    {(1, 0): 1, (0, 1): 1},
    {(1, 0): 1},
    {(0, 1): 2},
    {(1, 0): 1, (0, 1): -2},
    {(1, 0): Fraction(1, 3), (0, 0): Fraction(2, 5)},
    {(1, 0): 1, (0, 0): 1},
    {(2, 0): 1, (1, 0): 2, (0, 0): 1},
    {(0, 0): Fraction(-3, 2)},
    {(1, 1): Fraction(2, 3)},
]


def pair(terms, den_terms=None):
    """The same rational function in the library and in the reference."""
    num = (Polynomial(VARS, terms), ref.Polynomial(VARS, terms))
    den_terms = den_terms or {(0, 0): 1}
    den = (Polynomial(VARS, den_terms), ref.Polynomial(VARS, den_terms))
    return RationalFunction(num[0], den[0]), ref.RationalFunction(num[1], den[1])


def assert_clean_poly(p: Polynomial):
    for c in p.terms.values():
        assert not isinstance(c, float)
        if c.denominator == 1:
            assert type(c) is int, (p, c)
        else:
            assert type(c) is Fraction, (p, c)


def assert_clean(x: RationalFunction):
    assert_clean_poly(x.num)
    for f in x.factors:
        assert_clean_poly(f)
    if x.is_constant():
        assert type(x.constant_value()) is Fraction


def assert_same(new, old):
    """Byte-identical print, the same factor multiset, and equal values."""
    assert str(new) == str(old)
    assert sorted((str(f), e) for f, e in new.factors.items()) == sorted(
        (str(f), e) for f, e in old.factors.items()
    )
    as_new = RationalFunction._of(
        Polynomial(VARS, old.num.terms), {Polynomial(VARS, f.terms): e for f, e in old.factors.items()}
    )
    assert new == as_new
    assert_clean(new)


def apply(op, a, b, rng):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "d":
        return a.derivative(VARS[rng.randrange(2)])
    return a ** rng.choice([-1, 2])


@pytest.mark.parametrize("seed", range(12))
def test_rational_function_chains_match_the_fraction_reference(seed):
    rng = random.Random(seed)
    new, old = pair(rng.choice(ATOMS), rng.choice(ATOMS))
    for _ in range(7):
        op = rng.choice("+-*/d^")
        b_new, b_old = pair(rng.choice(ATOMS), rng.choice(ATOMS))
        if op == "/" and b_new.is_zero() or op == "^" and new.is_zero():
            continue
        if op == "^" and len(new.num.terms) + sum(len(f.terms) for f in new.factors) > 12:
            op = "d"
        rng_state = rng.getstate()
        new = apply(op, new, b_new, rng)
        rng.setstate(rng_state)
        old = apply(op, old, b_old, rng)
        assert_same(new, old)


def test_non_coprime_factors_keep_their_reduction_path():
    # (x+1)/(x^2+2x+1) keeps the factor x^2+2x+1; adding 1/(x+1) brings in
    # x+1 as a second factor and the reduction keeps what it cannot divide
    a_new, a_old = pair({(1, 0): 1, (0, 0): 1}, {(2, 0): 1, (1, 0): 2, (0, 0): 1})
    b_new, b_old = pair({(0, 0): 1}, {(1, 0): 1, (0, 0): 1})
    assert_same(a_new, a_old)
    assert_same(a_new + b_new, a_old + b_old)
    assert_same((a_new + b_new) * a_new, (a_old + b_old) * a_old)
    assert_same((a_new - b_new) / b_new, (a_old - b_old) / b_old)


@pytest.mark.parametrize("seed", range(8))
def test_polynomial_chains_match_the_fraction_reference(seed):
    rng = random.Random(100 + seed)
    t = rng.choice(ATOMS)
    new, old = Polynomial(VARS, t), ref.Polynomial(VARS, t)
    for _ in range(6):
        t = rng.choice(ATOMS)
        b_new, b_old = Polynomial(VARS, t), ref.Polynomial(VARS, t)
        op = rng.choice(["+", "-", "*", "div", "d", "^", "scale"])
        if op == "+":
            new, old = new + b_new, old + b_old
        elif op == "-":
            new, old = new - b_new, old - b_old
        elif op == "*" or op == "^" and len(new.terms) > 4:
            new, old = new * b_new, old * b_old
        elif op == "div":
            # exact on the product, and None in both on a divisor that does not divide
            prod_new, prod_old = new * b_new, old * b_old
            assert str(prod_new.exact_div(b_new)) == str(prod_old.exact_div(b_old)) == str(old)
            assert prod_new.exact_div(b_new) == new
            q_new, q_old = new.exact_div(b_new), old.exact_div(b_old)
            assert (q_new is None) == (q_old is None)
            if q_new is not None:
                new, old = q_new, q_old
        elif op == "d":
            i = rng.randrange(2)
            new, old = new.derivative(i), old.derivative(i)
        elif op == "^":
            k = rng.choice([0, 2, 3])
            new, old = new**k, old**k
        else:
            c = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 3]))
            new, old = new.scale(c), old.scale(c)
        assert str(new) == str(old)
        assert new.terms == old.terms
        assert_clean_poly(new)


def test_integral_values_are_ints_and_constants_read_as_fractions():
    p = Polynomial(VARS, {(1, 0): Fraction(4, 2), (0, 0): Fraction(1, 2)})
    assert type(p.terms[(1, 0)]) is int and type(p.terms[(0, 0)]) is Fraction
    assert all(type(c) is int for c in p.scale(2).terms.values())
    assert all(type(c) is int for c in (p + p).terms.values())
    # an exact quotient of ints over a divisor with leading coefficient 2
    q = Polynomial(VARS, {(1, 0): 2, (0, 0): 1}).exact_div(Polynomial(VARS, {(1, 0): 2, (0, 0): 1}))
    assert q.terms == {(0, 0): 1} and type(q.terms[(0, 0)]) is int
    half = Polynomial(VARS, {(1, 0): 1}).exact_div(Polynomial(VARS, {(1, 0): 2}))
    assert half.terms == {(0, 0): Fraction(1, 2)} and type(half.terms[(0, 0)]) is Fraction
    # (x/3 + 1)(3x + 1) = x^2 + 10/3 x + 1: the first quotient term is 1/3 from two ints
    third = Polynomial(VARS, {(1, 0): Fraction(1, 3), (0, 0): 1})
    three = Polynomial(VARS, {(1, 0): 3, (0, 0): 1})
    assert (third * three).terms == {(2, 0): 1, (1, 0): Fraction(10, 3), (0, 0): 1}
    assert (third * three).exact_div(three).terms == third.terms
    for value in (0, 3, Fraction(6, 3), Fraction(-1, 3)):
        c = Polynomial.const(VARS, value)
        assert type(c.constant_value()) is Fraction and c.constant_value() == value
        assert type(RationalFunction.const(VARS, value).constant_value()) is Fraction
    assert str(Polynomial.const(VARS, 2)) == str(ref.Polynomial.const(VARS, 2)) == "2"


# -- the polyvector kernels --------------------------------------------------

T = ("t",)
TVAR = RationalFunction.var(T, "t")


def sl2_half_e():
    """sl2 on E = e/2, f, h: [E, f] = h/2, so L_g = 2."""
    g = LieAlgebra("sl2-half-e", ["E", "f", "h"], {(0, 1): {2: Fraction(1, 2)}, (0, 2): {0: Fraction(-2)}, (1, 2): {1: Fraction(2)}})
    assert check_lie(g).passed
    return g


def sl2_over_t():
    """sl2 with [e, f] = t h: RationalFunction structure constants, L_g = 1."""
    one = RationalFunction.const(T, 1)
    return LieAlgebra("sl2-t", ["e", "f", "h"], {(0, 1): {2: TVAR}, (0, 2): {0: -2 * one}, (1, 2): {1: 2 * one}})


ALGEBRAS = {"sl3": (sl3, 1), "sl2-half-e": (sl2_half_e, 2), "sl2-over-t": (sl2_over_t, 1)}


def rand_element(P, rng, kind, n=6):
    """n seeded terms on monomials of CE degree <= 2 and weight <= 2, with
    Fraction, RationalFunction or mixed coefficients."""
    monos = [m for k in range(3) for w in range(3) for m in P.slice_basis(k, w)]
    out = {}
    for k, m in enumerate(rng.sample(monos, min(n, len(monos)))):
        c = Fraction(rng.choice([-3, -1, 1, 2, 4]), rng.choice([1, 2, 3, 6]))
        if kind == "ratfun" or kind == "mixed" and k % 2:
            c = c * (TVAR + k) / (TVAR * TVAR + 1)
        out[m] = c
    return out


def assert_kernel_types(result, fraction_only):
    for c in result.values():
        if fraction_only:
            assert type(c) is Fraction, c
        else:
            assert isinstance(c, (Fraction, RationalFunction)) and type(c) is not int, c


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("shift", [1, 2])
@pytest.mark.parametrize("kind", ["fraction", "ratfun", "mixed"])
def test_d_mul_bracket_match_the_generator_list_kernel(name, shift, kind):
    make, den = ALGEBRAS[name]
    g = make()
    P = PolyVectorAlgebra(g, shift)
    assert P._d_den == den
    if name != "sl2-over-t":
        assert all(type(e[2]) is int for index in P._mu_index for es in index.values() for e in es)
    rng = random.Random(f"{name}-{shift}-{kind}")
    for _ in range(4):
        a, b = rand_element(P, rng, kind), rand_element(P, rng, kind)
        for got, want in (
            (P.d(a), oracle.d(P, a)),
            (P.mul(a, b), oracle.mul(P, a, b)),
            (P.bracket(a, b), oracle.bracket(P, a, b)),
        ):
            assert got == want
            assert_kernel_types(got, kind == "fraction" and name != "sl2-over-t")


def test_fraction_coefficients_over_integral_constants_divide_once():
    # integer coefficients over sl3 give integer sums, still returned as
    # Fractions; halves over the L_g = 2 sl2 give halves
    P = PolyVectorAlgebra(sl3(), 1)
    x = {((), (i,)): Fraction(1) for i in range(8)}
    dx = P.d(x)
    assert dx and all(type(c) is Fraction and c.denominator == 1 for c in dx.values())
    Q = PolyVectorAlgebra(sl2_half_e(), 1)
    d_h = Q.d({((2,), ()): Fraction(1)})  # d e^h = 1/2 e^E e^f
    assert d_h == {((0, 1), ()): Fraction(1, 2)}
    assert type(d_h[((0, 1), ())]) is Fraction
