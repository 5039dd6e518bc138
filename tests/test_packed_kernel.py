"""Edge cases of the packed exponent keys of `scalars.Polynomial`.

A term is keyed by one int whose 32-bit fields hold the exponents,
variable 0 in the most significant field, with the top bit of each field
as a guard bit.  These tests aim at the places where packing could go
wrong and compare with the tuple-keyed classes of tests/ratfun_reference.py:

* `exact_div` must see a borrow in any one field (x^2 / y is not exact);
* `leading()` is the lex-leading term even when the terms differ only in
  a later field, so int order must be lex order;
* `derivative` lowers the right field and leaves its neighbours alone;
* an exponent of 2^31 - 1 is accepted, and 2^31 is refused with
  `InputError` by the constructor and by `*` on either path (a one-term
  factor, or two factors of several terms);
* the tuple-keyed `terms` view round-trips, and sums, products, powers,
  derivatives and exact quotients of seeded random polynomials equal the
  reference's;
* the guard masks, read from a table built once per field count, are
  the closed form, and a remainder that reaches a guard bit in
  `exact_div` is refused too;
* a polynomial keeps its hash once taken, and equal polynomials built by
  different routes (the constructor, the parser, products, exact
  quotients, derivatives) hash alike before and after, so a factor dict
  keyed by one finds the others.
"""

import random
from fractions import Fraction

import pytest

import ratfun_reference as ref
from qlie.errors import InputError
from qlie.scalars import Polynomial, _guard, parse_scalar

XY = ("x", "y")
XYZ = ("x", "y", "z")
TOP = 2**31 - 1  # the largest exponent a field holds


def test_a_borrow_near_the_limit_makes_exact_div_fail():
    # x^(TOP-1) / y: the y field borrows; without that check the quotient
    # would carry into the x field and run x up to the limit
    assert Polynomial(XY, {(TOP - 1, 0): 1}).exact_div(Polynomial(XY, {(0, 1): 1})) is None


@pytest.mark.parametrize(
    "num, den",
    [
        ({(2, 0): 1}, {(0, 1): 1}),  # x^2 / y
        ({(0, 2): 1}, {(1, 0): 1}),  # y^2 / x: the top field borrows
        ({(2, 1): 1}, {(1, 2): 1}),  # x^2 y / x y^2
        ({(1, 0): 1, (0, 0): 1}, {(0, 1): 1, (0, 0): 1}),  # (x + 1) / (y + 1)
    ],
)
def test_exact_div_fails_where_one_field_borrows(num, den):
    assert Polynomial(XY, num).exact_div(Polynomial(XY, den)) is None
    assert ref.Polynomial(XY, num).exact_div(ref.Polynomial(XY, den)) is None


def test_exact_div_succeeds_without_a_borrow():
    x, y = Polynomial.var(XY, "x"), Polynomial.var(XY, "y")
    assert (x * y * y).exact_div(y) == x * y
    assert (x * x - y * y).exact_div(x + y) == x - y
    assert Polynomial(XY, {(TOP, TOP): 3}).exact_div(Polynomial(XY, {(TOP, 0): 1})) == Polynomial(XY, {(0, TOP): 3})


@pytest.mark.parametrize(
    "terms, lead",
    [
        ({(1, 0, 0): 1, (0, 5, 9): 2}, (1, 0, 0)),  # the first field decides
        ({(1, 1, 0): 1, (1, 0, 7): 2}, (1, 1, 0)),  # equal first fields: the second decides
        ({(1, 1, 2): 1, (1, 1, 3): -2}, (1, 1, 3)),  # only the last field differs
        ({(0, 0, TOP): 1, (0, 1, 0): 5}, (0, 1, 0)),  # a full later field loses to one higher up
    ],
)
def test_leading_is_lex_leading(terms, lead):
    p = Polynomial(XYZ, terms)
    assert p.leading() == (lead, terms[lead])
    assert p.leading() == ref.Polynomial(XYZ, terms).leading()


@pytest.mark.parametrize("index", range(3))
def test_derivative_at_a_field_boundary(index):
    terms = {(TOP, 1, 0): 2, (0, TOP, 1): 3, (1, 0, TOP): 5, (0, 0, 0): 7, (1, 1, 1): -1}
    new = Polynomial(XYZ, terms).derivative(index)
    assert new.terms == ref.Polynomial(XYZ, terms).derivative(index).terms
    assert new == Polynomial(XYZ, new.terms)


def test_the_largest_exponent_is_accepted():
    p = Polynomial(XY, {(TOP, 0): 1, (0, TOP): 1})
    assert p.terms == {(TOP, 0): 1, (0, TOP): 1}
    x = Polynomial.var(XY, "x")
    assert Polynomial(XY, {(TOP - 1, 0): 1}) * x == Polynomial(XY, {(TOP, 0): 1})
    assert str(Polynomial(XY, {(TOP, 0): 1})) == f"x^{TOP}"


@pytest.mark.parametrize("exps", [(TOP + 1, 0), (0, TOP + 1), (-1, 0), (0, 2**40)])
def test_the_constructor_refuses_an_exponent_outside_a_field(exps):
    with pytest.raises(InputError):
        Polynomial(XY, {exps: 1})


@pytest.mark.parametrize("field", range(2))
def test_a_product_past_the_limit_is_refused(field):
    unit = (1, 0) if field == 0 else (0, 1)
    top = (TOP, 0) if field == 0 else (0, TOP)
    one_term = Polynomial(XY, {unit: 1})
    with pytest.raises(InputError):
        Polynomial(XY, {top: 1}) * one_term  # a one-term factor
    with pytest.raises(InputError):
        one_term * Polynomial(XY, {top: 1, (0, 0): 1})  # a one-term factor on the left
    with pytest.raises(InputError):
        Polynomial(XY, {top: 1, (0, 0): 1}) * Polynomial(XY, {unit: 1, (0, 0): 1})  # several terms each


def _random_terms(rng, variables, high=False):
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        if high:
            exps = tuple(rng.choice([0, 1, 2, TOP // 2 - rng.randrange(3)]) for _ in variables)
        else:
            exps = tuple(rng.randrange(4) for _ in variables)
        terms[exps] = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])
    return terms


@pytest.mark.parametrize("seed", range(20))
def test_random_polynomials_match_the_tuple_keyed_reference(seed):
    rng = random.Random(seed)
    variables = XYZ[: 1 + seed % 3]
    high = seed % 2 == 1
    ta, tb = _random_terms(rng, variables, high), _random_terms(rng, variables, high)
    a, b = Polynomial(variables, ta), Polynomial(variables, tb)
    ra, rb = ref.Polynomial(variables, ta), ref.Polynomial(variables, tb)
    assert Polynomial(a.vars, a.terms) == a
    assert hash(Polynomial(a.vars, a.terms)) == hash(a)
    assert str(a) == str(ra) and a.leading() == ra.leading()
    assert (a + b).terms == (ra + rb).terms
    assert (a - b).terms == (ra - rb).terms
    assert (a * b).terms == (ra * rb).terms
    assert str(a * b) == str(ra * rb)
    if not high:
        assert (a**3).terms == (ra**3).terms
    for i in range(len(variables)):
        assert a.derivative(i).terms == ra.derivative(i).terms
    assert a.content_monomial() == ra.content_monomial()
    assert (a * b).exact_div(b) == a
    q, rq = a.exact_div(b), ra.exact_div(rb)
    assert (q is None) == (rq is None)
    if q is not None:
        assert q.terms == rq.terms


@pytest.mark.parametrize("n", range(1, 9))
def test_guard_masks_are_the_closed_form(n):
    assert _guard(n) == ((1 << 32 * n) - 1) // (2**32 - 1) << 31
    assert _guard(n) == sum(1 << 32 * i + 31 for i in range(n))


def test_exact_div_refuses_a_remainder_at_the_limit():
    # x y / (x + y^TOP): the quotient y times the divisor's y^TOP term
    # leaves y^(TOP+1) in the remainder, which sets the y field's guard bit
    with pytest.raises(InputError):
        Polynomial(XY, {(1, 1): 1}).exact_div(Polynomial(XY, {(1, 0): 1, (0, TOP): 1}))


def _routes(rng, variables):
    """A random polynomial p, built five ways."""
    terms = _random_terms(rng, variables)
    p = Polynomial(variables, terms)
    q = Polynomial(variables, _random_terms(rng, variables))
    # integrate p in variable 0, so that its derivative is p again
    up = Polynomial(variables, {(e[0] + 1, *e[1:]): Fraction(c) / (e[0] + 1) for e, c in terms.items()})
    parsed = parse_scalar(str(p), variables)
    assert not parsed.factors
    return [
        Polynomial(variables, terms),
        parsed.num,
        Polynomial.const(variables, 1) * p,
        (p * q).exact_div(q),
        up.derivative(0),
    ]


@pytest.mark.parametrize("seed", range(20))
def test_equal_polynomials_hash_alike_by_every_route(seed):
    rng = random.Random(seed)
    variables = XYZ[: 1 + seed % 3]
    first = _routes(rng, variables)
    assert all(r == first[0] for r in first)
    expected = hash((first[0].vars, frozenset(first[0]._terms)))
    # the first hash of each, then a kept one: every value is the same
    assert [hash(r) for r in first] == [expected] * len(first)
    assert [hash(r) for r in first] == [expected] * len(first)
    # a factor dict keyed by one route finds the keys of the others, each
    # hashed for the first time by the lookup
    for i, key in enumerate(first):
        factors = {key: i}
        for other in _routes(random.Random(seed), variables):
            assert factors[other] == i
