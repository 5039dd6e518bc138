"""The sparse-combination kernel and the containers built on it.

`combine` sums (key, coefficient) terms and drops zero sums; the one
container, `CECochain`, takes its linear structure from it.  It is checked
as a plain tensor (a degree-0 TENSOR(3) cochain), a multivector (a
degree-0 WEDGE(2) cochain) and a cochain of degree 2.  Each container is checked against
entrywise arithmetic on seeded data, over Q and over a rational-function
field.  `combine` stores a key's first term as it is (an int as a
Fraction) and `scalars.add_term` does the same; both are checked
against sums that start from zero (`ratfun_reference.combine`).
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import ratfun_reference
from qlie.errors import InputError
from qlie.lie import abelian, sl3
from qlie.scalars import RationalFunction, add_term, combine, is_zero, vec_add, vec_scale
from qlie.tensors import ADJOINT, TENSOR, CECochain, WEDGE

VARS = ("x", "y")


def tensor_case():
    # a plain 3-tensor, the degree-0 cochain valued in TENSOR(3): no slot
    # symmetry, so no key is the swap of another
    g = abelian(4)
    return {
        "make": lambda data: CECochain(g, 0, TENSOR(3), data),
        "build": lambda entries: CECochain.build(g, 0, TENSOR(3), entries),
        "keys": [((), key) for key in product(range(4), repeat=3)],
        "other": CECochain(g, 0, TENSOR(2)),
        "repeated": ((), (1, 1, 2)),
        "swap": None,
        "misshapen": [((), (0, 1)), ((), (0, 1, 2, 3)), ((), (0, 4, 1)), ((), (-1, 0, 0))],
    }


def multivector_case():
    # a 2-multivector: the degree-0 cochain valued in WEDGE(2)
    g = abelian(6)
    return {
        "make": lambda data: CECochain(g, 0, WEDGE(2), data),
        "build": lambda entries: CECochain.build(g, 0, WEDGE(2), entries),
        "keys": [((), key) for key in combinations(range(6), 2)],
        "other": CECochain(abelian(5), 0, WEDGE(2)),
        "repeated": ((), (3, 3)),
        "swap": lambda key: ((), (key[1][1], key[1][0])),
        "misshapen": [((), (0, 1, 2)), ((), (0,)), ((), (0, 6)), ((), (-1, 0))],
    }


def cochain_case():
    g = sl3()
    return {
        "make": lambda data: CECochain(g, 2, ADJOINT, data),
        "build": lambda entries: CECochain.build(g, 2, ADJOINT, entries),
        "keys": [(down, (u,)) for down in combinations(range(g.dim), 2) for u in range(g.dim)],
        "other": CECochain(g, 1, ADJOINT),
        "repeated": ((2, 2), (0,)),
        "swap": lambda key: ((key[0][1], key[0][0]), key[1]),
        "misshapen": [((0, 1), (0, 1)), ((0, 1), ()), ((0, 8), (0,)), ((-1, 0), (0,)), ((0, 1), (8,))],
    }


CASES = {"SparseTensor": tensor_case, "Multivector": multivector_case, "CECochain": cochain_case}


def rand_scalar(rng, ratfun):
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if not ratfun:
        return c
    x, y = (RationalFunction.var(VARS, v) for v in VARS)
    return c + rng.randint(-1, 1) * x / (y + rng.randint(1, 3))


def entrywise(keys, op, *vectors):
    out = {}
    for k in keys:
        v = op(*(d.get(k, Fraction(0)) for d in vectors))
        if not is_zero(v):
            out[k] = v
    return out


@pytest.mark.parametrize("ratfun", [False, True], ids=["fraction", "ratfun"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_linear_structure_is_entrywise(case, ratfun):
    c = CASES[case]()
    keys, make = c["keys"], c["make"]
    rng = random.Random(f"{case}/{ratfun}")
    sx = rng.sample(keys, 12)
    sy = sx[:4] + rng.sample(keys, 8)  # overlapping supports
    dx = {k: v for k in sx if not is_zero(v := rand_scalar(rng, ratfun))}
    dy = {k: v for k in sy if not is_zero(v := rand_scalar(rng, ratfun))}
    dy[sx[0]] = -dx[sx[0]] if sx[0] in dx else Fraction(1)  # one entry cancels in x + y
    x, y = make(dx), make(dy)
    s = rand_scalar(rng, ratfun) or Fraction(2)

    assert (x + y).data == entrywise(keys, lambda a, b: a + b, dx, dy)
    assert (x - y).data == entrywise(keys, lambda a, b: a - b, dx, dy)
    assert x.scale(s).data == entrywise(keys, lambda a: s * a, dx)
    assert (-x).data == entrywise(keys, lambda a: -a, dx)
    assert dict(x.items()) == dx and x.support_size() == len(dx)
    assert x + y == y + x and x - y + y == x and -(-x) == x
    assert x == make(dx) and x != x + make({keys[0]: Fraction(1)})
    assert (x - x).is_zero() and x.scale(Fraction(0)).is_zero()

    for bad in (lambda: x + c["other"], lambda: x - c["other"]):
        with pytest.raises(InputError):
            bad()
    assert x != c["other"]


@pytest.mark.parametrize("ratfun", [False, True], ids=["fraction", "ratfun"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_build_signs_and_cancellation(case, ratfun):
    c = CASES[case]()
    build, swap = c["build"], c["swap"]
    rng = random.Random(f"build/{case}/{ratfun}")
    zero = RationalFunction.const(VARS, 0) if ratfun else Fraction(0)
    # a zero coefficient is dropped before its index is canonicalised
    assert build([(c["repeated"], zero)]).is_zero()
    key = rng.choice(c["keys"])
    v = rand_scalar(rng, ratfun) or Fraction(1)
    if swap is None:
        # a plain tensor keeps a repeated index and sums equal keys
        assert build([(c["repeated"], Fraction(1))]).data == {c["repeated"]: 1}
        assert build([(key, v), (key, v)]).data == {key: v + v}
        assert build([(key, v), (key, -v)]).is_zero()
        x = build([(k, rand_scalar(rng, ratfun)) for k in rng.sample(c["keys"], 10)])
        assert build(list(x.items()) + [(k, -w) for k, w in x.items()]).is_zero()
        return
    # a nonzero coefficient on a repeated antisymmetric index vanishes
    assert build([(c["repeated"], Fraction(1))]).is_zero()
    assert build([(swap(key), v)]).data == {key: -v}
    assert build([(key, v), (swap(key), v)]).is_zero()
    x = build([(k, rand_scalar(rng, ratfun)) for k in rng.sample(c["keys"], 10)])
    assert build(list(x.items()) + [(swap(k), w) for k, w in x.items()]).is_zero()


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_key_of_the_wrong_shape_is_refused(case):
    # a key with the wrong number of module slots, or an index outside
    # 0..dim-1, in the down or the up slots
    c = CASES[case]()
    for bad in c["misshapen"]:
        with pytest.raises(InputError):
            c["make"]({bad: Fraction(1)})


def test_combine_sums_and_drops_zeros():
    one, two = Fraction(1), Fraction(2)
    assert combine([("a", one), ("b", two), ("a", -one)]) == {"b": two}
    acc = {"a": one}
    assert combine([("a", one), ("c", Fraction(0))], acc) is acc
    assert acc == {"a": two}
    x = RationalFunction.var(VARS, "x")
    assert combine([("a", x / (x + 1)), ("a", 1 / (x + 1))]) == {"a": Fraction(1)}
    assert combine([("a", x), ("a", -x)]) == {}


def test_vec_add_and_scale_leave_their_arguments():
    a = {0: Fraction(1), 1: Fraction(2)}
    b = {1: Fraction(1), 2: Fraction(3)}
    assert vec_add(a, b, Fraction(-2)) == {0: Fraction(1), 2: Fraction(-6)}
    assert vec_add(a, b) == {0: Fraction(1), 1: Fraction(3), 2: Fraction(3)}
    assert a == {0: Fraction(1), 1: Fraction(2)} and b == {1: Fraction(1), 2: Fraction(3)}
    assert vec_scale(a, Fraction(1, 2)) == {0: Fraction(1, 2), 1: Fraction(1)}
    assert vec_scale(a, Fraction(0)) == {}


def test_first_terms_match_the_reference_sums():
    # combine stores a key's first term as it is, an int as a Fraction:
    # what the reference's Fraction(0) + coef gives, value and type
    x = RationalFunction.var(VARS, "x")
    r = x / (x + 1)
    terms = [("int", 3), ("frac", Fraction(2, 3)), ("rf", r), ("zero-int", 0),
             ("zero-frac", Fraction(0)), ("zero-rf", r - r), ("int", Fraction(1, 2))]
    out, expected = combine(terms), ratfun_reference.combine(terms)
    assert list(out) == list(expected) == ["int", "frac", "rf"]
    assert [(type(v), str(v)) for v in out.values()] == [(type(v), str(v)) for v in expected.values()]
    assert out == {"int": Fraction(7, 2), "frac": Fraction(2, 3), "rf": r}
    assert type(combine([("k", 5)])["k"]) is Fraction
    assert combine([("k", r)])["k"] is r  # a RationalFunction keeps its value and type
    assert combine([("k", Fraction(0)), ("m", 0), ("n", r - r)]) == {}


def test_add_term_first_terms_match_a_sum_from_zero():
    # add_term stores a key's first term as it is: what 0 + c gives
    x = RationalFunction.var(VARS, "x")
    r = x / (x + 1)

    def reference(terms):
        acc = {}
        for key, c in terms:
            v = acc.get(key, 0) + c
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
        return acc

    terms = [("int", 3), ("frac", Fraction(2, 3)), ("rf", r), ("zero-int", 0), ("zero-frac", Fraction(0)),
             ("zero-rf", r - r), ("int", -3), ("frac", 1), ("rf", Fraction(1, 2))]
    acc = {}
    for key, c in terms:
        add_term(acc, key, c)
    expected = reference(terms)
    assert list(acc) == list(expected) == ["frac", "rf"]
    assert [(type(v), str(v)) for v in acc.values()] == [(type(v), str(v)) for v in expected.values()]
    for c in (7, Fraction(7, 3), r):
        acc = {}
        add_term(acc, "k", c)
        assert acc["k"] is c
