"""The Etingof-Varchenko classification as an answer key for `dynamical`.

Etingof & Varchenko (Comm. Math. Phys. 192, 1998) classify the classical
dynamical r-matrices over a Cartan subalgebra with zero symmetric part:
r_X = sum over a in X of 2/a(x) (e_a (x) f_a - f_a (x) e_a), the form of
`conftest.ev_rmatrix`, solves the CDYBE exactly when X = D+ n V for a
subspace V of h*, D+ the positive roots; adding sum w_ij(x) h_i ^ h_j keeps
it a solution exactly when the 2-form w is closed; and s r_X is no solution
for s != 1 and X nonempty.  Each test decides the answer by itself, with its
own rank computation and its own derivatives, and compares it with the
library's verdict.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import ev_rmatrix
from qlie.lie import sl
from qlie.rmatrix import dynamical_check


def positive_roots(g):
    """{label of e_a: a in simple-root coordinates}: the digits of the label
    name the simple roots that sum to a."""
    simple = range(len(g.extra["cartan"]))
    return {
        label: tuple(int(str(i + 1) in label[1:]) for i in simple)
        for label in g.basis
        if label[0] == "e"
    }


def rank(vectors) -> int:
    """The rank over Q of a list of integer vectors, by elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def is_closed_subset(roots, X) -> bool:
    """X = D+ n V for a subspace V: no positive root outside X lies in the span of X."""
    base = rank([roots[a] for a in X])
    return all(rank([roots[a] for a in X] + [v]) > base for a, v in roots.items() if a not in X)


def subsets(labels):
    """Every subset of labels, indexed by the bit mask over their order."""
    return [tuple(a for i, a in enumerate(labels) if mask >> i & 1) for mask in range(1 << len(labels))]


def verdict(g, X, scale=1, gauge=()):
    rep = dynamical_check(ev_rmatrix(g, scale, roots=X, gauge=gauge))
    # the symmetric part is zero and every term has weight 0, so a failure
    # can only be the CDYBE's
    assert all(t.is_zero() for t in rep.equivariance_defects.values())
    assert rep.symmetric_part_constant and rep.symmetric_part_invariant
    assert rep.passed == rep.cdybe_holds
    return rep.passed


@pytest.mark.parametrize("n", [3, 4])
def test_every_subset_passes_exactly_when_closed(n):
    g = sl(n)
    roots = positive_roots(g)
    family = subsets(list(roots))
    closed = [X for X in family if is_closed_subset(roots, X)]
    # the answer key is not trivial: on sl3, X is closed unless it is two of
    # the three roots; on sl4, 15 of the 64 subsets are closed
    assert 0 < len(closed) < len(family)
    for X in family:
        assert verdict(g, X) is (X in closed), X


def test_a_seeded_sample_of_sl5_subsets_passes_exactly_when_closed():
    # 52 of the 1,024 subsets are closed, so a uniform sample would hold few:
    # take 30 of each kind
    g = sl(5)
    roots = positive_roots(g)
    family = subsets(list(roots))
    closed = [X for X in family if is_closed_subset(roots, X)]
    other = [X for X in family if X not in closed]
    assert (len(family), len(closed)) == (1024, 52)
    rng = random.Random(14)
    for X in rng.sample(closed, 30):
        assert verdict(g, X), X
    for X in rng.sample(other, 30):
        assert not verdict(g, X), X


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("s", [2, 3, -1])
def test_a_scaled_closed_subset_fails(n, s):
    g = sl(n)
    roots = positive_roots(g)
    closed = [X for X in subsets(list(roots)) if X and is_closed_subset(roots, X)]
    assert closed
    for X in closed:
        assert not verdict(g, X, scale=s), X


# ---------------------------------------------------------------------------
# the gauge term sum w_ij h_i ^ h_j, w a polynomial 2-form on h*
# ---------------------------------------------------------------------------
# a polynomial is {exponent tuple: Fraction}, over x1..x3 on sl4

RANK = 3


def poly_add(*polys):
    out = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_neg(p):
    return {e: -c for e, c in p.items()}


def derivative(p, k):
    out = {}
    for e, c in p.items():
        if e[k]:
            d = e[:k] + (e[k] - 1,) + e[k + 1 :]
            out[d] = out.get(d, 0) + c * e[k]
    return {e: c for e, c in out.items() if c}


def poly_text(p) -> str:
    terms = [
        f"({c.numerator}/{c.denominator})" + "".join(f"*x{k + 1}^{n}" for k, n in enumerate(e) if n)
        for e, c in sorted(p.items())
    ]
    return "+".join(terms) or "0"


def rand_poly(rng):
    """A seeded polynomial of degree at most 2 with three terms."""
    out = {}
    for _ in range(3):
        e = [0] * RANK
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(RANK)] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))
    return {e: c for e, c in out.items() if c}


def exterior_d(theta):
    """w = d theta for a 1-form theta (a list of RANK polynomials): w_ij = d_i theta_j - d_j theta_i."""
    return {
        (i, j): poly_add(derivative(theta[j], i), poly_neg(derivative(theta[i], j)))
        for i, j in combinations(range(RANK), 2)
    }


def d_of_two_form(w):
    """(dw)_ijk = d_i w_jk - d_j w_ik + d_k w_ij, for i < j < k."""
    return {
        (i, j, k): poly_add(derivative(w[(j, k)], i), poly_neg(derivative(w[(i, k)], j)), derivative(w[(i, j)], k))
        for i, j, k in combinations(range(RANK), 3)
    }


def gauge(w):
    return [(i, j, poly_text(p)) for (i, j), p in w.items() if p]


def test_a_closed_gauge_term_keeps_a_solution():
    g = sl(RANK + 1)
    rng = random.Random(15)
    one = (0,) * RANK
    x = [tuple(int(k == i) for k in range(RANK)) for i in range(RANK)]
    # x1 dx1^dx2 and 5 dx1^dx3 are closed; d(x1 x2 dx3) = x2 dx1^dx3 + x1 dx2^dx3
    forms = [
        {(0, 1): {x[0]: Fraction(1)}, (0, 2): {}, (1, 2): {}},
        {(0, 1): {}, (0, 2): {one: Fraction(5)}, (1, 2): {}},
        exterior_d([{}, {}, {(1, 1, 0): Fraction(1)}]),
    ] + [exterior_d([rand_poly(rng) for _ in range(RANK)]) for _ in range(3)]
    for w in forms:
        assert all(not p for p in d_of_two_form(w).values())
        assert any(w.values())
        assert verdict(g, None, gauge=gauge(w)), w


def test_a_gauge_term_that_is_not_closed_breaks_it():
    g = sl(RANK + 1)
    rng = random.Random(16)
    x3 = (0, 0, 1)
    forms = [{(0, 1): {x3: Fraction(1)}, (0, 2): {}, (1, 2): {}}]  # x3 dx1^dx2
    while len(forms) < 4:
        w = {(i, j): rand_poly(rng) for i, j in combinations(range(RANK), 2)}
        if any(d_of_two_form(w).values()):
            forms.append(w)
    for w in forms:
        assert any(d_of_two_form(w).values())
        assert not verdict(g, None, gauge=gauge(w)), w
