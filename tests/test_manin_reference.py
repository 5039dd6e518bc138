"""Support-driven Manin and coisotropic checks against the dense scans they replaced.

`ref_check_quadratic`, `ref_induce`, `ref_invariance_identities`, `ref_sl2`
and `ref_sl3` are the earlier library code: the invariance of a pairing
scanned over every (i, j, k), the induced associator read off one
component at a time with every ordering of every index triple compared,
the five split identities of d c = 0 scanned over their free indices, and
sl3 built from Fraction matrix products solved back into the basis.  They
are kept here as independent oracles only.
"""

import random
from fractions import Fraction

import pytest

from conftest import solve
from test_coisotropic import CASES
from qlie import linalg
from qlie.errors import InputError
from qlie.lie import (
    CECochain,
    LieAlgebra,
    WEDGE,
    abelian,
    direct_sum,
    heisenberg,
    sl2,
    sl3,
    trace_pairing,
)
from qlie.manin import (
    QuadraticLieAlgebra,
    check_quadratic,
    drinfeld_double,
    dual_subalgebra_bplus_bminus,
    triple_to_bialgebra,
)
from qlie.qlb import _invariance_identities, induce_from_coisotropic, split_casimir
from qlie.scalars import is_zero
from qlie.tensors import Multivector, SparseTensor, _sort_with_sign


def ref_check_quadratic(d):
    """(nondegenerate, invariant, witness) by the exhaustive i, j, k scan."""
    g = d.lie
    nondeg = linalg.rank(dict(enumerate(row)) for row in d.pairing) == g.dim
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                total = Fraction(0)
                for m, c in g.bracket(i, j).items():
                    total += c * d.pairing[m][k]
                for m, c in g.bracket(i, k).items():
                    total += c * d.pairing[j][m]
                if total != 0:
                    return nondeg, False, (g.basis[i], g.basis[j], g.basis[k])
    return nondeg, True, None


def ref_induce(split, c):
    """(delta, phi) component by component; InputError if phi is not antisymmetric."""
    P, Q, _ = split_casimir(split, c)
    nh, nm = split.dim_h, split.dim_m
    h = split.h_algebra()

    def Pc(i, j):
        return P.get((i, j), Fraction(0))

    def Qc(i, a):
        return Q.get((i, a), Fraction(0))

    def A(k, i, a):
        return split.block("A", i, a).get(k, Fraction(0))

    def C(k, a, b):
        return split.block("C", a, b).get(k, Fraction(0))

    def f(k, i, j):
        return h.structure_constant(i, j, k)

    delta_entries = []
    for k in range(nh):
        for i in range(nh):
            for j in range(i + 1, nh):
                total = Fraction(0)
                for a in range(nm):
                    total += Fraction(1, 2) * (A(j, k, a) * Qc(i, a) - A(i, k, a) * Qc(j, a))
                if not is_zero(total):
                    delta_entries.append((((k,), (i, j)), total))
    delta = CECochain.build(h, 1, WEDGE(2), delta_entries)

    def phi_component(i, j, k):
        total = Fraction(0)
        for a in range(nh):
            for b in range(nh):
                total += Fraction(1, 4) * f(i, a, b) * Pc(a, j) * Pc(b, k)
        for a in range(nm):
            for b in range(nm):
                total += Fraction(1, 2) * Qc(i, a) * (C(k, a, b) * Qc(j, b) - C(j, a, b) * Qc(k, b))
        for a in range(nh):
            for b in range(nm):
                total += Fraction(1, 4) * Pc(i, a) * (A(k, a, b) * Qc(j, b) - A(j, a, b) * Qc(k, b))
        return total

    phi_entries = {}
    for i in range(nh):
        for j in range(i + 1, nh):
            for k in range(j + 1, nh):
                v = phi_component(i, j, k)
                if not is_zero(v):
                    phi_entries[(i, j, k)] = v
    for i in range(nh):
        for j in range(nh):
            for k in range(nh):
                expect = Fraction(0)
                if len({i, j, k}) == 3:
                    sgn, srt = _sort_with_sign((i, j, k))
                    expect = sgn * phi_entries.get(srt, Fraction(0))
                if phi_component(i, j, k) != expect:
                    raise InputError("induced associator components are not antisymmetric")
    return delta, Multivector(h.dim, 3, phi_entries)


def ref_invariance_identities(split, P, Q):
    nh, nm = split.dim_h, split.dim_m
    h = split.h_algebra()

    def Pc(i, j):
        return P.get((i, j), Fraction(0))

    def Qc(i, a):
        return Q.get((i, a), Fraction(0))

    def block(name):
        return lambda k, i, a: split.block(name, i, a).get(k, Fraction(0))

    A, B, C, D = block("A"), block("B"), block("C"), block("D")

    def f(k, i, j):
        return h.structure_constant(i, j, k)

    def vanishes(ranges, t):
        return all(is_zero(t(x, y, z)) for x in ranges[0] for y in ranges[1] for z in ranges[2])

    H, M = range(nh), range(nm)
    return {
        "casimirinv1": vanishes(
            (H, H, M),
            lambda i, a, k: sum(
                (A(i, j, k) * Pc(j, a) + A(a, j, k) * Pc(j, i) for j in H), Fraction(0)
            )
            + sum((C(i, j, k) * Qc(a, j) + C(a, j, k) * Qc(i, j) for j in M), Fraction(0)),
        ),
        "casimirinv2": vanishes(
            (H, H, H),
            lambda i, a, j: sum(
                (A(i, j, k) * Qc(a, k) + A(a, j, k) * Qc(i, k) for k in M), Fraction(0)
            )
            - sum((f(i, k, j) * Pc(k, a) + f(a, k, j) * Pc(k, i) for k in H), Fraction(0)),
        ),
        "casimirinv3": vanishes(
            (H, M, M),
            lambda i, a, k: -sum(
                (A(i, j, k) * Qc(j, a) + B(a, j, k) * Pc(i, j) for j in H), Fraction(0)
            )
            - sum((D(a, j, k) * Qc(i, j) for j in M), Fraction(0)),
        ),
        "casimirinv4": vanishes(
            (H, H, M),
            lambda i, j, a: -sum((f(i, k, j) * Qc(k, a) for k in H), Fraction(0))
            + sum((B(a, j, k) * Qc(i, k) for k in M), Fraction(0)),
        ),
        "casimirinv5": vanishes(
            (M, M, M),
            lambda i, a, k: sum(
                (B(i, j, k) * Qc(j, a) + B(a, j, k) * Qc(j, i) for j in H), Fraction(0)
            ),
        ),
    }


def ref_sl2():
    brackets = {
        (0, 1): {2: Fraction(1)},
        (0, 2): {0: Fraction(-2)},
        (1, 2): {1: Fraction(2)},
    }
    g = LieAlgebra("sl2", ["e", "f", "h"], brackets)
    g.extra.update(
        {
            "type": "sl",
            "rank": 1,
            "pairing": [
                [Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(2)],
            ],
            "cartan": [2],
            "positive": [0],
            "negative": [1],
        }
    )
    return g


def ref_sl3():
    n = 3

    def mat(entries):
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), c in entries:
            m[i][j] += c
        return m

    def mmul(a, b):
        return [
            [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]

    labels = ["h1", "h2", "e1", "e2", "e12", "f1", "f2", "f12"]
    reps = {
        "h1": mat([((0, 0), Fraction(1)), ((1, 1), Fraction(-1))]),
        "h2": mat([((1, 1), Fraction(1)), ((2, 2), Fraction(-1))]),
        "e1": mat([((0, 1), Fraction(1))]),
        "e2": mat([((1, 2), Fraction(1))]),
        "e12": mat([((0, 2), Fraction(1))]),
        "f1": mat([((1, 0), Fraction(1))]),
        "f2": mat([((2, 1), Fraction(1))]),
        "f12": mat([((2, 0), Fraction(1))]),
    }
    basis_mats = [reps[lab] for lab in labels]
    rows = [
        dict(enumerate(basis_mats[b][i][j] for b in range(len(labels))))
        for i in range(n)
        for j in range(n)
    ]

    def expand(m):
        sol = solve(rows, [m[i][j] for i in range(n) for j in range(n)], len(labels))
        return {b: c for b, c in enumerate(sol) if c}

    brackets = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            ab, ba = mmul(basis_mats[i], basis_mats[j]), mmul(basis_mats[j], basis_mats[i])
            comps = expand([[ab[r][s] - ba[r][s] for s in range(n)] for r in range(n)])
            if comps:
                brackets[(i, j)] = comps
    g = LieAlgebra("sl3", labels, brackets)
    pairing = [
        [
            sum((mmul(basis_mats[i], basis_mats[j])[k][k] for k in range(n)), Fraction(0))
            for j in range(len(labels))
        ]
        for i in range(len(labels))
    ]
    g.extra.update(
        {
            "type": "sl",
            "rank": 2,
            "pairing": pairing,
            "cartan": [0, 1],
            "positive": [2, 3, 4],
            "negative": [5, 6, 7],
        }
    )
    return g


# ---------------------------------------------------------------------------
# check_quadratic
# ---------------------------------------------------------------------------

def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def block_diagonal(a, b):
    n, m = len(a), len(b)
    return [list(row) + [Fraction(0)] * m for row in a] + [[Fraction(0)] * n + list(row) for row in b]


def quadratic_cases():
    for g in (sl2(), sl3()):
        yield g.name, QuadraticLieAlgebra(g, trace_pairing(g))
    yield "sl3+sl2", QuadraticLieAlgebra(
        direct_sum(sl3(), sl2()), block_diagonal(trace_pairing(sl3()), trace_pairing(sl2()))
    )
    # no nondegenerate invariant pairing: the identity fails with a witness
    yield "heisenberg5", QuadraticLieAlgebra(heisenberg(5), identity(5))
    yield "abelian4", QuadraticLieAlgebra(abelian(4), identity(4))
    standard = dual_subalgebra_bplus_bminus(sl3())
    yield "standard-double-sl3", standard.quad
    yield "drinfeld-double-sl3", drinfeld_double(triple_to_bialgebra(standard)).quad


QUADRATIC = list(quadratic_cases())


def report_tuple(rep):
    return rep.nondegenerate, rep.invariant, rep.witness


@pytest.mark.parametrize("quad", [q for _, q in QUADRATIC], ids=[name for name, _ in QUADRATIC])
def test_check_quadratic_matches_dense_scan(quad):
    assert report_tuple(check_quadratic(quad)) == ref_check_quadratic(quad)


@pytest.mark.parametrize("quad", [q for _, q in QUADRATIC], ids=[name for name, _ in QUADRATIC])
def test_check_quadratic_witness_on_perturbed_pairings(quad):
    rng = random.Random(quad.lie.dim)
    n = quad.lie.dim
    failures = 0
    for _ in range(8):
        i, j = sorted(rng.sample(range(n), 2)) if rng.random() < 0.7 else (rng.randrange(n),) * 2
        pairing = [list(row) for row in quad.pairing]
        bump = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        pairing[i][j] += bump
        if i != j:
            pairing[j][i] += bump
        perturbed = QuadraticLieAlgebra(quad.lie, pairing)
        got = report_tuple(check_quadratic(perturbed))
        assert got == ref_check_quadratic(perturbed)
        failures += not got[1]
    # an abelian algebra keeps every pairing invariant; the others must fail
    assert failures == 0 if quad.lie.name.startswith("abelian") else failures > 0


# ---------------------------------------------------------------------------
# coisotropic induction and the split identities
# ---------------------------------------------------------------------------

def perturbed(c, rng):
    """c plus one seeded symmetric entry."""
    extra = ((rng.randrange(c.sig.dim), rng.randrange(c.sig.dim)), Fraction(rng.choice([-1, 1, 2]), 2))
    return SparseTensor.build(c.sig, list(c.items()) + [extra])


def compare_induced(split, c):
    try:
        expect = ref_induce(split, c)
    except InputError:
        with pytest.raises(InputError, match="not antisymmetric"):
            induce_from_coisotropic(split, c, validate=False)
        return False
    q = induce_from_coisotropic(split, c, validate=False)
    assert (q.delta, q.phi) == expect
    return True


@pytest.mark.parametrize("split, c", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_induced_structure_and_identities_match_dense(split, c):
    assert compare_induced(split, c)
    P, Q, _ = split_casimir(split, c)
    identities = _invariance_identities(split, P, Q)
    assert identities == ref_invariance_identities(split, P, Q)
    assert all(identities.values())


def test_perturbed_casimirs_match_dense():
    # a Casimir that is no longer invariant breaks identities, and off the
    # coisotropic locus the induced associator need not be antisymmetric
    rng = random.Random(9)
    broken, antisymmetric = 0, 0
    for _, split, c in CASES:
        c = perturbed(c, rng)
        antisymmetric += compare_induced(split, c)
        P, Q, _ = split_casimir(split, c)
        identities = _invariance_identities(split, P, Q)
        assert identities == ref_invariance_identities(split, P, Q)
        broken += not all(identities.values())
    assert broken > 0 and 0 < antisymmetric < len(CASES)


# ---------------------------------------------------------------------------
# the sl(n) factory against the constructors it replaced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("new, ref", [(sl2, ref_sl2), (sl3, ref_sl3)], ids=["sl2", "sl3"])
def test_sl_views_match_old_constructors(new, ref):
    g, expect = new(), ref()
    assert (g.name, g.basis) == (expect.name, expect.basis)
    # the same table, in the same order, with Fraction coefficients
    assert [(key, list(row.items())) for key, row in g.pairs()] == [
        (key, list(row.items())) for key, row in expect.pairs()
    ]
    assert all(type(c) is Fraction for _, row in g.pairs() for c in row.values())
    assert list(g.extra.items()) == list(expect.extra.items())
