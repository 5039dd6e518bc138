"""Support-driven Manin, split and coisotropic code against the paths they replaced.

`ref_check_quadratic`, `ref_induce`, `ref_invariance_identities`, `ref_sl2`
and `ref_sl3` are the earlier library code: the invariance of a pairing
scanned over every (i, j, k), the induced associator read off one
component at a time with every ordering of every index triple compared,
the five split identities of d c = 0 scanned over their free indices, and
sl3 built from Fraction matrix products solved back into the basis.  The
library now reads the five identities off the blocks of d c for a
coisotropic c (the one Chevalley-Eilenberg differential; the tests drop
the m (x) m entries of any other c first), so `ref_invariance_identities` is
the hand contraction it replaced: it and `ref_induce` take every block
f, A, B, C and D from `conftest.ref_split_blocks`, the blocks read off
three dense loops over pairs of basis vectors (the split itself keeps
only the h components f, A and C).  `ref_triple_to_bialgebra` and
`ref_casimir_to_phi` are the bialgebra of a triple from the inverse Gram
matrix and the bracket of g*, and the associator -(1/6) [c_12, c_23] of a
Casimir element; the library reads the split blocks off one walk over the
nonzero brackets and takes the other two from coisotropic induction.
They are kept here as independent oracles only.
"""

import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import (
    FIXTURES,
    dense_matrix,
    multivector,
    rand_fraction,
    reassembled_brackets,
    ref_split_blocks,
    solve,
    sparse_rows,
    sym2,
    sym2_entries,
    tensor,
)
from test_coisotropic import CASES, families
from qlie import linalg
from qlie.cli import run
from qlie.errors import InputError
from qlie.formats import cochain_to_entries, lie_from_dict, lie_to_dict
from qlie.lie import (
    LieAlgebra,
    abelian,
    casimir_from_pairing,
    casimir_of,
    direct_sum,
    heisenberg,
    sl,
    sl2,
    sl3,
    split_subalgebra,
    trace_pairing,
)
from qlie.manin import (
    ManinTriple,
    QuadraticLieAlgebra,
    _invariance_residual,
    check_quadratic,
    drinfeld_double,
    dual_subalgebra_bplus_bminus,
    manin_triple_check,
    triple_to_bialgebra,
)
from qlie.qlb import (
    QuasiLieBialgebra,
    _invariance_identities,
    casimir_invariance_residual,
    casimir_to_phi,
    induce_from_coisotropic,
)
from qlie.scalars import is_zero
from qlie.tensors import CECochain, SYM, WEDGE, _sort_with_sign, embed_wedge


def ref_check_quadratic(d):
    """(nondegenerate, invariant, witness) by the exhaustive i, j, k scan."""
    g = d.lie
    pairing = dense_matrix(d.pairing)
    nondeg = linalg.rank(dict(enumerate(row)) for row in pairing) == g.dim
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                total = Fraction(0)
                for m, c in g.bracket(i, j).items():
                    total += c * pairing[m][k]
                for m, c in g.bracket(i, k).items():
                    total += c * pairing[j][m]
                if total != 0:
                    return nondeg, False, (g.basis[i], g.basis[j], g.basis[k])
    return nondeg, True, None


def dense_blocks(split):
    """f, A, B, C and D of `ref_split_blocks` as X(k, a, b) = X^k_{ab}."""
    blocks = ref_split_blocks(split.g, split.h_indices, split.m_indices)
    return [
        lambda k, a, b, block=blocks[name]: block.get((a, b), {}).get(k, Fraction(0))
        for name in "fABCD"
    ]


def dense_casimir(split, c):
    """P^{ij} and Q^{ia} of c as functions of local indices, read off its
    entries in both orders."""
    entries = dict(sym2_entries(c))
    h, m = split.h_indices, split.m_indices
    return (
        lambda i, j: entries.get((h[i], h[j]), Fraction(0)),
        lambda i, a: entries.get((h[i], m[a]), Fraction(0)),
    )


def ref_induce(split, c):
    """(delta, phi) component by component; InputError if phi is not antisymmetric."""
    nh, nm = split.dim_h, len(split.m_indices)
    h = split.h_algebra()
    f, A, _, C, _ = dense_blocks(split)
    Pc, Qc = dense_casimir(split, c)

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
    return delta, multivector(h, 3, phi_entries.items())


def ref_invariance_identities(split, c):
    """The five split identities of d c = 0 for the part P + Q of c off
    m (x) m, each scanned over its free indices with the blocks of
    `ref_split_blocks`."""
    nh, nm = split.dim_h, len(split.m_indices)
    f, A, B, C, D = dense_blocks(split)
    Pc, Qc = dense_casimir(split, c)

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


def ref_sub_algebra(d, indices, name):
    pos = {v: i for i, v in enumerate(indices)}
    brackets = {}
    for a, i in enumerate(indices):
        for b, j in enumerate(indices):
            if a < b:
                comps = d.bracket(i, j)
                if any(k not in pos for k in comps):
                    raise InputError(f"indices do not span a subalgebra of {d.name}")
                row = {pos[k]: c for k, c in comps.items()}
                if row:
                    brackets[(a, b)] = row
    return LieAlgebra(name, [d.basis[i] for i in indices], brackets)


def ref_triple_to_bialgebra(t):
    """The Lie bialgebra on g with cobracket dual to the bracket of g*."""
    d = t.quad.lie
    g_sub = ref_sub_algebra(d, t.g_indices, f"{d.name}|g")
    n = len(t.g_indices)
    pairing = dense_matrix(t.quad.pairing)
    gram = [[pairing[t.gstar_indices[k]][t.g_indices[j]] for j in range(n)] for k in range(n)]
    gram = [{j: c for j, c in enumerate(row) if c} for row in gram]
    m = linalg.invert(gram)  # xi^i = sum_k m[i][k] y_k pairs dually with the x_j
    spos = {v: k for k, v in enumerate(t.gstar_indices)}

    def dual_bracket(i, j):
        # [xi^i, xi^j] in the y basis of g*
        out = {}
        for k, mik in m[i].items():
            for l, mjl in m[j].items():
                for w, c in d.bracket(t.gstar_indices[k], t.gstar_indices[l]).items():
                    if w not in spos:
                        raise InputError("dual subalgebra is not closed")
                    out[spos[w]] = out.get(spos[w], Fraction(0)) + mik * mjl * c
        return {w: c for w, c in out.items() if c}

    delta_entries = [
        (((p,), (i, j)), c * v)
        for i in range(n)
        for j in range(i + 1, n)
        for w, c in dual_bracket(i, j).items()
        for p, v in gram[w].items()
    ]
    delta = CECochain.build(g_sub, 1, WEDGE(2), delta_entries)
    return QuasiLieBialgebra(g_sub, delta, multivector(g_sub, 3))


def casimir_commutator(g, c):
    """[c_12, c_23] = sum a_i (x) [b_i, a_j] (x) b_j over c = sum a (x) b."""
    if not (c.k == 0 and c.module == SYM(2) and c.g.dim == g.dim):
        raise InputError("Casimir element must be a symmetric 2-tensor over g")
    entries = []
    pairs = sym2_entries(c)
    for (a1, b1), c1 in pairs:
        for (a2, b2), c2 in pairs:
            for m, coef in g.bracket(b1, a2).items():
                entries.append(((a1, m, b2), c1 * c2 * coef))
    return tensor(g, 3, entries)


def ref_casimir_to_phi(g, c):
    """phi = -(1/6) [c_12, c_23] for an invariant Casimir element."""
    residual = casimir_invariance_residual(g, c)
    if not residual.is_zero():
        first = tuple(tuple(g.basis[i] for i in part) for part in min(residual.data))
        raise InputError(
            f"Casimir element is not invariant; residual has {residual.support_size()} "
            f"nonzero components, first: {first}"
        )
    commutator = casimir_commutator(g, c)
    entries = {}
    for ((), key), coef in commutator.items():
        if list(key) == sorted(set(key)):
            entries[key] = Fraction(-1, 6) * coef
    phi = multivector(g, 3, entries.items())
    # total antisymmetry of [c12, c23] holds exactly when c is invariant
    if embed_wedge(phi) != commutator.scale(Fraction(-1, 6)):
        raise InputError("commutator of an invariant Casimir must be antisymmetric")
    return phi


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
    return [{i: Fraction(1)} for i in range(n)]


def block_diagonal(a, b):
    """The sparse rows of the pairing a on the first summand and b on the second."""
    return list(a) + [{len(a) + j: x for j, x in row.items()} for row in b]


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
        pairing = dense_matrix(quad.pairing)
        bump = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        pairing[i][j] += bump
        if i != j:
            pairing[j][i] += bump
        perturbed = QuadraticLieAlgebra(quad.lie, sparse_rows(pairing))
        got = report_tuple(check_quadratic(perturbed))
        assert got == ref_check_quadratic(perturbed)
        failures += not got[1]
    # an abelian algebra keeps every pairing invariant; the others must fail
    assert failures == 0 if quad.lie.name.startswith("abelian") else failures > 0


def ref_invariance_residual(d):
    """The nonzero <[x_i, x_j], x_k> + <x_j, [x_i, x_k]> over every (i, j, k)."""
    g = d.lie
    pairing = dense_matrix(d.pairing)
    out = {}
    for i, j, k in product(range(g.dim), repeat=3):
        total = sum((c * pairing[m][k] for m, c in g.bracket(i, j).items()), Fraction(0))
        total += sum((c * pairing[j][m] for m, c in g.bracket(i, k).items()), Fraction(0))
        if total:
            out[(i, j, k)] = total
    return out


def half_e_sl2():
    """sl2 on (e/2, f, h): structure constants 1/2 and -1 with denominators."""
    return LieAlgebra("sl2half", ["e", "f", "h"], {(0, 1): {2: Fraction(1, 2)}, (0, 2): {0: Fraction(-2)}, (1, 2): {1: Fraction(2)}})


@pytest.mark.parametrize("seed", range(4))
def test_invariance_residual_matches_dense_sums(seed):
    # the residual check_quadratic reads its witness off, value for value, on
    # pairings and structure constants with denominators and over Q(x)
    rng = random.Random(seed)
    sl2x = lie_from_dict(json.loads((FIXTURES / "sl2x.json").read_text()))
    for g in (half_e_sl2(), sl3(), sl2x):
        n = g.dim
        pairing = [[Fraction(0)] * n for _ in range(n)]
        for _ in range(n):
            i, j = rng.randrange(n), rng.randrange(n)
            pairing[i][j] = pairing[j][i] = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        d = QuadraticLieAlgebra(g, sparse_rows(pairing))
        expected = ref_invariance_residual(d)
        assert expected
        assert _invariance_residual(g, sparse_rows(pairing)) == expected
        assert check_quadratic(d).witness == tuple(g.basis[i] for i in min(expected))


# ---------------------------------------------------------------------------
# coisotropic induction and the split identities
# ---------------------------------------------------------------------------

def off_mm(split, c):
    """c without its m (x) m entries: the coisotropic part P + Q that
    `_invariance_identities` takes and `ref_invariance_identities` reads."""
    return CECochain(c.g, 0, SYM(2), {key: v for key, v in c.items() if not split.hpos.keys().isdisjoint(key[1])})


def perturbed(c, rng):
    """c plus one seeded symmetric entry."""
    extra = ((rng.randrange(c.g.dim), rng.randrange(c.g.dim)), Fraction(rng.choice([-1, 1, 2]), 2))
    return c + sym2(c.g, [extra])


def compare_induced(split, c):
    try:
        expect = ref_induce(split, c)
    except InputError:
        with pytest.raises(InputError, match="not antisymmetric"):
            induce_from_coisotropic(split, c)
        return False
    q = induce_from_coisotropic(split, c)
    assert (q.delta, q.phi) == expect
    return True


@pytest.mark.parametrize("split, c", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_induced_structure_and_identities_match_dense(split, c):
    assert compare_induced(split, c)
    identities = _invariance_identities(split, c)
    assert identities == ref_invariance_identities(split, c)
    assert all(identities.values()) and casimir_invariance_residual(split.g, c).is_zero()


def test_perturbed_casimirs_match_dense():
    # a Casimir that is no longer invariant breaks identities, and off the
    # coisotropic locus the induced associator need not be antisymmetric
    rng = random.Random(9)
    broken, antisymmetric = 0, 0
    for _, split, c in CASES:
        c = perturbed(c, rng)
        antisymmetric += compare_induced(split, c)
        identities = _invariance_identities(split, off_mm(split, c))
        assert identities == ref_invariance_identities(split, c)
        broken += not all(identities.values())
    assert broken > 0 and 0 < antisymmetric < len(CASES)


def test_random_casimirs_match_dense_identities():
    # random symmetric c, m (x) m entries included, over every split: the
    # blocks of d(P + Q) against the five identities scanned index by index
    rng = random.Random(18)
    patterns = set()
    for _, split, c in CASES:
        n = c.g.dim
        for _ in range(4):
            entries = [
                ((rng.randrange(n), rng.randrange(n)), rand_fraction(rng))
                for _ in range(rng.randint(1, 4))
            ]
            for x in (sym2(c.g, entries), c + sym2(c.g, entries)):
                pq = off_mm(split, x)
                identities = _invariance_identities(split, pq)
                assert identities == ref_invariance_identities(split, x)
                assert all(identities.values()) == casimir_invariance_residual(split.g, pq).is_zero()
                patterns.add(tuple(identities.values()))
    assert len(patterns) >= 10


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
    # the old constructors built the dense trace form
    expect.extra["pairing"] = sparse_rows(expect.extra["pairing"])
    assert list(g.extra.items()) == list(expect.extra.items())


# ---------------------------------------------------------------------------
# split blocks: one walk over the nonzero brackets against three dense loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("split, c", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_split_blocks_match_dense_loops(split, c):
    g = split.g
    expect = ref_split_blocks(g, split.h_indices, split.m_indices)
    for name in "fAC":
        # the same entries, keyed in the same order
        assert list(getattr(split, name).items()) == list(expect[name].items()), name
    assert reassembled_brackets(split) == {(i, j): g.bracket(i, j) for i in range(g.dim) for j in range(g.dim)}


def test_split_rejects_non_subalgebras_with_the_same_pair():
    rejected = 0
    for _, g, _ in families():
        for size in range(1, g.dim + 1):
            for h in combinations(range(g.dim), size):
                m = tuple(i for i in range(g.dim) if i not in h)
                for order in (h, h[::-1]):
                    try:
                        ref_split_blocks(g, order, m)
                    except InputError as exc:
                        with pytest.raises(InputError) as err:
                            split_subalgebra(g, order, m)
                        assert str(err.value) == str(exc)
                        rejected += 1
                    else:
                        split_subalgebra(g, order, m)
    assert rejected > 300


# ---------------------------------------------------------------------------
# triples: coisotropic induction against the inverse Gram matrix
# ---------------------------------------------------------------------------

def relabelled(t, order, scale):
    """t on the basis whose p-th vector is scale[p] times the order[p]-th old one."""
    d = t.quad.lie
    new = {old: p for p, old in enumerate(order)}
    brackets = {}
    for p in range(d.dim):
        for q in range(p + 1, d.dim):
            s = scale[p] * scale[q]
            row = {new[k]: s * c / scale[new[k]] for k, c in d.bracket(order[p], order[q]).items()}
            if row:
                brackets[(p, q)] = row
    lie = LieAlgebra(d.name + "'", [d.basis[i] for i in order], brackets)
    old = dense_matrix(t.quad.pairing)
    pairing = [[scale[p] * scale[q] * old[order[p]][order[q]] for q in range(d.dim)] for p in range(d.dim)]
    quad = QuadraticLieAlgebra(lie, sparse_rows(pairing))
    return ManinTriple(quad, tuple(new[i] for i in t.g_indices), tuple(new[i] for i in t.gstar_indices))


def zero_double(g):
    return drinfeld_double(QuasiLieBialgebra(g, CECochain(g, 1, WEDGE(2), {}), multivector(g, 3)))


def triple_cases():
    algebras = [(f"sl{n}", sl(n)) for n in range(2, 6)] + [("sl2-efh", sl2())]
    standard = [(name, dual_subalgebra_bplus_bminus(g)) for name, g in algebras]
    for name, t in standard:
        yield "standard-" + name, t
    for name, t in standard:
        yield "double-" + name, drinfeld_double(ref_triple_to_bialgebra(t))
    yield "double-heisenberg3", zero_double(heisenberg(3))
    yield "double-abelian4", zero_double(abelian(4))
    # abelian R^3 + R^3 with a hyperbolic pairing whose Gram block is not the identity
    gram = [[1, 2, 0], [0, 1, 0], [3, 0, -1]]
    pairing = [[Fraction(0)] * 6 for _ in range(6)]
    for k in range(3):
        for j in range(3):
            pairing[3 + k][j] = pairing[j][3 + k] = Fraction(gram[k][j])
    quad = QuadraticLieAlgebra(abelian(6), sparse_rows(pairing))
    yield "hyperbolic-abelian6", ManinTriple(quad, (0, 1, 2), (3, 4, 5))
    # the double of sl3's bialgebra with g and g* interleaved and g* rescaled
    t = drinfeld_double(ref_triple_to_bialgebra(standard[1][1]))
    n = len(t.g_indices)
    order = [i for k in range(n) for i in (t.gstar_indices[k], t.g_indices[k])]
    scale = [Fraction(k + 2, 2) if i >= n else Fraction(1) for k, i in enumerate(order)]
    yield "double-sl3-interleaved", relabelled(t, order, scale)


TRIPLES = list(triple_cases())


@pytest.mark.parametrize("t", [t for _, t in TRIPLES], ids=[name for name, _ in TRIPLES])
def test_triple_bialgebra_matches_gram_inversion(t):
    assert manin_triple_check(t).passed
    got, expect = triple_to_bialgebra(t), ref_triple_to_bialgebra(t)
    assert got.g.basis == expect.g.basis and got.g.same_structure(expect.g)
    assert got.delta.data == expect.delta.data
    assert got.phi.data == {} and got == expect


def test_triple_cases_cover_the_shapes():
    names = [name for name, _ in TRIPLES]
    assert len(names) == len(set(names)) == 14
    t = dict(TRIPLES)["double-sl3-interleaved"]
    assert max(t.g_indices) > min(t.gstar_indices)
    # a nonzero cobracket on every standard triple and its double
    assert all(not ref_triple_to_bialgebra(t).delta.is_zero() for name, t in TRIPLES[:10])


# ---------------------------------------------------------------------------
# the Casimir associator: coisotropic induction at h = g against [c_12, c_23]
# ---------------------------------------------------------------------------

def casimir_cases():
    sum_pairing = block_diagonal(trace_pairing(sl3()), trace_pairing(sl2()))
    g_sum = direct_sum(sl3(), sl2())
    for name, g, c in (
        ("sl2", sl2(), casimir_from_pairing(sl2())),
        ("sl3", sl3(), casimir_from_pairing(sl3())),
        ("sl3+sl2", g_sum, casimir_of(g_sum, sum_pairing)),
    ):
        yield name + "-trace", g, c
        yield name + "-scaled", g, c.scale(Fraction(-5, 3))
        yield name + "-zero", g, sym2(g, [])


CASIMIRS = list(casimir_cases())


@pytest.mark.parametrize("g, c", [case[1:] for case in CASIMIRS], ids=[case[0] for case in CASIMIRS])
def test_casimir_to_phi_matches_commutator(g, c):
    phi = casimir_to_phi(g, c)
    assert phi.data == ref_casimir_to_phi(g, c).data
    assert phi.is_zero() == c.is_zero()


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl3+sl2"])
def test_casimir_to_phi_rejects_non_invariant_with_the_same_message(name, tmp_path):
    # casimir_to_phi trusts its input; the casimir-phi command checks
    # invariance first, with the message of the reference
    g, c = next((g, c) for case, g, c in CASIMIRS if case == name + "-trace")
    broken = c + sym2(g, [((0, 0), Fraction(1))])
    with pytest.raises(InputError) as expect:
        ref_casimir_to_phi(g, broken)
    algebra, casimir = tmp_path / "g.json", tmp_path / "c.json"
    algebra.write_text(json.dumps(lie_to_dict(g)))
    casimir.write_text(json.dumps({"signature": "sym2", "entries": cochain_to_entries(broken)}))
    report, code = run(["casimir-phi", str(algebra), "--casimir", str(casimir)])
    assert code == 2
    assert report["checks"] == [{"name": "input", "status": "error", "detail": {"message": str(expect.value)}}]
    assert "not invariant" in str(expect.value)
