"""Support-driven Manin, split and coisotropic code against the paths they replaced.

`ref_check_quadratic`, `ref_induce`, `ref_invariance_identities`, `ref_sl2`
and `ref_sl3` are the earlier library code: the invariance of a pairing
scanned over every (i, j, k), the induced associator read off one
component at a time with every ordering of every index triple compared,
the five split identities of d c = 0 scanned over their free indices, and
sl3 built from Fraction matrix products solved back into the basis.
`ref_split_blocks`, `ref_triple_to_bialgebra` and `ref_casimir_to_phi` are
the split blocks read off three dense loops over pairs of basis vectors,
the bialgebra of a triple from the inverse Gram matrix and the bracket of
g*, and the associator -(1/6) [c_12, c_23] of a Casimir element; the
library now reads the blocks off one walk over the nonzero brackets and
takes the other two from coisotropic induction.  They are kept here as
independent oracles only.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import reassembled_bracket, solve
from test_coisotropic import CASES, families
from qlie import linalg
from qlie.errors import InputError
from qlie.lie import (
    CECochain,
    LieAlgebra,
    WEDGE,
    abelian,
    casimir_from_pairing,
    casimir_of,
    direct_sum,
    heisenberg,
    sl,
    sl2,
    sl3,
    split_subalgebra,
    sym2_signature,
    trace_pairing,
)
from qlie.manin import (
    ManinTriple,
    QuadraticLieAlgebra,
    check_quadratic,
    drinfeld_double,
    dual_subalgebra_bplus_bminus,
    manin_triple_check,
    triple_to_bialgebra,
    triple_to_bialgebra_unchecked,
)
from qlie.qlb import (
    QuasiLieBialgebra,
    _invariance_identities,
    casimir_invariance_residual,
    casimir_to_phi,
    induce_from_coisotropic,
    split_casimir,
)
from qlie.scalars import is_zero
from qlie.tensors import Multivector, SparseTensor, _sort_with_sign, embed_wedge, plain_signature


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
    nh, nm = split.dim_h, len(split.m_indices)
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
        return h.bracket(i, j).get(k, Fraction(0))

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
    nh, nm = split.dim_h, len(split.m_indices)
    h = split.h_algebra()

    def Pc(i, j):
        return P.get((i, j), Fraction(0))

    def Qc(i, a):
        return Q.get((i, a), Fraction(0))

    def block(name):
        return lambda k, i, a: split.block(name, i, a).get(k, Fraction(0))

    A, B, C, D = block("A"), block("B"), block("C"), block("D")

    def f(k, i, j):
        return h.bracket(i, j).get(k, Fraction(0))

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


def ref_split_blocks(g, h_indices, m_indices):
    """{name: block} for f, A, B, C and D by three dense loops over pairs of
    basis vectors; InputError at the first pair of h that leaves h."""
    hpos = {v: i for i, v in enumerate(h_indices)}
    mpos = {v: i for i, v in enumerate(m_indices)}
    blocks = {name: {} for name in "fABCD"}
    for a, i in enumerate(h_indices):
        for b, j in enumerate(h_indices):
            comps = g.bracket(i, j)
            fk = {hpos[k]: c for k, c in comps.items() if k in hpos}
            if any(k in mpos for k in comps):
                raise InputError(
                    f"h is not a subalgebra: [{g.basis[i]}, {g.basis[j]}] has a "
                    f"complement component"
                )
            if fk:
                blocks["f"][(a, b)] = fk
    for left, right, names in ((h_indices, m_indices, "AB"), (m_indices, m_indices, "CD")):
        for a, i in enumerate(left):
            for b, j in enumerate(right):
                comps = g.bracket(i, j)
                for name, pos in zip(names, (hpos, mpos)):
                    row = {pos[k]: c for k, c in comps.items() if k in pos}
                    if row:
                        blocks[name][(a, b)] = row
    return blocks


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
    gram = [
        [t.quad.pairing[t.gstar_indices[k]][t.g_indices[j]] for j in range(n)] for k in range(n)
    ]
    m = linalg.invert(gram)  # xi^i = sum_k m[i][k] y_k pairs dually with the x_j
    gram = [{j: c for j, c in enumerate(row) if c} for row in gram]
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
    return QuasiLieBialgebra(g_sub, delta, Multivector.zero(n, 3))


def casimir_commutator(g, c):
    """[c_12, c_23] = sum a_i (x) [b_i, a_j] (x) b_j over c = sum a (x) b."""
    if c.sig != sym2_signature(g.dim):
        raise InputError("Casimir element must be a symmetric 2-tensor over g")
    entries = []
    pairs = list(c.expanded_items())
    for (a1, b1), c1 in pairs:
        for (a2, b2), c2 in pairs:
            for m, coef in g.bracket(b1, a2).items():
                entries.append(((a1, m, b2), c1 * c2 * coef))
    return SparseTensor.build(plain_signature(g.dim, 3), entries)


def ref_casimir_to_phi(g, c):
    """phi = -(1/6) [c_12, c_23] for an invariant Casimir element."""
    residual = casimir_invariance_residual(g, c)
    if not residual.is_zero():
        raise InputError(
            f"Casimir element is not invariant; residual has {residual.support_size()} "
            f"nonzero components, first: {sorted(residual.data)[0]}"
        )
    tensor = casimir_commutator(g, c)
    entries = {}
    for key, coef in tensor.items():
        if list(key) == sorted(set(key)):
            entries[key] = Fraction(-1, 6) * coef
    phi = Multivector(g.dim, 3, entries)
    # total antisymmetry of [c12, c23] holds exactly when c is invariant
    if embed_wedge(phi) != tensor.scale(Fraction(-1, 6)):
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


# ---------------------------------------------------------------------------
# split blocks: one walk over the nonzero brackets against three dense loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("split, c", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_split_blocks_match_dense_loops(split, c):
    g = split.g
    expect = ref_split_blocks(g, split.h_indices, split.m_indices)
    for name, block in expect.items():
        # the same entries, keyed in the same order
        assert list(getattr(split, name).items()) == list(block.items()), name
    for i in range(g.dim):
        for j in range(g.dim):
            assert reassembled_bracket(split, i, j) == g.bracket(i, j)


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
    pairing = [
        [scale[p] * scale[q] * t.quad.pairing[order[p]][order[q]] for q in range(d.dim)]
        for p in range(d.dim)
    ]
    quad = QuadraticLieAlgebra(lie, pairing)
    return ManinTriple(quad, tuple(new[i] for i in t.g_indices), tuple(new[i] for i in t.gstar_indices))


def zero_double(g):
    return drinfeld_double(QuasiLieBialgebra(g, CECochain(g, 1, WEDGE(2), {}), Multivector.zero(g.dim, 3)))


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
    yield "hyperbolic-abelian6", ManinTriple(QuadraticLieAlgebra(abelian(6), pairing), (0, 1, 2), (3, 4, 5))
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
    got, expect = triple_to_bialgebra_unchecked(t), ref_triple_to_bialgebra(t)
    assert got.g.basis == expect.g.basis and got.g.same_structure(expect.g)
    assert got.delta.data == expect.delta.data
    assert got.phi.data == {} and got == expect == triple_to_bialgebra(t)


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
    for name, g, c in (
        ("sl2", sl2(), casimir_from_pairing(sl2())),
        ("sl3", sl3(), casimir_from_pairing(sl3())),
        ("sl3+sl2", direct_sum(sl3(), sl2()), casimir_of(sum_pairing)),
    ):
        yield name + "-trace", g, c
        yield name + "-scaled", g, c.scale(Fraction(-5, 3))
        yield name + "-zero", g, SparseTensor.build(sym2_signature(g.dim), [])


CASIMIRS = list(casimir_cases())


@pytest.mark.parametrize("g, c", [case[1:] for case in CASIMIRS], ids=[case[0] for case in CASIMIRS])
def test_casimir_to_phi_matches_commutator(g, c):
    phi = casimir_to_phi(g, c)
    assert phi.data == ref_casimir_to_phi(g, c).data
    assert phi.is_zero() == c.is_zero()


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl3+sl2"])
def test_casimir_to_phi_rejects_non_invariant_with_the_same_message(name):
    g, c = next((g, c) for case, g, c in CASIMIRS if case == name + "-trace")
    broken = SparseTensor.build(c.sig, list(c.items()) + [((0, 0), Fraction(1))])
    with pytest.raises(InputError) as expect:
        ref_casimir_to_phi(g, broken)
    with pytest.raises(InputError) as got:
        casimir_to_phi(g, broken)
    assert str(got.value) == str(expect.value)
    assert "not invariant" in str(got.value)
