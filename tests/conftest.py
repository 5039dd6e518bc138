import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from qlie.errors import InputError
from qlie.linalg import rref
from qlie.scalars import Polynomial, combine
from qlie.tensors import CECochain, SYM, TENSOR, WEDGE

FIXTURES = Path(__file__).parent / "fixtures"


def evaluate(x, point) -> Fraction:
    """The value of a Polynomial or a RationalFunction at point, a dict
    from variable names to Fractions; ZeroDivisionError at a pole."""
    if isinstance(x, Polynomial):
        total = Fraction(0)
        for exps, c in x.terms.items():
            v = c
            for name, e in zip(x.vars, exps):
                if e:
                    v *= Fraction(point[name]) ** e
            total += v
        return total
    d = Fraction(1)
    for f, e in x.factors.items():
        v = evaluate(f, point)
        if v == 0:
            raise ZeroDivisionError("evaluation at a pole")
        d *= v**e
    return evaluate(x.num, point) / d


def rand_fraction(rng: random.Random, span: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_multivector(g, p: int, rng: random.Random) -> CECochain:
    return multivector(g, p, [(key, rand_fraction(rng)) for key in combinations(range(g.dim), p)])


def rand_cobracket(g, rng: random.Random) -> CECochain:
    entries = {}
    for k in range(g.dim):
        for key in combinations(range(g.dim), 2):
            c = rand_fraction(rng, span=2, den=2)
            if c:
                entries[((k,), key)] = c
    return CECochain(g, 1, WEDGE(2), entries)


def zero_cobracket(g) -> CECochain:
    return CECochain(g, 1, WEDGE(2), {})


def sym2(g, entries) -> CECochain:
    """The element of Sym^2 g with the given ((i, j), coefficient) entries,
    in either index order (both orders of a pair add up), as the degree-0
    cochain valued in SYM(2) that every Casimir is."""
    return CECochain.build(g, 0, SYM(2), [(((), tuple(key)), c) for key, c in entries])


def multivector(g, p: int, entries=()) -> CECochain:
    """The p-multivector with the given (index tuple, coefficient) entries,
    in any index order (a permuted key carries its sign, a repeated index
    vanishes), as the degree-0 cochain valued in WEDGE(p)."""
    return CECochain.build(g, 0, WEDGE(p), [(((), tuple(key)), c) for key, c in entries])


def tensor(g, p: int, entries=()) -> CECochain:
    """The plain p-tensor with the given (index tuple, coefficient) entries,
    equal keys summed, as the degree-0 cochain valued in TENSOR(p)."""
    return CECochain.build(g, 0, TENSOR(p), [(((), tuple(key)), c) for key, c in entries])


def sym2_entries(c):
    """The entries of c in Sym^2 g as a plain 2-tensor: each key in both orders."""
    return [((i, j), v) for ((), (a, b)), v in c.items() for i, j in {(a, b), (b, a)}]


def sparse_rows(matrix):
    """The nonzero entries {column: value} of each row of a dense matrix:
    the library's form of a pairing."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def dense_matrix(rows):
    """The dense square matrix of sparse rows, Fraction(0) off their support."""
    return [[row.get(j, Fraction(0)) for j in range(len(rows))] for row in rows]


def solve(rows, rhs, n_cols: int):
    """One exact solution of rows * x = rhs (rows as {column: value}) with
    the free columns 0, or None if inconsistent: read off the reduced
    echelon form of the augmented rows."""
    pivots = rref({**row, n_cols: b} for row, b in zip(rows, rhs))
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for p, row in pivots.items():
        x[p] = row.get(n_cols, Fraction(0))
    return x


def sparse_multivector(g, p: int, rng: random.Random, n: int) -> CECochain:
    """A p-multivector with n seeded nonzero entries (all of them if there are fewer)."""
    keys = list(combinations(range(g.dim), p))
    keys = rng.sample(keys, min(n, len(keys)))
    coefs = [Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2)) for _ in keys]
    return multivector(g, p, zip(keys, coefs))


def sparse_structures(g, rng: random.Random, n: int, phi_inv: CECochain):
    """n pairs (delta, phi) with few nonzero entries, alternately passing and failing.

    Even trials twist (0, phi_inv) by a sparse lambda, so they pass when
    phi_inv is invariant; odd trials take a sparse non-cocycle delta and a
    sparse phi, so they fail.
    """
    from qlie.qlb import QuasiLieBialgebra, Twist, twist

    d = g.dim
    for trial in range(n):
        if trial % 2 == 0:
            base = QuasiLieBialgebra(g, zero_cobracket(g), phi_inv)
            yield twist(base, Twist(sparse_multivector(g, 2, rng, 3)))
        else:
            lam = sparse_multivector(g, 2, rng, 2)
            entries = [(((k,), key), c) for ((), key), c in lam.items() for k in rng.sample(range(d), 2)]
            delta = CECochain.build(g, 1, WEDGE(2), entries)
            yield QuasiLieBialgebra(g, delta, sparse_multivector(g, 3, rng, 2))


def ref_split_blocks(g, h_indices, m_indices):
    """{name: block} for f, A, B, C and D by three dense loops over pairs of
    basis vectors, B and D being the m components that `SplitSubalgebra`
    does not keep; InputError at the first pair of h that leaves h."""
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


def reassembled_brackets(split):
    """{(i, j): [e_i, e_j]} over every pair of the ambient algebra, rebuilt
    from the h components f, A and C of the split and the m components B
    and D of `ref_split_blocks`."""
    h, m = split.h_indices, split.m_indices
    ref = ref_split_blocks(split.g, h, m)
    blocks = {"f": split.f, "A": split.A, "C": split.C, "B": ref["B"], "D": ref["D"]}
    out = {}
    for i in range(split.g.dim):
        for j in range(split.g.dim):
            if i in h and j in h:
                a, b, parts = h.index(i), h.index(j), (("f", h, 1),)
            elif i in h:
                a, b, parts = h.index(i), m.index(j), (("A", h, 1), ("B", m, 1))
            elif j in h:
                a, b, parts = h.index(j), m.index(i), (("A", h, -1), ("B", m, -1))
            else:
                a, b, parts = m.index(i), m.index(j), (("C", h, 1), ("D", m, 1))
            out[(i, j)] = combine(
                (indices[k], sign * c)
                for name, indices, sign in parts
                for k, c in blocks[name].get((a, b), {}).items()
            )
    return out


def permute_slots(t, perm):
    """The entries of the plain tensor t with its slots permuted: slot i of
    each key is slot perm[i] of the original key."""
    return {((), tuple(key[p] for p in perm)): c for ((), key), c in t.data.items()}


def window_slices(P):
    """The sl2-sized window of Pol(BG, n) over P = PolyVectorAlgebra(g, n):
    the slices (d, w) with d in 0..3 and w in 2..4, in that key order, each
    with its basis ``P.slice_basis(k, w)`` at CE degree k = d + (n+1) - n w;
    empty slices are left out."""
    out = {}
    for d in range(4):
        for w in range(2, 5):
            monos = P.slice_basis(d + (P.n + 1) - P.n * w, w)
            if monos:
                out[(d, w)] = monos
    return out


def window_monos(P):
    """The monomials of ``window_slices(P)``, slice after slice."""
    return [m for monos in window_slices(P).values() for m in monos]


@pytest.fixture
def rng():
    return random.Random(20240817)


def sl3_plus_sl2():
    """sl3 (+) sl2 (dim 11) with 2 e^f^h on its sl2 summand, an invariant 3-vector."""
    from qlie.lie import direct_sum, sl2, sl3

    g = direct_sum(sl3(), sl2())
    return g, multivector(g, 3, [((8, 9, 10), Fraction(2))])


def ev_rmatrix(g, scale: int = 1, roots=None, gauge=()):
    """The rational Etingof-Varchenko r-matrix scale * sum_a 2/a(x) (e_a (x) f_a - f_a (x) e_a)
    on g with the labels of `lie.sl(n)`, over the coordinates x1, ..., x(n-1)
    dual to h1, ..., h(n-1): the root of e_a is the sum of the simple roots
    named by its digits, so a(x) is the sum of those coordinates (e12 has
    x1 + x2).  The root hyperplanes also form the locus.

    roots, the labels of the e_a to sum over, defaults to every positive
    root.  Each (i, j, w) of gauge adds w (h_i (x) h_j - h_j (x) h_i), for
    the i-th and j-th Cartan elements and w a polynomial string over the
    coordinates."""
    from qlie.lie import split_subalgebra
    from qlie.rmatrix import DynamicalRMatrix
    from qlie.scalars import parse_scalar

    cartan = [i for i, label in enumerate(g.basis) if label[0] == "h"]
    variables = tuple(f"x{i + 1}" for i in range(len(cartan)))
    entries, locus = [], []
    for label in g.basis:
        if label[0] != "e" or (roots is not None and label not in roots):
            continue
        alpha = "+".join(f"x{d}" for d in label[1:])
        coef = parse_scalar(f"{2 * scale}/({alpha})", variables)
        e, f = g.index(label), g.index("f" + label[1:])
        entries += [((e, f), coef), ((f, e), -coef)]
        locus.append(parse_scalar(alpha, variables).num)
    for i, j, w in gauge:
        coef = parse_scalar(w, variables)
        entries += [((cartan[i], cartan[j]), coef), ((cartan[j], cartan[i]), -coef)]
    split = split_subalgebra(g, cartan, tuple(i for i in range(g.dim) if i not in cartan))
    return DynamicalRMatrix(split, variables, tensor(g, 2, entries), locus)


def ev_rmatrix_sl3(scale: int = 1):
    """`ev_rmatrix` on the sl3 fixture: the root hyperplanes are x1, x2 and x1 + x2."""
    from qlie.formats import lie_from_dict

    return ev_rmatrix(lie_from_dict(json.loads((FIXTURES / "sl3.json").read_text())), scale)
