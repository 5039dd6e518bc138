import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from qlie.lie import CECochain, WEDGE
from qlie.linalg import rref
from qlie.polyvectors import ce_differential
from qlie.scalars import combine
from qlie.tensors import Multivector

FIXTURES = Path(__file__).parent / "fixtures"


def rand_fraction(rng: random.Random, span: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_multivector(g, p: int, rng: random.Random) -> Multivector:
    data = {}
    for key in combinations(range(g.dim), p):
        c = rand_fraction(rng)
        if c:
            data[key] = c
    return Multivector(g.dim, p, data)


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


def multivector_to_cochain(g, mv: Multivector) -> CECochain:
    """mv as a degree-0 cochain valued in WEDGE(p)."""
    return CECochain(g, 0, WEDGE(mv.p), {((), key): c for key, c in mv.data.items()})


def coboundary(g, lam: Multivector) -> CECochain:
    return ce_differential(multivector_to_cochain(g, lam))


def sparse_multivector(g, p: int, rng: random.Random, n: int) -> Multivector:
    """A p-multivector with n seeded nonzero entries (all of them if there are fewer)."""
    keys = list(combinations(range(g.dim), p))
    keys = rng.sample(keys, min(n, len(keys)))
    coefs = [Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2)) for _ in keys]
    return Multivector.build(g.dim, p, list(zip(keys, coefs)))


def sparse_structures(g, rng: random.Random, n: int, phi_inv: Multivector):
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
            yield twist(base, Twist(sparse_multivector(g, 2, rng, 3)), validate=False)
        else:
            lam = sparse_multivector(g, 2, rng, 2)
            entries = [(((k,), key), c) for key, c in lam.data.items() for k in rng.sample(range(d), 2)]
            delta = CECochain.build(g, 1, WEDGE(2), entries)
            yield QuasiLieBialgebra(g, delta, sparse_multivector(g, 3, rng, 2))


def reassembled_bracket(split, i: int, j: int):
    """[e_i, e_j] of the ambient algebra rebuilt from the blocks of the split."""
    h, m = split.h_indices, split.m_indices
    if i in h and j in h:
        a, b, blocks = h.index(i), h.index(j), (("f", h, 1),)
    elif i in h:
        a, b, blocks = h.index(i), m.index(j), (("A", h, 1), ("B", m, 1))
    elif j in h:
        a, b, blocks = h.index(j), m.index(i), (("A", h, -1), ("B", m, -1))
    else:
        a, b, blocks = m.index(i), m.index(j), (("C", h, 1), ("D", m, 1))
    return combine(
        (indices[k], sign * c)
        for name, indices, sign in blocks
        for k, c in split.block(name, a, b).items()
    )


def permute_slots(t, perm):
    """The entries of the plain tensor t with its slots permuted: slot i of
    each key is slot perm[i] of the original key."""
    return {tuple(key[p] for p in perm): c for key, c in t.data.items()}


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
    return g, Multivector(g.dim, 3, {(8, 9, 10): Fraction(2)})


def ev_rmatrix_sl3(scale: int = 1):
    """The rational Etingof-Varchenko r-matrix scale * sum_a 2/a(x) (e_a (x) f_a - f_a (x) e_a)
    on the sl3 fixture, over the coordinates x1, x2 dual to h1, h2: the root
    hyperplanes are x1, x2 and x1 + x2, which also form the locus."""
    from qlie.formats import lie_from_dict
    from qlie.lie import split_subalgebra
    from qlie.rmatrix import DynamicalRMatrix
    from qlie.scalars import parse_scalar
    from qlie.tensors import SparseTensor, plain_signature

    g = lie_from_dict(json.loads((FIXTURES / "sl3.json").read_text()))
    variables = ("x1", "x2")
    roots = (("e1", "f1", "x1"), ("e2", "f2", "x2"), ("e12", "f12", "x1+x2"))
    entries = []
    for e, f, alpha in roots:
        coef = parse_scalar(f"{2 * scale}/({alpha})", variables)
        entries += [((g.index(e), g.index(f)), coef), ((g.index(f), g.index(e)), -coef)]
    split = split_subalgebra(g, (g.index("h1"), g.index("h2")), tuple(range(2, g.dim)))
    locus = [parse_scalar(alpha, variables).num for _, _, alpha in roots]
    tensor = SparseTensor.build(plain_signature(g.dim, 2), entries)
    return DynamicalRMatrix(split, variables, tensor, locus)
