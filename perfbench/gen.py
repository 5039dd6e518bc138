"""Seeded input generator for the qlie benchmark (standard library only).

Every structure is built from first principles in a "natural" basis and
then written out through a `Relabel`: a seeded permutation of the basis
order together with fresh random labels.  Relabeling is an isomorphism,
so it keeps every known answer while making each job's input distinct.

This module must never import qlie: the inputs may not depend on the code
under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

Table = Dict[Tuple[int, int], Dict[int, Fraction]]


class Alg:
    """A Lie algebra by structure constants, [x_i, x_j] = sum_k c^k_ij x_k for i < j."""

    def __init__(self, name: str, labels: Sequence[str], table: Table, **meta):
        self.name = name
        self.labels = list(labels)
        self.table = {k: dict(v) for k, v in table.items() if v}
        self.meta = meta

    @property
    def dim(self) -> int:
        return len(self.labels)

    def bracket(self, i: int, j: int) -> Dict[int, Fraction]:
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def index(self, label: str) -> int:
        return self.labels.index(label)


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def _commutator(n, a, b):
    """[E_a, E_b] of matrix units as a dict {(i, j): coef}."""
    out: Dict[Tuple[int, int], Fraction] = {}
    for (i, j), ca in a.items():
        for (k, l), cb in b.items():
            if j == k:
                out[(i, l)] = out.get((i, l), Fraction(0)) + ca * cb
            if l == i:
                out[(k, j)] = out.get((k, j), Fraction(0)) - ca * cb
    return {key: c for key, c in out.items() if c}


def sl(n: int) -> Alg:
    """Chevalley basis of sl_n built from matrix units.

    h_i = E_ii - E_{i+1,i+1} (i < n-1), e_ij = E_ij and f_ij = E_ji (i < j).
    """
    labels: List[str] = []
    mats: List[Dict[Tuple[int, int], Fraction]] = []
    cartan, roots = [], []
    for i in range(n - 1):
        cartan.append(len(labels))
        labels.append(f"h{i + 1}")
        mats.append({(i, i): Fraction(1), (i + 1, i + 1): Fraction(-1)})
    e_of, f_of = {}, {}
    for i, j in combinations(range(n), 2):
        e_of[(i, j)] = len(labels)
        labels.append(f"e{i + 1}_{j + 1}")
        mats.append({(i, j): Fraction(1)})
    for i, j in combinations(range(n), 2):
        f_of[(i, j)] = len(labels)
        labels.append(f"f{i + 1}_{j + 1}")
        mats.append({(j, i): Fraction(1)})
    for (i, j) in combinations(range(n), 2):
        roots.append((i, j, e_of[(i, j)], f_of[(i, j)]))

    def expand(m):
        comps: Dict[int, Fraction] = {}
        diag = [m.get((i, i), Fraction(0)) for i in range(n)]
        acc = Fraction(0)
        for i in range(n - 1):  # diag = sum_i c_i (E_ii - E_{i+1,i+1}), c_i = cumulative sum
            acc += diag[i]
            if acc:
                comps[cartan[i]] = acc
        for (i, j), c in m.items():
            if i < j:
                comps[e_of[(i, j)]] = c
            elif i > j:
                comps[f_of[(j, i)]] = c
        return comps

    table: Table = {}
    for a, b in combinations(range(len(labels)), 2):
        comps = expand(_commutator(n, mats[a], mats[b]))
        if comps:
            table[(a, b)] = comps
    return Alg(f"sl{n}", labels, table, n=n, cartan=cartan, roots=roots)


def direct_sum(a: Alg, b: Alg) -> Alg:
    off = a.dim
    table: Table = dict(a.table)
    for (i, j), comps in b.table.items():
        table[(i + off, j + off)] = {k + off: c for k, c in comps.items()}
    labels = [f"{x}.1" for x in a.labels] + [f"{x}.2" for x in b.labels]
    return Alg(f"{a.name}+{b.name}", labels, table)


def heisenberg(dim: int) -> Alg:
    """[p_i, q_i] = z."""
    k = (dim - 1) // 2
    labels = [f"p{i + 1}" for i in range(k)] + [f"q{i + 1}" for i in range(k)] + ["z"]
    table = {(i, k + i): {2 * k: Fraction(1)} for i in range(k)}
    return Alg(f"heisenberg{dim}", labels, table)


def abelian(n: int) -> Alg:
    return Alg(f"abelian{n}", [f"x{i + 1}" for i in range(n)], {})


def jacobi_breaking(g: Alg) -> Alg:
    """A copy of g whose bracket fails the Jacobi identity.

    sl2: [h, e] = 3e instead of 2e, so J(e, f, h) = [e, 2f] + [f, 3e] = -h.
    heisenberg: add [p1, z] = p1, so J(p1, q1, z) = [q1, -p1] = z.
    abelian: set [x1, x2] = x3 and [x1, x3] = x1, so J(x1, x2, x3) = x3.
    """
    table = {k: dict(v) for k, v in g.table.items()}
    if g.name == "sl2":
        e, h = g.index("e1_2"), g.index("h1")
        table[(min(e, h), max(e, h))] = {e: Fraction(3 if h < e else -3)}
    elif g.name.startswith("heisenberg"):
        p, z = g.index("p1"), g.index("z")
        table[(p, z)] = {p: Fraction(1)}
    else:
        table[(0, 1)] = {2: Fraction(1)}
        table[(0, 2)] = {0: Fraction(1)}
    return Alg(g.name + "-mutated", g.labels, table)


# ---------------------------------------------------------------------------
# relabeling and serialization
# ---------------------------------------------------------------------------

class Relabel:
    """Seeded basis permutation plus fresh labels; all output goes through it."""

    def __init__(self, g: Alg, rng: random.Random):
        self.g = g
        self.order = list(range(g.dim))
        rng.shuffle(self.order)  # new position p holds natural index order[p]
        self.pos = {nat: p for p, nat in enumerate(self.order)}
        names = rng.sample(range(100, 1000), g.dim)
        self.label = {nat: f"b{names[self.pos[nat]]}" for nat in range(g.dim)}
        self.rng = rng

    def lab(self, nat: int) -> str:
        return self.label[nat]

    def labels(self, nats: Sequence[int]) -> List[str]:
        return [self.label[i] for i in nats]

    def canonical(self, idx: Sequence[int], antisymmetric: bool):
        """Sort natural indices by new position; return (sign, sorted) or None."""
        idx = list(idx)
        if antisymmetric and len(set(idx)) < len(idx):
            return None
        sign = 1
        for a in range(len(idx)):  # insertion sort counting transpositions
            b = a
            while b > 0 and self.pos[idx[b - 1]] > self.pos[idx[b]]:
                idx[b - 1], idx[b] = idx[b], idx[b - 1]
                sign = -sign
                b -= 1
        return (sign if antisymmetric else 1), tuple(idx)

    def lie_doc(self, g: Alg = None) -> dict:
        g = g or self.g
        brackets = []
        for p in range(g.dim):
            for q in range(p + 1, g.dim):
                comps = g.bracket(self.order[p], self.order[q])
                if comps:
                    items = [[self.lab(k), str(c)] for k, c in comps.items()]
                    self.rng.shuffle(items)
                    brackets.append([self.lab(self.order[p]), self.lab(self.order[q]), items])
        self.rng.shuffle(brackets)
        return {
            "name": g.name,
            "field": {"type": "rational"},
            "basis": [self.lab(i) for i in self.order],
            "brackets": brackets,
        }

    def tensor_doc(self, signature: str, entries: Dict[tuple, object], **extra) -> dict:
        """Entries keyed by natural index tuples; values Fraction or expression strings."""
        out: Dict[tuple, object] = {}
        for idx, coef in entries.items():
            if signature in ("wedge2", "wedge3"):
                res = self.canonical(idx, True)
            elif signature == "sym2":
                res = self.canonical(idx, False)
            elif signature == "cobracket":
                res = self.canonical(idx[1:], True)
                res = None if res is None else (res[0], (idx[0],) + res[1])
            else:  # gg: plain tensor, no symmetry
                res = (1, tuple(idx))
            if res is None:
                continue
            sign, key = res
            if isinstance(coef, Fraction):
                out[key] = out.get(key, Fraction(0)) + sign * coef
            else:  # expression strings come only with the plain gg signature
                out[key] = coef
        recs = [{"idx": self.labels(key), "coef": str(c)} for key, c in out.items() if c != 0]
        self.rng.shuffle(recs)
        doc = {"signature": signature, "entries": recs}
        doc.update(extra)
        return doc


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# tensors on the natural basis
# ---------------------------------------------------------------------------

def cartan_matrix_inverse(n: int) -> List[List[Fraction]]:
    """(A^{-1})_ij = min(i, j) (n - max(i, j)) / n for the sl_n Cartan matrix (1-based)."""
    return [
        [Fraction(min(i, j) * (n - max(i, j)), n) for j in range(1, n)] for i in range(1, n)
    ]


def trace_casimir(g: Alg) -> Dict[tuple, Fraction]:
    """Inverse of the trace form tr(xy) on sl_n, as Sym^2 entries (one per unordered pair).

    tr(e_a f_b) = delta_ab and tr(h_i h_j) = A_ij (Cartan matrix), so the
    inverse pairs each e_a with f_a by 1 and the Cartan part by A^{-1}.
    """
    n = g.meta["n"]
    out: Dict[tuple, Fraction] = {}
    for _, _, e, f in g.meta["roots"]:
        out[(e, f)] = Fraction(1)
    inv = cartan_matrix_inverse(n)
    h = g.meta["cartan"]
    for a in range(n - 1):
        for b in range(a, n - 1):
            out[(h[a], h[b])] = inv[a][b]
    return out


def standard_r(g: Alg) -> Dict[tuple, Fraction]:
    """Drinfeld-Jimbo r = sum_{a>0} e_a (x) f_a + 1/2 sum A^{-1}_ij h_i (x) h_j.

    r + r_21 is the trace Casimir and r solves the CYBE.
    """
    n = g.meta["n"]
    out: Dict[tuple, Fraction] = {}
    for _, _, e, f in g.meta["roots"]:
        out[(e, f)] = Fraction(1)
    inv = cartan_matrix_inverse(n)
    h = g.meta["cartan"]
    for a in range(n - 1):
        for b in range(n - 1):
            out[(h[a], h[b])] = inv[a][b] / 2
    return out


def standard_cobracket(g: Alg, c: Fraction) -> Dict[tuple, Fraction]:
    """delta(x_k) = c [x_k, r0] for r0 = sum_{a>0} e_a ^ f_a, as (k, i, j) entries.

    A coboundary whose r0 solves the modified CYBE, so (g, delta, 0) is a Lie bialgebra.
    """
    r0 = [(e, f) for _, _, e, f in g.meta["roots"]]
    out: Dict[tuple, Fraction] = {}

    def add(k, i, j, v):
        if i != j:
            key, v = ((k, i, j), v) if i < j else ((k, j, i), -v)
            out[key] = out.get(key, Fraction(0)) + v

    for k in range(g.dim):
        for e, f in r0:
            for m, s in g.bracket(k, e).items():
                add(k, m, f, c * s)
            for m, s in g.bracket(k, f).items():
                add(k, e, m, c * s)
    return {key: v for key, v in out.items() if v}


def ev_rmatrix(g: Alg, scale: int = 1):
    """Rational Etingof-Varchenko r(x) = sum_{a>0} 2/a(x) (e_a (x) f_a - f_a (x) e_a).

    Coordinates x_k are dual to the simple coroots h_k, so for the root
    a = eps_i - eps_j the coroot is h_i + ... + h_{j-1} and a(x) = x_i + ... + x_{j-1}.
    Returns (entries, variable names, locus strings); variable k belongs to h_k.
    """
    n = g.meta["n"]
    names = [f"x{k + 1}" for k in range(n - 1)]
    entries: Dict[tuple, str] = {}
    locus = []
    for i, j, e, f in g.meta["roots"]:
        alpha = "+".join(names[i:j])
        locus.append(alpha)
        entries[(e, f)] = f"{2 * scale}/({alpha})"
        entries[(f, e)] = f"-{2 * scale}/({alpha})"
    return entries, names, locus


def random_wedge(rng: random.Random, nats: Sequence[int], p: int):
    """A p-vector on half of the basis p-subsets (at least one), small rational coefficients.

    The support size is fixed so that every seed asks for the same amount of work.
    """
    keys = list(combinations(nats, p))
    chosen = rng.sample(keys, max(1, len(keys) // 2))
    return {key: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for key in chosen}


def random_nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 4))
