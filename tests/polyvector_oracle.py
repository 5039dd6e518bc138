"""The polyvector kernel before the block merge, kept as an oracle.

`PolyVectorAlgebra.d`, `mul` and the monomial bracket once spelled each
monomial out as a list of generators, (0, i) for e^i and (1, i) for e_i,
and brought every product back to canonical order with `canonicalize`, an
insertion sort that flips the sign at each swap of two odd generators.
The library now reads each result key and Koszul sign off two merged
index blocks; these are the old bodies, written as functions of the
algebra P, for the tests to compare against.
"""

from typing import List, Optional, Sequence, Tuple

from qlie.polyvectors import Element, Mono, PolyVectorAlgebra
from qlie.scalars import combine

Gen = Tuple[int, int]  # (kind, index): kind 0 for e^i (dual), 1 for e_i (vector)


def gen_parity(P: PolyVectorAlgebra, gen: Gen) -> int:
    return 1 if gen[0] == 0 else P.vec_parity


def mono_gens(mono: Mono) -> List[Gen]:
    return [(0, i) for i in mono[0]] + [(1, i) for i in mono[1]]


def canonicalize(P: PolyVectorAlgebra, gens: Sequence[Gen]) -> Optional[Tuple[int, Mono]]:
    """(sign, mono) with gens = sign * mono in canonical order, or None when an
    odd generator repeats."""
    items = list(gens)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j] < items[j - 1]:
            if gen_parity(P, items[j]) and gen_parity(P, items[j - 1]):
                sign = -sign
            items[j], items[j - 1] = items[j - 1], items[j]
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b and gen_parity(P, a):
            return None
    cov = tuple(i for kind, i in items if kind == 0)
    vec = tuple(i for kind, i in items if kind == 1)
    return sign, (cov, vec)


def mul(P: PolyVectorAlgebra, a: Element, b: Element) -> Element:
    def terms():
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                res = canonicalize(P, mono_gens(m1) + mono_gens(m2))
                if res is not None:
                    yield res[1], res[0] * c1 * c2

    return combine(terms())


def generator_images(P: PolyVectorAlgebra) -> Tuple[List[Element], List[Element]]:
    """d e^i and d e_i read off the nonzero brackets [e_j, e_k] = c e_i,
    j < k, with each structure constant as it is (the library stores them
    as numerators over a common denominator)."""
    d_cov: List[Element] = [{} for _ in range(P.g.dim)]
    d_vec: List[Element] = [{} for _ in range(P.g.dim)]
    for (j, k), comps in sorted(P.g.pairs()):
        for i, c in comps.items():
            d_cov[i][((j, k), ())] = c
            d_vec[j][((k,), (i,))] = c
            d_vec[k][((j,), (i,))] = -c
    return d_cov, d_vec


def d(P: PolyVectorAlgebra, a: Element) -> Element:
    """The generator images extended as an odd derivation."""
    d_cov, d_vec = generator_images(P)

    def terms():
        for mono, coef in a.items():
            gens = mono_gens(mono)
            prefix_parity = 0
            for pos, gen in enumerate(gens):
                image = d_cov[gen[1]] if gen[0] == 0 else d_vec[gen[1]]
                sign = -1 if prefix_parity else 1
                for imono, icoef in image.items():
                    res = canonicalize(P, gens[:pos] + mono_gens(imono) + gens[pos + 1 :])
                    if res is not None:
                        c = coef * icoef
                        yield res[1], c if res[0] == sign else -c
                prefix_parity ^= gen_parity(P, gen)

    return combine(terms())


def bracket_monos(P: PolyVectorAlgebra, m1: Mono, m2: Mono) -> Element:
    """[m1, m2] as one sum of single contractions, each canonicalized."""
    if set(m1[0]).isdisjoint(m2[1]) and set(m1[1]).isdisjoint(m2[0]):
        return {}
    n, s = P.n, P.n + 1
    gens1, gens2 = mono_gens(m1), mono_gens(m2)
    k2 = len(m2[0])
    deg2 = P.mono_degree(m2)

    def terms():
        after = P.mono_degree(m1)
        for p, (kind, i) in enumerate(gens1):
            if kind == 0:  # e^i contracts with each e_i of m2
                dx, pair = 1, 1
                qs = [k2 + t for t, j in enumerate(m2[1]) if j == i]
            else:  # e_i contracts with the e^i of m2
                dx, pair = n, 1 if n == 1 else -1
                qs = [q for q, j in enumerate(m2[0]) if j == i]
            after -= dx
            for q in qs:
                res = canonicalize(P, gens1[:p] + gens2[:q] + gens2[q + 1 :] + gens1[p + 1 :])
                if res is not None:
                    before = q if q < k2 else k2 + n * (q - k2)
                    sign = -1 if (after * (deg2 + s) + (dx + s) * before) % 2 else 1
                    yield res[1], pair * sign * res[0]

    return combine(terms())


def bracket(P: PolyVectorAlgebra, a: Element, b: Element) -> Element:
    """The bracket over every pair of monomials, contracting or not."""
    return combine(
        (m, c1 * c2 * c)
        for m1, c1 in a.items()
        for m2, c2 in b.items()
        for m, c in bracket_monos(P, m1, m2).items()
    )
