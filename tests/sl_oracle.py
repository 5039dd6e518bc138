"""`lie.sl(n)` as it was built from matrix products, the oracle of the
index-read brackets and trace form.

The library reads [E_ij, E_kl] = delta_jk E_il - delta_li E_kj and
tr(E_ij E_kl) = delta_jk delta_li off the indices.  This is the earlier
construction, unchanged apart from its imports and name: it multiplies
the matrix units both ways for every pair, expands each commutator back
into the basis, and takes the trace of every ordered product.
"""

from fractions import Fraction
from itertools import combinations
from typing import Dict

from qlie.errors import InputError
from qlie.lie import BracketTable, LieAlgebra
from qlie.scalars import Scalar, combine, vec_add


def sl_by_matrix_products(n: int) -> LieAlgebra:
    """sl(n) on its Chevalley basis of matrix units.

    The basis is h_i = E_ii - E_(i+1)(i+1) for i < n, then the positive
    root vectors E_ij (i < j) by height and then by row, then the negative
    ones E_ji in the same order.  A root vector is labelled by the simple
    roots that sum to its root: E_12 is e1, E_13 is e12 and E_31 is f12
    (one digit per simple root, so 2 <= n <= 9).  Brackets are the
    commutators [E_ij, E_kl] = delta_jk E_il - delta_li E_kj expanded back
    into the basis, where a traceless diagonal d is sum_i (d_1 + ... + d_i)
    h_i; `extra` holds the trace form and the Cartan and Borel indices.
    """
    if not 2 <= n <= 9:
        raise InputError("sl(n) is built for 2 <= n <= 9")
    roots = sorted(combinations(range(n), 2), key=lambda ij: (ij[1] - ij[0], ij[0]))
    names = ["".join(str(s + 1) for s in range(i, j)) for i, j in roots]
    labels = [f"h{i + 1}" for i in range(n - 1)] + ["e" + x for x in names] + ["f" + x for x in names]
    units = [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
    units += [{(i, j): 1} for i, j in roots] + [{(j, i): 1} for i, j in roots]
    position = {rc: n - 1 + t for t, rc in enumerate([*roots, *((j, i) for i, j in roots)])}

    def product(x, y):
        return combine(((r, c), u * v) for (r, s), u in x.items() for (s2, c), v in y.items() if s == s2)

    def expand(m) -> Dict[int, Scalar]:
        comps = {position[rc]: Fraction(v) for rc, v in m.items() if rc[0] != rc[1]}
        running = 0
        for i in range(n - 1):
            running += m.get((i, i), 0)
            if running:
                comps[i] = Fraction(running)
        return dict(sorted(comps.items()))

    brackets: BracketTable = {}
    for a, b in combinations(range(len(units)), 2):
        comps = expand(vec_add(product(units[a], units[b]), product(units[b], units[a]), -1))
        if comps:
            brackets[(a, b)] = comps
    g = LieAlgebra(f"sl{n}", labels, brackets)
    trace = [
        [Fraction(sum(v for (r, c), v in product(x, y).items() if r == c)) for y in units]
        for x in units
    ]
    g.extra.update(
        {
            "type": "sl",
            "rank": n - 1,
            "pairing": trace,
            "cartan": list(range(n - 1)),
            "positive": list(range(n - 1, n - 1 + len(roots))),
            "negative": list(range(n - 1 + len(roots), len(units))),
        }
    )
    return g
