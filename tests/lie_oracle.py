"""The Jacobi check by a scan over triples, the oracle of `polyvectors.check_lie`.

The library reads Jacobi off the Chevalley-Eilenberg differential: the
bracket is a Lie bracket exactly when d d e^l = 0 for every l.  The scan
here composes the brackets directly instead: for each triple i < j < k
in increasing order it sums the Jacobiator

    J(e_i, e_j, e_k) = [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]

and stops at the first triple where it is nonzero.  A triple whose three
brackets all vanish has a zero Jacobiator and is skipped.  Antisymmetry
is structural: `LieAlgebra` stores [e_i, e_j] for i < j only.
"""

from itertools import combinations
from typing import Dict, Optional, Tuple

from qlie.scalars import combine


def check_lie_by_triples(g) -> Tuple[bool, Optional[Tuple[str, ...]], Dict[str, str]]:
    """(passed, witness, residual) as `check_lie` reports them: the first
    failing triple by basis labels and its Jacobiator {label: str(value)}
    in label order, or (True, None, {})."""
    table = g._table  # the nonzero brackets [e_i, e_j], i < j
    for i, j, k in combinations(range(g.dim), 3):
        if (i, j) not in table and (j, k) not in table and (i, k) not in table:
            continue
        acc = combine(
            (l, coef * coef2)
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j))
            for m, coef in g.bracket(a, b).items()
            for l, coef2 in g.bracket(m, c).items()
        )
        if acc:
            witness = (g.basis[i], g.basis[j], g.basis[k])
            return False, witness, {g.basis[l]: str(v) for l, v in sorted(acc.items())}
    return True, None, {}
