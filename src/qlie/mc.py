"""The Maurer-Cartan residual in Pol(BG, n).

Pol(BG, n) in weights >= 2 is the polyvector algebra
``P = PolyVectorAlgebra(g, n)`` with its differential and big bracket,
degrees shifted so that Maurer-Cartan elements sit in degree 1: a
monomial of CE degree k and polyvector weight w has shifted degree
k + n w - (n + 1).  A quasi-Lie bialgebra (delta, phi) is a Maurer-Cartan
element of Pol(BG, 1) at weights 2 and 3; an invariant symmetric 2-tensor
is one of Pol(BG, 2) at weight 2.

The residual d x + 1/2 [x, x] is taken on the support of x.  The big
bracket is symmetric on degree-1 elements, so 1/2 [x, x] is summed over
the unordered pairs of monomials of x, each taken once, the diagonal ones
with the factor 1/2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Dict

from .errors import InputError
from .tensors import CECochain
from .polyvectors import Element, PolyVectorAlgebra
from .scalars import combine

# The most pairs of monomials 1/2 [x, x] may form.  A pair costs about
# 10 us (25,200 pairs of a dense cobracket on 8 labels took 0.27-0.30 s,
# 101,475 on 10 labels 0.92-1.05 s), so one residual stays near 0.5 s.
# Any (delta, phi) over 8 labels forms at most 37,744 pairs and passes, as
# does the standard bialgebra of sl7 with the Casimir associator (39,585;
# sl6's forms 14,355, the benchmark inputs at most 10,962); a dense
# cobracket on 10 labels is refused.
MAX_PAIRS = 50_000


def mc_residual(P: PolyVectorAlgebra, x: Element) -> Dict[int, CECochain]:
    """d x + 1/2 [x, x] for a degree-1 element x of weights >= 2, as CE
    cochains keyed by weight w (CE degree n + 3 - n w); zero weights are
    left out."""
    n = P.n
    for mono in x:
        if len(mono[1]) < 2:
            raise InputError("Maurer-Cartan elements live in weights >= 2")
        if P.mono_degree(mono) != n + 2:
            raise InputError(f"monomial {mono} is not of shifted degree 1")
    # a contraction pairs an e^i of one monomial with an e_i of the other, so
    # two monomials without an e^i (phi at shift 1, a Casimir at shift 2)
    # bracket to zero and their pairs are skipped
    co = [(m, c) for m, c in x.items() if m[0]]
    rest = [(m, c) for m, c in x.items() if not m[0]]
    pairs = len(co) * (len(co) + 1) // 2 + len(co) * len(rest)
    if pairs > MAX_PAIRS:
        raise InputError(
            f"the Maurer-Cartan residual would form {pairs} pairs of monomials, "
            f"over the limit of {MAX_PAIRS}"
        )

    def half_square():
        for i, (m1, c1) in enumerate(co):
            for j, (m2, c2) in enumerate(chain(co[i:], rest)):
                terms = P.bracket_monos(m1, m2)
                if terms:
                    scale = c1 * c2 if j else c1 * c1 * Fraction(1, 2)
                    for m, c in terms.items():
                        yield m, scale * c

    by_weight: Dict[int, Element] = {}
    for mono, coef in combine(half_square(), P.d(x)).items():
        by_weight.setdefault(len(mono[1]), {})[mono] = coef
    return {w: P.to_cochain(el, n + 3 - n * w, w) for w, el in sorted(by_weight.items())}
