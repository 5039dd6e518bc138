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
the unordered pairs of monomials of x, each taken once, and only over the
pairs that share a contraction, as the generator index
`polyvectors.contraction_partners` names them (3,644 of the 9,250 pairs
of the standard sl3 bialgebra after a random twist).  The residual is one
sum over integer numerators: with L the common denominator of x's
coefficients (`polyvectors.numerators`; L = 1 and the coefficients
themselves when one is a RationalFunction) and L_g that of the stored
generator images, d x is 2L d'(Lx) / 2L^2 L_g and 1/2 [x, x] is
L_g [Lx, Lx] / 2L^2 L_g, so both go into one accumulator and each output
key is divided by 2L^2 L_g once, after the sum.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from .errors import InputError
from .tensors import CECochain
from .polyvectors import Element, PolyVectorAlgebra, add_term, contraction_partners, numerators, over

# The most pairs of monomials 1/2 [x, x] may form, bounded before the index
# is built by sum_i up_i down_i, with up_i and down_i the monomials of x
# with an e^i and with an e_i: every pair that shares a contraction is
# counted at least once.  A formed pair costs about 7 us (a dense cobracket
# with one phi entry counts 12,628 and forms 11,088 in 0.07-0.09 s on 8
# labels, 40,635 and 36,630 in 0.25 s on 10, on 2 vCPUs), so one residual
# stays near 0.15 s.  Any (delta, phi) over 8 labels counts at most 17,248
# and passes, as does the standard bialgebra of sl9 (3,264, 0.08 s); a
# dense cobracket on 10 labels and the standard sl4 bialgebra twisted by a
# lambda with every entry nonzero (193,211) are refused.
MAX_PAIRS = 20_000


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
    # a contraction pairs an e^i of one monomial with an e_i of the other
    up = Counter(i for ups, _ in x for i in ups)
    down = Counter(i for _, downs in x for i in downs)
    pairs = sum(c * down[i] for i, c in up.items())
    if pairs > MAX_PAIRS:
        raise InputError(
            f"the Maurer-Cartan residual would form up to {pairs} pairs of monomials, "
            f"over the limit of {MAX_PAIRS}"
        )

    # d x + 1/2 [x, x] over 2 L^2 L_g, summed over integer numerators (module docstring)
    L, nums = numerators(x)
    Lg = P._d_den
    acc = P.d_numerators([(m, 2 * L * c) for m, c in nums])
    partners = contraction_partners([m for m, _ in nums])
    for i, (m1, c1) in enumerate(nums):
        for j in partners(m1):
            if j >= i:
                m2, c2 = nums[j]
                scale = c1 * c2 * (2 * Lg if j > i else Lg)
                for m, c in P.bracket_monos(m1, m2).items():
                    add_term(acc, m, scale * c)
    by_weight: Dict[int, Element] = {}
    for mono, coef in over(acc, 2 * L * L * Lg).items():
        by_weight.setdefault(len(mono[1]), {})[mono] = coef
    return {w: P.to_cochain(el, n + 3 - n * w, w) for w, el in sorted(by_weight.items())}
