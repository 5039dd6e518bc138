"""The Maurer-Cartan residual in Pol(BG, n).

Pol(BG, n) in weights >= 2 is the polyvector algebra
``P = PolyVectorAlgebra(g, n)`` with its differential and big bracket,
degrees shifted so that Maurer-Cartan elements sit in degree 1: a
monomial of CE degree k and polyvector weight w has shifted degree
k + n w - (n + 1).  A quasi-Lie bialgebra (delta, phi) is a Maurer-Cartan
element of Pol(BG, 1) at weights 2 and 3; an invariant symmetric 2-tensor
is one of Pol(BG, 2) at weight 2.

The residual d x + 1/2 [x, x] is two calls of one kernel
(`PolyVectorAlgebra.contract`) into one accumulator.  Every monomial of
x has k + n w = n + 2, so d x = (-1)^(n+1) [x, mu_g] is the events of x
against mu_g's index (`polyvectors`).  The bracket is graded symmetric on
degree-1 elements, so the e_i events of (m1, m2) sum to the e^i events
of (m2, m1), and 1/2 [x, x] is the e^i events over the ordered pairs of
monomials, self-pairs included: x against its own e_i index.  An e^i of
a monomial meets each e_i of x once, so these are exactly sum_i up_i
down_i events, up_i the monomials with an e^i and down_i the e_i that x
holds.  With L the common denominator of x's coefficients
(`polyvectors.numerators`; L = 1 when one is a RationalFunction) and L_g
that of mu_g's, both parts are integer numerators over 2L^2 L_g: d x the
events of 2L Lx against mu_g, 1/2 [x, x] those of 2 L_g Lx against Lx;
each output key is divided once, after the sum.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from .errors import InputError
from .tensors import CECochain
from .polyvectors import Element, PolyVectorAlgebra, contraction_index, numerators
from .scalars import over

# The most contraction events 1/2 [x, x] may form, counted before x is
# indexed: exactly sum_i up_i down_i (module docstring).  d x's events
# against mu_g grow with the support of x alone and are not counted.  An
# event costs about 1.4 us (a dense cobracket with one phi entry forms
# 12,628 in 0.017 s on 8 labels and 40,635 in 0.055 s on 10; best of 5, in
# process, 2 vCPUs), so the bracket part of one residual stays near
# 0.03 s.  Any (delta, phi) over 8 labels counts at most 17,248 and
# passes, as does the standard bialgebra of sl9 (3,264 events in 0.004 s,
# next to 23,320 of d x in 0.028 s, of a 0.033 s residual); a dense
# cobracket on 10 labels and the standard sl4 bialgebra twisted by a
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
    # each e^i of a monomial meets each e_i of x once: one event each
    up = Counter(i for ups, _ in x for i in ups)
    down = Counter(i for _, downs in x for i in downs)
    events = sum(c * down[i] for i, c in up.items())
    if events > MAX_PAIRS:
        raise InputError(
            f"the Maurer-Cartan residual would form {events} contraction events, "
            f"over the limit of {MAX_PAIRS}"
        )

    # d x + 1/2 [x, x] over 2 L^2 L_g, summed over integer numerators (module docstring)
    L, nums = numerators(x)
    Lg, acc = P._d_den, {}
    P.contract(acc, [(m, 2 * L * c if n % 2 else -2 * L * c) for m, c in nums], *P._mu_index)
    P.contract(acc, [(m, 2 * Lg * c) for m, c in nums], contraction_index(nums, 1, n), {})
    by_weight: Dict[int, Element] = {}
    for mono, coef in over(acc, 2 * L * L * Lg).items():
        by_weight.setdefault(len(mono[1]), {})[mono] = coef
    return {w: P.to_cochain(el, n + 3 - n * w, w) for w, el in sorted(by_weight.items())}
