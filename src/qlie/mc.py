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
of the standard sl3 bialgebra after a random twist).  The sum runs over
integer numerators: with L the lcm of the denominators of x's
coefficients when all are Fractions, else L = 1 (RationalFunction
coefficients take the same loop), 1/2 [x, x] = [Lx, Lx] / 2L^2, and each
output key is divided by 2L^2 once, after the sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict

from .errors import InputError
from .tensors import CECochain
from .polyvectors import Element, PolyVectorAlgebra, contraction_partners
from .scalars import combine

# The most pairs of monomials 1/2 [x, x] may form, counted before the
# index drops those that share no contraction.  A counted pair costs about
# 2 us (25,200 pairs of a dense cobracket on 8 labels took 0.05-0.07 s,
# 101,475 on 10 labels 0.14 s, on 2 vCPUs), so one residual stays near
# 0.1 s.  Any (delta, phi) over 8 labels forms at most 37,744 pairs and
# passes, as does the standard bialgebra of sl7 with the Casimir associator
# (39,585; sl6's forms 14,355, the benchmark inputs at most 10,962); a
# dense cobracket on 10 labels and the standard bialgebra of sl9 (83,436)
# are refused.
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
    # bracket to zero and their pairs are not counted
    co = sum(1 for m in x if m[0])
    pairs = co * (co + 1) // 2 + co * (len(x) - co)
    if pairs > MAX_PAIRS:
        raise InputError(
            f"the Maurer-Cartan residual would form {pairs} pairs of monomials, "
            f"over the limit of {MAX_PAIRS}"
        )

    # 1/2 [x, x] = [Lx, Lx] / 2L^2 over integer numerators (module docstring)
    monos, coefs = list(x), list(x.values())
    if all(isinstance(c, Fraction) for c in coefs):
        L = lcm(*(c.denominator for c in coefs))
        nums = [c.numerator * (L // c.denominator) for c in coefs]
    else:
        L, nums = 1, coefs
    partners = contraction_partners(monos)
    square: Element = {}
    for i, m1 in enumerate(monos):
        for j in partners(m1):
            if j >= i:
                scale = nums[i] * nums[j] * (2 if j > i else 1)
                for m, c in P.bracket_monos(m1, monos[j]).items():
                    square[m] = square.get(m, 0) + scale * c
    unit = Fraction(1, 2 * L * L)
    by_weight: Dict[int, Element] = {}
    for mono, coef in combine(((m, s * unit) for m, s in square.items()), P.d(x)).items():
        by_weight.setdefault(len(mono[1]), {})[mono] = coef
    return {w: P.to_cochain(el, n + 3 - n * w, w) for w, el in sorted(by_weight.items())}
