"""Coisotropic induction and the morphism verifier on every basis-aligned case.

A subalgebra h spanned by basis vectors is coisotropic for a Casimir c when
c vanishes on Sym^2(g/h).  Three families are enumerated in full:

* sl3 with the trace Casimir;
* the standard double of sl2 (`dual_subalgebra_bplus_bminus`) with the
  inverse of its pairing as Casimir;
* sl2 (+) sl2 in the diagonal/antidiagonal basis with the Casimir of the
  pairing (kappa, -kappa), where the antidiagonal brackets back into the
  diagonal, so the C block of the split (and the Q C Q term of the induced
  associator) is nonzero.

On each case the induced structure must satisfy the quasi-Lie bialgebra
axioms and the verifier must pass.  `hand_built_twist` is the twisted
differential the verifier built by hand before it used d + [mu, -], with
its associator term written 1/2 sum_{j,k} phi^{ijk} e_j e_k; it is kept
here as an oracle only.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from polyvector_oracle import canonicalize
from qlie.errors import InputError
from qlie.lie import (
    LieAlgebra,
    casimir_from_pairing,
    casimir_of,
    sl2,
    sl3,
    split_subalgebra,
    trace_pairing,
)
from qlie.manin import dual_subalgebra_bplus_bminus
from qlie.polyvectors import PolyVectorAlgebra
from qlie.qlb import (
    check_qlb,
    coisotropic_casimir_check,
    induce_from_coisotropic,
    verify_coisotropic_morphism,
)
from qlie.scalars import combine, vec_add
from qlie.tensors import _sort_with_sign


def sl2_plus_sl2_diagonal():
    """sl2 (+) sl2 on d_x = (x, x) then a_x = (x, -x), with the Casimir of (kappa, -kappa).

    [d_x, d_y] = d_[x,y], [d_x, a_y] = a_[x,y], [a_x, a_y] = d_[x,y], and
    the pairing is <d_x, a_y> = 2 kappa(x, y), zero on d (x) d and a (x) a.
    """
    s = sl2()
    n = s.dim
    brackets = {}
    for i in range(n):
        for j in range(n):
            comps = s.bracket(i, j)
            for a, b, shift in ((i, j, 0), (n + i, n + j, 0), (i, n + j, n)):
                if comps and a < b:
                    brackets[(a, b)] = {k + shift: c for k, c in comps.items()}
    g = LieAlgebra("sl2+sl2", [x + "+" for x in s.basis] + [x + "-" for x in s.basis], brackets)
    kappa = trace_pairing(s)
    pairing = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            pairing[i][n + j] = pairing[n + j][i] = 2 * kappa[i][j]
    return g, casimir_of(g, pairing)


def families():
    g = sl3()
    yield "sl3", g, casimir_from_pairing(g)
    quad = dual_subalgebra_bplus_bminus(sl2()).quad
    yield "double-sl2", quad.lie, casimir_of(quad.lie, quad.pairing)
    yield ("sl2+sl2",) + sl2_plus_sl2_diagonal()


def coisotropic_cases():
    """(id, split, c) for every coisotropic subalgebra spanned by basis vectors."""
    for name, g, c in families():
        for size in range(1, g.dim + 1):
            for h in combinations(range(g.dim), size):
                try:
                    split = split_subalgebra(g, h)
                except InputError:  # not a subalgebra
                    continue
                if coisotropic_casimir_check(split, c):
                    yield f"{name}:{','.join(g.basis[i] for i in h)}", split, c


CASES = list(coisotropic_cases())


def test_case_count():
    counts = {}
    for case_id, _, _ in CASES:
        family = case_id.split(":")[0]
        counts[family] = counts.get(family, 0) + 1
    assert counts == {"sl3": 13, "double-sl2": 13, "sl2+sl2": 9}


@pytest.mark.parametrize("split, c", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_induced_structure_passes_axioms_and_verifier(split, c):
    q = induce_from_coisotropic(split, c)
    res = check_qlb(q)
    assert res.passed, res.max_support()
    rep = verify_coisotropic_morphism(split, c)
    assert rep.passed, rep


def hand_built_twist(q, Ph):
    """Generator images of the twisted differential, built term by term:
        d e^i += 1/2 phi^{ijk} e_j e_k - delta^{ij}_k e^k e_j
        d e_i += 1/2 delta_i^{jk} e_j e_k
    summed over all j, k, with delta^{ij}_k the coefficient of e_i ^ e_j in
    delta(e_k)."""
    nh = q.g.dim

    def delta_comp(i, j, k):
        v = q.delta.data.get(((k,), tuple(sorted((i, j)))), Fraction(0))
        return v if i < j else -v if i > j else Fraction(0)

    def phi_comp(i, j, k):
        res = _sort_with_sign((i, j, k))
        return res[0] * q.phi.data.get(((), res[1]), Fraction(0)) if res else Fraction(0)

    def monomial(gens, coef):
        res = canonicalize(Ph, gens)
        return [] if res is None else [(res[1], res[0] * coef)]

    def cov_extra(i):
        for j in range(nh):
            for k in range(nh):
                yield from monomial([(1, j), (1, k)], Fraction(1, 2) * phi_comp(i, j, k))
                yield from monomial([(0, k), (1, j)], -delta_comp(i, j, k))

    def vec_extra(i):
        for j in range(nh):
            for k in range(nh):
                yield from monomial([(1, j), (1, k)], Fraction(1, 2) * delta_comp(j, k, i))

    cov = [vec_add(Ph._d_cov[i], combine(cov_extra(i))) for i in range(nh)]
    vec = [vec_add(Ph._d_vec[i], combine(vec_extra(i))) for i in range(nh)]
    return cov, vec


@pytest.mark.parametrize("split, c", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_twisted_differential_matches_hand_built_images(split, c):
    q = induce_from_coisotropic(split, c)
    Ph = PolyVectorAlgebra(q.g, 1)
    mu = vec_add(Ph.from_cochain(q.delta), Ph.from_cochain(q.phi))
    cov, vec = hand_built_twist(q, Ph)
    for i in range(q.g.dim):
        for image, gen in ((cov[i], ((i,), ())), (vec[i], ((), (i,)))):
            x = {gen: Fraction(1)}
            assert vec_add(Ph.d(x), Ph.bracket(mu, x)) == image
