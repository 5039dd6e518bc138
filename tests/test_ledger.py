"""Every entry of the convention ledger, computed on sl2 and sl3.

The ledger (`qlie.tensors.LEDGER`) is stamped into every CLI report.  For
each of its entries, the test named test_ledger_<entry> computes the
convention that entry states with the library's own maps and compares it
with a hand-built value or an oracle of the tests, so a change of any
convention fails the test named after it.  `test_every_entry_has_a_test`
keeps it that way for entries added later.
"""

import json
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from conftest import FIXTURES, ev_rmatrix, multivector, rand_multivector, sym2_entries, tensor, zero_cobracket
from qlie.lie import casimir_from_pairing, sl, sl2, sl3, split_subalgebra
from qlie.manin import dual_subalgebra_bplus_bminus, triple_to_bialgebra
from qlie.polyvectors import PolyVectorAlgebra, ce_differential
from qlie.qlb import Twist, casimir_invariance_residual, casimir_to_phi, check_qlb, induce_from_coisotropic, twist
from qlie.rmatrix import DynamicalRMatrix, _h_derivative, cybe, dynamical_check, lambda_form_residual
from qlie.tensors import (
    ADJOINT,
    CASIMIR_VS_INDUCED,
    KAPPA_CYBE,
    LAMBDA_FORM_PHI_COEFF,
    LEDGER,
    SYM,
    WEDGE,
    CECochain,
    ConventionLedger,
    _sort_with_sign,
    embed_wedge,
)
from rmatrix_oracle import alt_ddr, alt_tensor, d_dr, schouten
from test_manin_reference import casimir_commutator

ALGEBRAS = pytest.mark.parametrize("g", [sl2(), sl3()], ids=["sl2", "sl3"])


def unit(i):
    return {((), (i,)): Fraction(1)}


def casimir_tensor(c: CECochain) -> CECochain:
    """The plain 2-tensor of c in Sym^2 g: each key in its distinct orders."""
    return tensor(c.g, 2, sym2_entries(c))


def test_every_entry_has_a_test():
    names = {name for name in dir(sys.modules[__name__]) if name.startswith("test_ledger_")}
    assert names == {f"test_ledger_{name}" for name in ConventionLedger._fields}


def test_to_dict_is_the_stamped_ledger():
    # the ledger every pinned report carries, in the entries' order, as a
    # new dict on each call
    stamped = json.loads((FIXTURES / "reports" / "std-triple-sl3.json").read_text())["report"]["ledger"]
    d = LEDGER.to_dict()
    assert d == stamped and list(d) == list(ConventionLedger._fields)
    d["kappa_cybe"] = "5"
    assert LEDGER.to_dict() == stamped and LEDGER.to_dict() is not LEDGER.to_dict()


@ALGEBRAS
def test_ledger_wedge_embedding(g):
    # a p-multivector on its increasing key k embeds as sign(s) x at every
    # permutation s(k), with no 1/p! factor
    for p in (2, 3):
        x = multivector(g, p, [(key, Fraction(n + 1, 2)) for n, key in enumerate(combinations(range(g.dim), p))])
        expect = {
            ((), tuple(key[i] for i in perm)): _sort_with_sign(perm)[0] * coef
            for ((), key), coef in x.items()
            for perm in permutations(range(p))
        }
        assert embed_wedge(x).data == expect


@ALGEBRAS
def test_ledger_sym_embedding(g):
    # the key (i, j) of an element of Sym^2 g stands for the sum of its
    # distinct orders, e_i e_j + e_j e_i (e_i e_i once): the inverse of the
    # trace form, one key per unordered pair, is invariant, and it is not
    # with its diagonal keys read twice
    c = casimir_from_pairing(g)
    diagonal = {key: v for key, v in c.items() if key[1][0] == key[1][1]}
    assert diagonal and casimir_invariance_residual(g, c).is_zero()
    doubled = c + CECochain(g, 0, SYM(2), diagonal)
    assert not casimir_invariance_residual(g, doubled).is_zero()
    # and the symmetric part of the plain tensor of c is c itself
    rep = dynamical_check(DynamicalRMatrix(split_subalgebra(g, ()), (), casimir_tensor(c)))
    assert rep.c == c and rep.lam.is_zero()


@ALGEBRAS
def test_ledger_alt_normalization(g):
    # summing a tensor onto increasing keys with signs and embedding the
    # result is the full signed S_3 sum, with no 1/3! factor
    rng = random.Random(3 * g.dim)
    t = tensor(g, 3, [(tuple(rng.randrange(g.dim) for _ in range(3)), Fraction(rng.randint(1, 5))) for _ in range(12)])
    alt = alt_tensor(t)
    assert not alt.is_zero()
    assert embed_wedge(CECochain.build(g, 0, WEDGE(3), t.items())) == alt
    # which is what the derivative term D of the CDYBE relies on
    dr = ev_rmatrix(sl(len(g.extra["cartan"]) + 1))
    D = _h_derivative(dr)
    assert not D.is_zero() and embed_wedge(D) == alt_ddr(dr.split, d_dr(dr.tensor, dr.variables))


@ALGEBRAS
def test_ledger_ce_sign(g):
    # d x (xi) = [x, xi] for x in C^0(g, g): d of each ADJOINT unit e_i has
    # [e_i, e_j]_k at (down j, up k)
    for i in range(g.dim):
        dx = ce_differential(CECochain(g, 0, ADJOINT, unit(i)))
        expect = {((j,), (k,)): c for j in range(g.dim) for k, c in g.bracket(i, j).items()}
        assert expect and dx.data == expect


@ALGEBRAS
def test_ledger_big_bracket_pairing(g):
    # [e^i, e_j] = +delta^i_j at shift 1 and at shift 2
    for shift in (1, 2):
        P = PolyVectorAlgebra(g, shift)
        for i in range(g.dim):
            for j in range(g.dim):
                pairing = P.bracket({((i,), ()): Fraction(1)}, {((), (j,)): Fraction(1)})
                assert pairing == ({((), ()): 1} if i == j else {})


@ALGEBRAS
def test_ledger_schouten_convention(g):
    # -[a, d b] is the Lie bracket on vectors
    P = PolyVectorAlgebra(g, 1)
    for i in range(g.dim):
        for j in range(g.dim):
            derived = P.bracket(unit(i), P.d(unit(j)))
            assert {key: -v for key, v in derived.items()} == {((), (k,)): c for k, c in g.bracket(i, j).items()}
    # and the bracket term of the lambda-form, 1/2 [[lambda, lambda]] with
    # [[a, b]] = -[a, d b], is half the biderivation Schouten bracket
    lam = rand_multivector(g, 2, random.Random(g.dim))
    zero_c, zero_d = CECochain(g, 0, SYM(2)), CECochain(g, 0, WEDGE(3))
    expect = schouten(g, lam, lam).scale(Fraction(1, 2))
    assert not expect.is_zero() and lambda_form_residual(g, lam, zero_c, zero_d) == expect


@ALGEBRAS
def test_ledger_twist_square(g):
    # phi' = phi + [delta, lambda] - 1/2 [lambda, d lambda]: with the -1/2 a
    # twist of the standard bialgebra is again a quasi-Lie bialgebra
    b = triple_to_bialgebra(dual_subalgebra_bplus_bminus(g))
    lam = rand_multivector(g, 2, random.Random(g.dim))
    q = twist(b, Twist(lam))
    P = PolyVectorAlgebra(g, 1)
    lam_el = P.from_cochain(lam)
    square = P.to_cochain(P.bracket(lam_el, P.d(lam_el)), 0, 3)
    linear = P.to_cochain(P.bracket(P.from_cochain(b.delta), lam_el), 0, 3)
    assert not square.is_zero() and q.phi == b.phi + linear - square.scale(Fraction(1, 2))
    assert check_qlb(b).passed and check_qlb(q).passed


@ALGEBRAS
def test_ledger_kappa_cybe(g):
    # cybe(embed(2 lambda)) = kappa_cybe * embed(1/2 [[lambda, lambda]]) for
    # any 2-vector lambda, the lambda-form with c = 0 and D = 0
    lam = rand_multivector(g, 2, random.Random(5 * g.dim))
    zero_c, zero_d = CECochain(g, 0, SYM(2)), CECochain(g, 0, WEDGE(3))
    lhs = cybe(g, embed_wedge(lam.scale(2)))
    assert not lhs.is_zero() and lhs == embed_wedge(lambda_form_residual(g, lam, zero_c, zero_d)).scale(KAPPA_CYBE)


@ALGEBRAS
def test_ledger_lambda_form_phi_coeff(g):
    # for r = c an invariant Casimir, cybe(c) = kappa_cybe * embed(
    # lambda_form_phi_coeff * casimir_to_phi(c))
    c = casimir_from_pairing(g).scale(Fraction(-5, 3))
    lhs = cybe(g, casimir_tensor(c))
    assert not lhs.is_zero()
    assert lhs == embed_wedge(casimir_to_phi(g, c)).scale(KAPPA_CYBE * LAMBDA_FORM_PHI_COEFF)
    zero_lam, zero_d = CECochain(g, 0, WEDGE(2)), CECochain(g, 0, WEDGE(3))
    assert lhs == embed_wedge(lambda_form_residual(g, zero_lam, c, zero_d)).scale(KAPPA_CYBE)


@ALGEBRAS
def test_ledger_casimir_vs_induced(g):
    # casimir_to_phi(c) = -(1/6) [c_12, c_23] = casimir_vs_induced times the
    # structure c induces on h = g
    c = casimir_from_pairing(g)
    phi = casimir_to_phi(g, c)
    assert not phi.is_zero() and embed_wedge(phi) == casimir_commutator(g, c).scale(Fraction(-1, 6))
    induced = induce_from_coisotropic(split_subalgebra(g, range(g.dim)), c)
    assert induced.delta == zero_cobracket(induced.g)
    assert phi.data == induced.phi.scale(CASIMIR_VS_INDUCED).data
