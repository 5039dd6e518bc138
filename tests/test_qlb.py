from fractions import Fraction

import pytest

from conftest import coboundary, multivector_to_cochain, permute_slots, rand_multivector, zero_cobracket
from qlie.errors import InputError, PreconditionError
from qlie.lie import (
    CECochain,
    WEDGE,
    abelian,
    casimir_from_pairing,
    sl2,
    sl3,
    split_subalgebra,
    sym2_signature,
)
from qlie.polyvectors import ce_differential, invariants
from qlie.qlb import (
    QuasiLieBialgebra,
    Twist,
    casimir_to_phi,
    check_qlb,
    coisotropic_casimir_check,
    induce_from_coisotropic,
    twist,
    verify_coisotropic_morphism,
)
from test_manin_reference import casimir_commutator
from qlie.tensors import CASIMIR_VS_INDUCED, Multivector, SparseTensor, embed_wedge


def F(a, b=1):
    return Fraction(a, b)


EFH = (0, 1, 2)


def test_trivial_structures_pass():
    for g in (sl2(), abelian(4)):
        q = QuasiLieBialgebra(g, zero_cobracket(g), Multivector.zero(g.dim, 3))
        assert check_qlb(q).passed


def test_invariant_top_form_passes():
    g = sl2()
    q = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {EFH: F(1)}))
    res = check_qlb(q)
    assert res.passed
    assert res.max_support() == {"cocycle": 0, "cojacobi": 0, "compat": 0}


def test_non_cocycle_fails_with_residual():
    g = sl2()
    delta = CECochain(g, 1, WEDGE(2), {((0,), (0, 1)): F(1)})
    q = QuasiLieBialgebra(g, delta, Multivector.zero(3, 3))
    res = check_qlb(q)
    assert not res.passed
    assert res.cocycle == ce_differential(delta)
    assert not res.cocycle.is_zero()


def test_twist_of_zero_structure(rng):
    g = sl2()
    q0 = QuasiLieBialgebra(g, zero_cobracket(g), Multivector.zero(3, 3))
    lam = rand_multivector(g, 2, rng)
    qt = twist(q0, Twist(lam))
    assert qt.delta == coboundary(g, lam)
    assert check_qlb(qt).passed


def test_twist_identity():
    g = sl2()
    q = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {EFH: F(2)}))
    qt = twist(q, Twist(Multivector.zero(3, 2)))
    assert qt == q


def test_twist_closure_and_inversion(rng):
    g = sl2()
    shipped = [
        QuasiLieBialgebra(g, zero_cobracket(g), Multivector.zero(3, 3)),
        QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {EFH: F(1)})),
        QuasiLieBialgebra(g, coboundary(g, Multivector(3, 2, {(0, 1): F(1, 4)})), Multivector.zero(3, 3)),
    ]
    for q in shipped:
        assert check_qlb(q).passed
        for _ in range(15):
            lam = rand_multivector(g, 2, rng)
            qt = twist(q, Twist(lam))
            assert check_qlb(qt).passed
            assert twist(qt, Twist(-lam)) == q


def test_twist_cocycle_consistency(rng):
    # delta of a twist differs from the original by the coboundary of lambda
    g = sl2()
    q = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {EFH: F(1)}))
    for _ in range(10):
        lam = rand_multivector(g, 2, rng)
        qt = twist(q, Twist(lam))
        assert qt.delta - q.delta == coboundary(g, lam)


def test_twist_rejects_invalid_input():
    g = sl2()
    delta = CECochain(g, 1, WEDGE(2), {((0,), (0, 1)): F(1)})
    q = QuasiLieBialgebra(g, delta, Multivector.zero(3, 3))
    with pytest.raises(PreconditionError):
        twist(q, Twist(Multivector.zero(3, 2)))


def test_casimir_commutator_is_signed_orbit():
    # oracle: the 9-term expansion of [c12, c23] for c = e x f + f x e + h x h / 2
    g = sl2()
    c = casimir_from_pairing(g)
    tensor = casimir_commutator(g, c)
    orbit = {
        (0, 1, 2): F(1),
        (0, 2, 1): F(-1),
        (1, 0, 2): F(-1),
        (1, 2, 0): F(1),
        (2, 0, 1): F(1),
        (2, 1, 0): F(-1),
    }
    assert dict(tensor.data) == orbit


def test_casimir_to_phi_values_and_validity():
    g = sl2()
    c = casimir_from_pairing(g)
    phi = casimir_to_phi(g, c)
    assert phi == Multivector(3, 3, {EFH: F(-1, 6)})
    assert embed_wedge(phi) == casimir_commutator(g, c).scale(F(-1, 6))
    q = QuasiLieBialgebra(g, zero_cobracket(g), phi)
    assert check_qlb(q).passed
    # zero and abelian cases
    zero_c = SparseTensor.build(sym2_signature(3), [])
    assert casimir_to_phi(g, zero_c).is_zero()
    ga = abelian(3)
    any_c = SparseTensor.build(sym2_signature(3), [((0, 0), F(2)), ((1, 2), F(1))])
    assert casimir_to_phi(ga, any_c).is_zero()


def test_casimir_to_phi_rejects_non_invariant():
    g = sl2()
    c_bad = SparseTensor.build(sym2_signature(3), [((0, 0), F(1))])
    with pytest.raises(InputError) as err:
        casimir_to_phi(g, c_bad)
    assert "invariant" in str(err.value)


def test_casimir_to_phi_antisymmetric_outputs(rng):
    # slot-swap antisymmetry of [c12, c23] for invariant c on sl2 and sl3
    for g in (sl2(), sl3()):
        c = casimir_from_pairing(g)
        t = casimir_commutator(g, c)
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            assert permute_slots(t, perm) == (-t).data


def test_kostant_desk_scale():
    from qlie.lie import SYM, WEDGE

    for g in (sl2(), sl3()):
        assert len(invariants(g, SYM(2))) == 1
        assert len(invariants(g, WEDGE(3))) == 1
        phi = casimir_to_phi(g, casimir_from_pairing(g))
        assert not phi.is_zero()
        # the image lies in the invariant line
        assert ce_differential(multivector_to_cochain(g, phi)).is_zero()


def test_coisotropic_casimir_check_cases():
    g = sl2()
    c = casimir_from_pairing(g)
    borel = split_subalgebra(g, (0, 2))
    assert coisotropic_casimir_check(borel, c)
    cartan = split_subalgebra(g, (2,))
    assert not coisotropic_casimir_check(cartan, c)
    zero_c = SparseTensor.build(sym2_signature(3), [])
    assert coisotropic_casimir_check(cartan, zero_c)


def test_induce_borel_sl2():
    g = sl2()
    c = casimir_from_pairing(g)
    split = split_subalgebra(g, (0, 2))
    q = induce_from_coisotropic(split, c)
    # frozen: delta(e) = 1/2 e ^ h on the Borel, phi = 0 in two dimensions
    assert dict(q.delta.data) == {((0,), (0, 1)): F(1, 2)}
    assert q.phi.is_zero()
    assert check_qlb(q).passed


def test_induce_trivial_quotient_matches_casimir_up_to_ledger_factor():
    for g in (sl2(), sl3()):
        c = casimir_from_pairing(g)
        split = split_subalgebra(g, tuple(range(g.dim)))
        q = induce_from_coisotropic(split, c)
        assert q.delta.is_zero()
        phi_c = casimir_to_phi(g, c)
        assert phi_c == q.phi.scale(CASIMIR_VS_INDUCED)
        assert check_qlb(q).passed


def test_induce_zero_casimir():
    g = sl2()
    split = split_subalgebra(g, (0, 2))
    zero_c = SparseTensor.build(sym2_signature(3), [])
    q = induce_from_coisotropic(split, zero_c)
    assert q.delta.is_zero() and q.phi.is_zero()


def test_induce_sl3_borel():
    g = sl3()
    c = casimir_from_pairing(g)
    split = split_subalgebra(g, (0, 1, 2, 3, 4))
    assert coisotropic_casimir_check(split, c)
    q = induce_from_coisotropic(split, c)
    assert check_qlb(q).passed
    assert not q.delta.is_zero()


def test_verify_morphism_borel_sl2():
    g = sl2()
    c = casimir_from_pairing(g)
    split = split_subalgebra(g, (0, 2))
    rep = verify_coisotropic_morphism(split, c)
    assert all(rep.invariance_identities.values())
    assert rep.identities_equal_invariance
    assert all(rep.intertwines.values())
    assert rep.passed


def test_verify_morphism_named_failure_for_non_invariant():
    g = sl2()
    split = split_subalgebra(g, (0, 2))
    c_bad = SparseTensor.build(sym2_signature(3), [((0, 0), F(1))])
    rep = verify_coisotropic_morphism(split, c_bad)
    failed = [name for name, ok in rep.invariance_identities.items() if not ok]
    assert failed  # at least one named identity fails
    assert rep.identities_equal_invariance  # both routes agree that c is bad


def test_verify_morphism_abelian_trivial():
    g = abelian(4)
    split = split_subalgebra(g, (0, 1))
    c = SparseTensor.build(sym2_signature(4), [((0, 1), F(1)), ((0, 2), F(2))])
    rep = verify_coisotropic_morphism(split, c)
    assert rep.passed


def test_verify_morphism_sl3_borel():
    g = sl3()
    c = casimir_from_pairing(g)
    split = split_subalgebra(g, (0, 1, 2, 3, 4))
    rep = verify_coisotropic_morphism(split, c)
    assert rep.passed


def test_big_bracket_generator_pairing():
    from qlie.polyvectors import PolyVectorAlgebra

    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    for i in range(3):
        for j in range(3):
            cov = {((i,), ()): F(1)}
            vec = {((), (j,)): F(1)}
            assert P.bracket(cov, vec) == ({((), ()): F(1)} if i == j else {})
            assert P.bracket(cov, {((j,), ()): F(1)}) == {}
            assert P.bracket(vec, {((), (i,)): F(1)}) == {}
    # [delta, phi] = 0 when delta = 0
    phi = P.from_multivector(Multivector(3, 3, {EFH: F(1)}))
    assert P.bracket({}, phi) == {}


def test_twist_of_zero_by_ef_frozen_values():
    # twisting (0, 0) by e ^ f yields (d(e^f), -(1/2)[lambda, d lambda])
    # whose associator equals + e ^ f ^ h under the ledger conventions
    g = sl2()
    lam = Multivector(3, 2, {(0, 1): F(1)})
    q = twist(QuasiLieBialgebra(g, zero_cobracket(g), Multivector.zero(3, 3)), Twist(lam))
    assert q.delta == coboundary(g, lam)
    assert q.phi == Multivector(3, 3, {EFH: F(1)})
    assert check_qlb(q).passed
