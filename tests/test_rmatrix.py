import json
from fractions import Fraction

import pytest

from conftest import permute_slots, rand_multivector
from qlie.errors import InputError
from qlie.lie import abelian, casimir_from_pairing, sl2, sl3, split_subalgebra
from qlie.polyvectors import schouten
from qlie.qlb import casimir_to_phi
from qlie.rmatrix import (
    DynamicalRMatrix,
    RMatrix,
    alt_ddr,
    cybe,
    d_dr,
    dynamical_check,
    quasitriangular_check,
    split_r,
)
from qlie.scalars import Polynomial, RationalFunction, parse_scalar
from qlie.tensors import (
    KAPPA_CYBE,
    LAMBDA_FORM_PHI_COEFF,
    Multivector,
    SparseTensor,
    embed_wedge,
    plain_signature,
)


def F(a, b=1):
    return Fraction(a, b)


def rmat(dim, entries):
    return RMatrix(SparseTensor.build(plain_signature(dim, 2), entries))


def std_r():
    return rmat(3, [((0, 1), F(1)), ((2, 2), F(1, 4))])


def brute_force_cybe(g, r):
    """Independent oracle: dense triple loop over all index combinations."""
    n = g.dim
    rt = {k: v for k, v in r.tensor.data.items()}

    def rr(i, j):
        return rt.get((i, j), F(0))

    out = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                total = F(0)
                for i in range(n):
                    for j in range(n):
                        # [r12, r13]: sum r_{i b} r_{j c} f^a_{ij}
                        total += rr(i, b) * rr(j, c) * g.bracket(i, j).get(a, 0)
                        # [r12, r23]: sum r_{a i} r_{j c} f^b_{ij}
                        total += rr(a, i) * rr(j, c) * g.bracket(i, j).get(b, 0)
                        # [r13, r23]: sum r_{a i} r_{b j} f^c_{ij}
                        total += rr(a, i) * rr(b, j) * g.bracket(i, j).get(c, 0)
                if total:
                    out[(a, b, c)] = total
    return out


def test_cybe_zero_cases(rng):
    g = sl2()
    assert cybe(g, rmat(3, [])).is_zero()
    ga = abelian(3)
    r = rmat(3, [((0, 1), F(2)), ((2, 0), F(-1))])
    assert cybe(ga, r).is_zero()


def test_cybe_standard_r_against_brute_force():
    g = sl2()
    r = std_r()
    assert cybe(g, r).is_zero()
    assert brute_force_cybe(g, r) == {}


def test_cybe_matches_brute_force_on_randoms(rng):
    g = sl2()
    for _ in range(10):
        entries = []
        for i in range(3):
            for j in range(3):
                c = F(rng.randint(-2, 2), rng.randint(1, 2))
                if c:
                    entries.append(((i, j), c))
        r = rmat(3, entries)
        assert dict(cybe(g, r).data) == brute_force_cybe(g, r)


def test_cybe_is_quadratic(rng):
    g = sl2()
    for _ in range(10):
        entries = [((i, j), F(rng.randint(-2, 2))) for i in range(3) for j in range(3)]
        r = rmat(3, [e for e in entries if e[1]])
        s = F(rng.randint(1, 5), rng.randint(1, 3))
        scaled = rmat(3, [(k, s * v) for k, v in r.tensor.data.items()])
        assert cybe(g, scaled) == cybe(g, r).scale(s * s)


def test_split_r_cases():
    g = sl2()
    rep = split_r(g, std_r())
    assert rep.lam == Multivector(3, 2, {(0, 1): F(1, 4)})
    assert dict(rep.c.data) == {(0, 1): F(1, 2), (2, 2): F(1, 4)}
    assert rep.symmetric_part_invariant
    # symmetric input: lambda = 0
    sym = rmat(3, [((0, 1), F(1)), ((1, 0), F(1))])
    assert split_r(g, sym).lam.is_zero()
    # antisymmetric input: c = 0
    anti = rmat(3, [((0, 1), F(1)), ((1, 0), F(-1))])
    assert split_r(g, anti).c.is_zero()


def test_quasitriangular_standard_r():
    g = sl2()
    rep = quasitriangular_check(g, std_r())
    assert rep.passed
    assert rep.lambda_form_holds
    assert rep.criteria_agree


def test_quasitriangular_zero_r():
    g = sl2()
    rep = quasitriangular_check(g, rmat(3, []))
    assert rep.passed


def test_quasitriangular_ef_fails():
    g = sl2()
    rep = quasitriangular_check(g, rmat(3, [((0, 1), F(1))]))
    assert not rep.cybe_holds
    assert not rep.passed


def test_kappa_identity_on_sl2_and_sl3(rng):
    # cybe(embed(2 lam) + c) == 4 embed(1/2 [[lam,lam]] + 3/2 phi) identically
    for g, trials in ((sl2(), 50), (sl3(), 4)):
        c = casimir_from_pairing(g)
        phi = casimir_to_phi(g, c)
        for _ in range(trials):
            lam = rand_multivector(g, 2, rng)
            entries = list(embed_wedge(lam.scale(F(2))).data.items())
            entries += list(dict(c.expanded_items()).items())
            r = rmat(g.dim, entries)
            lhs = cybe(g, r)
            lf = schouten(g, lam, lam).scale(F(1, 2)) + phi.scale(LAMBDA_FORM_PHI_COEFF)
            assert lhs == embed_wedge(lf).scale(KAPPA_CYBE)
            # boolean agreement of the two criteria follows from the identity
            rep = quasitriangular_check(g, r)
            assert rep.criteria_agree
            assert rep.cybe_holds == rep.lambda_form_holds


def test_cybe_antisymmetric_for_invariant_c(rng):
    for g in (sl2(), sl3()):
        c = casimir_from_pairing(g)
        lam = rand_multivector(g, 2, rng)
        entries = list(embed_wedge(lam.scale(F(2))).data.items())
        entries += list(dict(c.expanded_items()).items())
        t = cybe(g, rmat(g.dim, entries))
        for perm in ((1, 0, 2), (0, 2, 1)):
            assert permute_slots(t, perm) == (-t).data


def test_d_dr_basics():
    variables = ("x",)
    x2 = parse_scalar("x^2", variables)
    t = SparseTensor.build(plain_signature(3, 0), [((), x2)])
    dt = d_dr(t, variables)
    assert dict(dt.data) == {(0,): parse_scalar("2*x", variables)}
    inv = parse_scalar("1/x", variables)
    t2 = SparseTensor.build(plain_signature(3, 1), [((1,), inv)])
    dt2 = d_dr(t2, variables)
    assert dict(dt2.data) == {(0, 1): parse_scalar("-1/x^2", variables)}
    const = SparseTensor.build(plain_signature(3, 1), [((1,), F(5))])
    assert d_dr(const, variables).is_zero()


def test_alt_ddr_definition():
    g = sl2()
    split = split_subalgebra(g, (2,), (0, 1))
    # push h (index 0 of h) into g and antisymmetrize without normalization
    t = SparseTensor.build(plain_signature(3, 3), [((0, 0, 1), F(1))])
    out = alt_ddr(split, t)
    # h (x) e (x) f fully antisymmetrized = embed(h ^ e ^ f) = embed(e ^ f ^ h)
    expect = embed_wedge(Multivector(3, 3, {(0, 1, 2): F(1)}))
    assert out == expect
    assert alt_ddr(split, SparseTensor.build(plain_signature(3, 3), [])).is_zero()


def make_dynamical(gfun: str):
    g = sl2()
    split = split_subalgebra(g, (2,), (0, 1))
    variables = ("x",)
    coef = parse_scalar(gfun, variables)
    tensor = SparseTensor.build(
        plain_signature(3, 2), [((0, 1), coef * 2), ((1, 0), coef * (-2))]
    )
    return DynamicalRMatrix(split, variables, tensor, [Polynomial.var(variables, "x")])


def test_dynamical_rational_family():
    dr = make_dynamical("1/x")
    rep = dynamical_check(dr)
    assert rep.passed
    assert rep.equivariance == {"h": True}
    assert rep.lambda_form_holds
    assert rep.criteria_agree


def test_dynamical_family_scale_is_pinned():
    # kappa/x solves the reduced scalar equation g' + g^2 = 0 only for kappa = 1
    for kappa, expect in ((F(1), True), (F(2), False), (F(-1), False)):
        g = sl2()
        split = split_subalgebra(g, (2,), (0, 1))
        variables = ("x",)
        coef = parse_scalar("1/x", variables) * kappa
        tensor = SparseTensor.build(
            plain_signature(3, 2), [((0, 1), coef * 2), ((1, 0), coef * (-2))]
        )
        dr = DynamicalRMatrix(split, variables, tensor, [Polynomial.var(variables, "x")])
        assert dynamical_check(dr).passed is expect


def test_dynamical_wrong_power_fails():
    rep = dynamical_check(make_dynamical("1/x^2"))
    assert not rep.cdybe_holds
    assert rep.criteria_agree  # the identity still ties the two residuals
    assert not rep.passed


def test_dynamical_constant_r_reduces_to_quasitriangular():
    g = sl2()
    split = split_subalgebra(g, (2,), (0, 1))
    variables = ("x",)
    one = RationalFunction.const(variables, F(1))
    quarter = RationalFunction.const(variables, F(1, 4))
    tensor = SparseTensor.build(plain_signature(3, 2), [((0, 1), one), ((2, 2), quarter)])
    dr = DynamicalRMatrix(split, variables, tensor, [])
    rep = dynamical_check(dr)
    assert rep.passed
    assert rep.cdybe_holds and rep.lambda_form_holds


def test_dynamical_agrees_with_quasitriangular_on_random_constants(rng):
    # a constant r passes dynamical_check exactly when it passes the
    # non-dynamical quasi-triangularity check
    g = sl2()
    split = split_subalgebra(g, (2,), (0, 1))
    variables = ("x",)
    cases = 0
    for _ in range(15):
        entries = []
        for i in range(3):
            for j in range(3):
                c = F(rng.randint(-1, 1), rng.randint(1, 2))
                if c:
                    entries.append(((i, j), RationalFunction.const(variables, c)))
        tensor = SparseTensor.build(plain_signature(3, 2), entries)
        dr = DynamicalRMatrix(split, variables, tensor, [])
        plain = RMatrix(
            SparseTensor.build(
                plain_signature(3, 2),
                [(k, v.constant_value()) for k, v in tensor.items()],
            )
        )
        dyn = dynamical_check(dr)
        qt = quasitriangular_check(g, plain)
        expected = qt.passed and dyn.symmetric_part_constant and all(dyn.equivariance.values())
        # the dynamical verdict adds equivariance on top of the static checks
        assert dyn.cdybe_holds == qt.cybe_holds
        assert dyn.symmetric_part_invariant == qt.split.symmetric_part_invariant
        assert dyn.passed == expected
        cases += 1
    assert cases == 15


def test_dynamical_empty_base():
    g = sl2()
    split = split_subalgebra(g, (), (0, 1, 2))
    tensor = SparseTensor.build(plain_signature(3, 2), [((0, 1), F(1)), ((2, 2), F(1, 4))])
    dr = DynamicalRMatrix(split, (), tensor, [])
    assert dynamical_check(dr).passed


def test_dynamical_locus_validation():
    g = sl2()
    split = split_subalgebra(g, (2,), (0, 1))
    variables = ("x",)
    coef = parse_scalar("1/(x+1)", variables)
    tensor = SparseTensor.build(plain_signature(3, 2), [((0, 1), coef)])
    with pytest.raises(InputError):
        DynamicalRMatrix(split, variables, tensor, [Polynomial.var(variables, "x")])
    # declaring the right locus polynomial makes it acceptable
    ok_locus = [Polynomial(variables, {(1,): F(1), (0,): F(1)})]
    DynamicalRMatrix(split, variables, tensor, ok_locus)


def test_ev_rmatrix_on_sl3_passes_and_scaled_residual_is_pinned():
    # 2/a(x) (e_a (x) f_a - f_a (x) e_a) over the positive roots of sl3 solves
    # the CDYBE; twice it does not, and its residual is the one recorded
    # (tests/fixtures/ev_sl3_scaled_residual.json) by the earlier
    # cross-multiplying rational functions: same keys, equal coefficients
    from conftest import FIXTURES, ev_rmatrix_sl3
    from qlie.formats import tensor_to_entries

    rep = dynamical_check(ev_rmatrix_sl3(1))
    assert rep.passed and rep.lambda_form_holds and rep.criteria_agree
    dr = ev_rmatrix_sl3(2)
    rep = dynamical_check(dr)
    assert not rep.passed and not rep.cdybe_holds
    assert all(rep.equivariance.values()) and rep.criteria_agree
    expected = json.loads((FIXTURES / "ev_sl3_scaled_residual.json").read_text())
    variables = tuple(expected["vars"])
    assert variables == dr.variables
    got = tensor_to_entries(rep.cdybe_residual, dr.split.g)
    assert [e["idx"] for e in got] == [e["idx"] for e in expected["residual"]]
    for mine, theirs in zip(got, expected["residual"]):
        assert parse_scalar(mine["coef"], variables) == parse_scalar(theirs["coef"], variables)
