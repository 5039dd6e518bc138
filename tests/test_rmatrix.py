import json
import random
from fractions import Fraction

import pytest

import rmatrix_oracle
import test_reports_pinned
from conftest import (
    FIXTURES,
    ev_rmatrix,
    ev_rmatrix_sl3,
    multivector,
    permute_slots,
    rand_multivector,
    sym2_entries,
    tensor,
)
from qlie.cli import run
from qlie.errors import InputError
from qlie.lie import abelian, casimir_from_pairing, sl, sl2, sl3, split_subalgebra
from qlie.qlb import casimir_to_phi
from qlie.rmatrix import DynamicalRMatrix, cybe, dynamical_check, lambda_form_residual
from qlie.scalars import Polynomial, RationalFunction, parse_scalar
from qlie.tensors import KAPPA_CYBE, LAMBDA_FORM_PHI_COEFF, CECochain, WEDGE, embed_wedge
from rmatrix_oracle import alt_ddr, d_dr, schouten


def F(a, b=1):
    return Fraction(a, b)


def rmat(g, entries):
    return tensor(g, 2, entries)


def constant(g, r):
    """A constant r as the dynamical r-matrix over h = 0."""
    return DynamicalRMatrix(split_subalgebra(g, ()), (), r)


def constant_check(g, r):
    return dynamical_check(constant(g, r))


def std_r():
    return rmat(sl2(), [((0, 1), F(1)), ((2, 2), F(1, 4))])


def brute_force_cybe(g, r):
    """Independent oracle: dense triple loop over all index combinations."""
    n = g.dim
    rt = {key: c for ((), key), c in r.items()}

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
                    out[((), (a, b, c))] = total
    return out


def test_cybe_zero_cases(rng):
    g = sl2()
    assert cybe(g, rmat(g, [])).is_zero()
    ga = abelian(3)
    r = rmat(ga, [((0, 1), F(2)), ((2, 0), F(-1))])
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
        r = rmat(g, entries)
        assert dict(cybe(g, r).data) == brute_force_cybe(g, r)


def test_cybe_is_quadratic(rng):
    g = sl2()
    for _ in range(10):
        entries = [((i, j), F(rng.randint(-2, 2))) for i in range(3) for j in range(3)]
        r = rmat(g, [e for e in entries if e[1]])
        s = F(rng.randint(1, 5), rng.randint(1, 3))
        scaled = r.scale(s)
        assert cybe(g, scaled) == cybe(g, r).scale(s * s)


def test_split_r_cases():
    g = sl2()
    rep = constant_check(g, std_r())
    assert rep.lam == multivector(g, 2, [((0, 1), F(1, 4))])
    assert dict(rep.c.data) == {((), (0, 1)): F(1, 2), ((), (2, 2)): F(1, 4)}
    assert rep.symmetric_part_constant and rep.symmetric_part_invariant
    # symmetric input: lambda = 0
    sym = rmat(g, [((0, 1), F(1)), ((1, 0), F(1))])
    assert constant_check(g, sym).lam.is_zero()
    # antisymmetric input: c = 0
    anti = rmat(g, [((0, 1), F(1)), ((1, 0), F(-1))])
    assert constant_check(g, anti).c.is_zero()


def test_quasitriangular_standard_r():
    g = sl2()
    rep = constant_check(g, std_r())
    assert rep.equivariance_defects == {}
    assert rep.passed
    assert rep.lambda_form_holds
    assert rep.criteria_agree


def test_quasitriangular_zero_r():
    g = sl2()
    rep = constant_check(g, rmat(g, []))
    assert rep.passed


def test_quasitriangular_ef_fails():
    g = sl2()
    rep = constant_check(g, rmat(g, [((0, 1), F(1))]))
    assert not rep.cdybe_holds
    assert not rep.symmetric_part_invariant and rep.lambda_form_residual is None
    assert not rep.passed


def test_cybe_rejects_a_tensor_over_another_space():
    with pytest.raises(InputError, match="wrong space"):
        cybe(sl2(), rmat(abelian(4), []))
    with pytest.raises(InputError, match="wrong space"):
        cybe(sl2(), rmat(abelian(3), []))
    with pytest.raises(InputError, match="wrong space"):
        cybe(sl2(), tensor(sl2(), 3))
    with pytest.raises(InputError, match="wrong space"):
        cybe(sl2(), multivector(sl2(), 2))


def test_kappa_identity_on_sl2_and_sl3(rng):
    # cybe(embed(2 lam) + c) == 4 embed(1/2 [[lam,lam]] + 3/2 phi) identically
    for g, trials in ((sl2(), 50), (sl3(), 4)):
        c = casimir_from_pairing(g)
        phi = casimir_to_phi(g, c)
        for _ in range(trials):
            lam = rand_multivector(g, 2, rng)
            r = embed_wedge(lam.scale(F(2))) + rmat(g, sym2_entries(c))
            lhs = cybe(g, r)
            lf = schouten(g, lam, lam).scale(F(1, 2)) + phi.scale(LAMBDA_FORM_PHI_COEFF)
            assert lhs == embed_wedge(lf).scale(KAPPA_CYBE)
            # boolean agreement of the two criteria follows from the identity
            rep = constant_check(g, r)
            assert rep.criteria_agree
            assert rep.cdybe_holds == rep.lambda_form_holds


def test_cybe_antisymmetric_for_invariant_c(rng):
    for g in (sl2(), sl3()):
        c = casimir_from_pairing(g)
        lam = rand_multivector(g, 2, rng)
        t = cybe(g, embed_wedge(lam.scale(F(2))) + rmat(g, sym2_entries(c)))
        for perm in ((1, 0, 2), (0, 2, 1)):
            assert permute_slots(t, perm) == (-t).data


def test_d_dr_basics():
    variables = ("x",)
    x2 = parse_scalar("x^2", variables)
    g = sl2()
    t = tensor(g, 0, [((), x2)])
    dt = d_dr(t, variables)
    assert dict(dt.data) == {((), (0,)): parse_scalar("2*x", variables)}
    inv = parse_scalar("1/x", variables)
    t2 = tensor(g, 1, [((1,), inv)])
    dt2 = d_dr(t2, variables)
    assert dict(dt2.data) == {((), (0, 1)): parse_scalar("-1/x^2", variables)}
    const = tensor(g, 1, [((1,), F(5))])
    assert d_dr(const, variables).is_zero()


def test_alt_ddr_definition():
    g = sl2()
    split = split_subalgebra(g, (2,), (0, 1))
    # push h (index 0 of h) into g and antisymmetrize without normalization
    t = tensor(g, 3, [((0, 0, 1), F(1))])
    out = alt_ddr(split, t)
    # h (x) e (x) f fully antisymmetrized = embed(h ^ e ^ f) = embed(e ^ f ^ h)
    expect = embed_wedge(multivector(g, 3, [((0, 1, 2), F(1))]))
    assert out == expect
    assert alt_ddr(split, tensor(g, 3)).is_zero()


def make_dynamical(gfun: str):
    g = sl2()
    split = split_subalgebra(g, (2,), (0, 1))
    variables = ("x",)
    coef = parse_scalar(gfun, variables)
    r = rmat(g, [((0, 1), coef * 2), ((1, 0), coef * (-2))])
    return DynamicalRMatrix(split, variables, r, [Polynomial.var(variables, "x")])


def test_dynamical_rational_family():
    dr = make_dynamical("1/x")
    rep = dynamical_check(dr)
    assert rep.passed
    assert list(rep.equivariance_defects) == ["h"] and rep.equivariance_defects["h"].is_zero()
    assert rep.lambda_form_holds
    assert rep.criteria_agree


def test_dynamical_family_scale_is_pinned():
    # kappa/x solves the reduced scalar equation g' + g^2 = 0 only for kappa = 1
    for kappa, expect in ((F(1), True), (F(2), False), (F(-1), False)):
        g = sl2()
        split = split_subalgebra(g, (2,), (0, 1))
        variables = ("x",)
        coef = parse_scalar("1/x", variables) * kappa
        r = rmat(g, [((0, 1), coef * 2), ((1, 0), coef * (-2))])
        dr = DynamicalRMatrix(split, variables, r, [Polynomial.var(variables, "x")])
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
    r = rmat(g, [((0, 1), one), ((2, 2), quarter)])
    dr = DynamicalRMatrix(split, variables, r, [])
    rep = dynamical_check(dr)
    assert rep.passed
    assert rep.cdybe_holds and rep.lambda_form_holds


def test_dynamical_agrees_with_quasitriangular_on_random_constants(rng):
    # a constant r over h = <h> passes dynamical_check exactly when the
    # same r passes over h = 0, the check of a classical r-matrix
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
        r = rmat(g, entries)
        dr = DynamicalRMatrix(split, variables, r, [])
        plain = rmat(g, [(k, v.constant_value()) for ((), k), v in r.items()])
        dyn = dynamical_check(dr)
        qt = constant_check(g, plain)
        equivariant = all(t.is_zero() for t in dyn.equivariance_defects.values())
        expected = qt.passed and dyn.symmetric_part_constant and equivariant
        # the dynamical verdict adds equivariance on top of the static checks
        assert dyn.cdybe_holds == qt.cdybe_holds
        assert dyn.symmetric_part_invariant == qt.symmetric_part_invariant
        assert dyn.passed == expected
        cases += 1
    assert cases == 15


def test_dynamical_empty_base():
    g = sl2()
    split = split_subalgebra(g, (), (0, 1, 2))
    r = rmat(g, [((0, 1), F(1)), ((2, 2), F(1, 4))])
    dr = DynamicalRMatrix(split, (), r, [])
    assert dynamical_check(dr).passed


def test_dynamical_locus_validation():
    g = sl2()
    split = split_subalgebra(g, (2,), (0, 1))
    variables = ("x",)
    coef = parse_scalar("1/(x+1)", variables)
    r = rmat(g, [((0, 1), coef)])
    with pytest.raises(InputError):
        DynamicalRMatrix(split, variables, r, [Polynomial.var(variables, "x")])
    # declaring the right locus polynomial makes it acceptable
    ok_locus = [Polynomial(variables, {(1,): F(1), (0,): F(1)})]
    DynamicalRMatrix(split, variables, r, ok_locus)


def test_a_product_of_locus_entries_is_supported():
    # x y (x+1) (y+1) is the product of the two entries, but its normalised
    # factor x y + x + y + 1 divides neither: the whole denominator divides
    # out, one entry at a time, while the factor-by-factor rule alone would
    # refuse it
    g = sl3()
    split = split_subalgebra(g, (0, 1))
    variables = ("x", "y")
    coef = parse_scalar("1/(x*y*(x+1)*(y+1))", variables)
    assert len(coef.factors) == 3
    r = rmat(g, [((2, 5), coef)])
    locus = [parse_scalar(p, variables).num for p in ("x*(y+1)", "y*(x+1)")]
    DynamicalRMatrix(split, variables, r, locus)
    with pytest.raises(InputError, match="not supported on the declared locus"):
        DynamicalRMatrix(split, variables, r, locus[:1])


def test_ev_rmatrix_on_sl3_passes_and_scaled_residual_is_pinned():
    # 2/a(x) (e_a (x) f_a - f_a (x) e_a) over the positive roots of sl3 solves
    # the CDYBE; twice it does not, and its residual is the one recorded
    # (tests/fixtures/ev_sl3_scaled_residual.json) by the earlier
    # cross-multiplying rational functions: same keys, equal coefficients
    from qlie.formats import cochain_to_entries

    rep = dynamical_check(ev_rmatrix_sl3(1))
    assert rep.passed and rep.lambda_form_holds and rep.criteria_agree
    dr = ev_rmatrix_sl3(2)
    rep = dynamical_check(dr)
    assert not rep.passed and not rep.cdybe_holds
    assert all(t.is_zero() for t in rep.equivariance_defects.values()) and rep.criteria_agree
    expected = json.loads((FIXTURES / "ev_sl3_scaled_residual.json").read_text())
    variables = tuple(expected["vars"])
    assert variables == dr.variables
    got = cochain_to_entries(rep.cdybe_residual)
    assert [e["idx"] for e in got] == [e["idx"] for e in expected["residual"]]
    for mine, theirs in zip(got, expected["residual"]):
        assert parse_scalar(mine["coef"], variables) == parse_scalar(theirs["coef"], variables)


def fixture_algebra_and_r(name):
    from qlie.formats import lie_from_dict, tensor_from_dict

    g = lie_from_dict(json.loads((FIXTURES / "sl2.json").read_text()))
    return g, tensor_from_dict(json.loads((FIXTURES / f"{name}.json").read_text()), g, "gg")


def fixture_dynamical(name):
    from qlie.formats import polynomials_from_strings

    g, r = fixture_algebra_and_r(name)
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    locus = polynomials_from_strings(doc.get("locus", []), ("x",))
    return DynamicalRMatrix(split_subalgebra(g, (g.index("h"),)), ("x",), r, locus)


def random_constant_sl3():
    """2 lambda + c on sl3 over h = 0, lambda seeded and c a seeded multiple
    of the Casimir: the symmetric part is invariant, so the lambda-form runs."""
    rng = random.Random(17)
    g = sl3()
    lam = rand_multivector(g, 2, rng)
    c = casimir_from_pairing(g).scale(F(rng.randint(1, 3), 2))
    return constant(g, embed_wedge(lam.scale(F(2))) + rmat(g, sym2_entries(c)))


# the sl2 dynamical fixtures and the Etingof-Varchenko r-matrices of sl3,
# sl4 and sl5, with scaled (failing) copies on sl3 and sl4; and constant r
# over h = 0: the sl2 fixtures and a seeded one on sl3
DYNAMICAL_CASES = {
    "dynamical_r_sl2": lambda: fixture_dynamical("dynamical_r_sl2"),
    "dynamical_r_bad": lambda: fixture_dynamical("dynamical_r_bad"),
    "ev-sl3": lambda: ev_rmatrix_sl3(1),
    "ev-sl3-scaled": lambda: ev_rmatrix_sl3(2),
    "ev-sl4": lambda: ev_rmatrix(sl(4)),
    "ev-sl4-scaled": lambda: ev_rmatrix(sl(4), 3),
    "ev-sl5": lambda: ev_rmatrix(sl(5)),
    "standard_r_sl2": lambda: constant(*fixture_algebra_and_r("standard_r_sl2")),
    "r_ef_only": lambda: constant(*fixture_algebra_and_r("r_ef_only")),
    "random-sl3": random_constant_sl3,
}
# the one case whose symmetric part is not invariant: no lambda-form
NONINVARIANT = {"r_ef_only"}


@pytest.mark.parametrize("name", sorted(DYNAMICAL_CASES))
def test_residuals_equal_the_slot_wise_oracles(name):
    # the CDYBE residual cybe(r) + embed(D), and the lambda-form with the
    # bracket -1/2 [lambda, d lambda] and 1/4 D, equal the slot-wise formulas
    dr = DYNAMICAL_CASES[name]()
    g = dr.split.g
    rep = dynamical_check(dr)
    assert rep.cdybe_residual == rmatrix_oracle.cdybe_residual(dr)
    # r = 2 lambda + c, with lambda and c read from the report
    assert embed_wedge(rep.lam.scale(F(2))) + rmat(g, sym2_entries(rep.c)) == dr.tensor
    assert rep.symmetric_part_invariant is (name not in NONINVARIANT)
    if name in NONINVARIANT:
        assert rep.lambda_form_residual is None
        return
    alt_mv = rmatrix_oracle.alt_mv_of_derivative(dr.split, list(dr.tensor.items()))
    assert rep.lambda_form_residual == rmatrix_oracle.lambda_form_residual(g, rep.lam, rep.c, alt_mv)


def test_static_lambda_form_equals_the_schouten_oracle(rng):
    for g in (sl2(), sl3()):
        zero_d = CECochain(g, 0, WEDGE(3))
        for c in (casimir_from_pairing(g), casimir_from_pairing(g).scale(F(0))):
            for _ in range(3):
                lam = rand_multivector(g, 2, rng)
                expected = rmatrix_oracle.lambda_form_residual(g, lam, c)
                assert lambda_form_residual(g, lam, c, zero_d) == expected


# the pinned cybe and dynamical reports; their cybe and cdybe checks carry
# the whole residual, every other failing check a witness
WITNESS_CASES = sorted(n for n in test_reports_pinned.CASES if n.startswith(("cybe-", "dynamical-")))


def dynamical_from_argv(argv):
    """The DynamicalRMatrix that a cybe or dynamical argv of the pinned
    cases reads, from the same fixture files."""
    from qlie.formats import lie_from_dict, polynomials_from_strings, tensor_from_dict

    _, algebra, *options = argv
    opts = dict(zip(options[::2], options[1::2]))
    g = lie_from_dict(json.loads((FIXTURES / algebra).read_text()))
    variables = tuple(v for v in opts.get("--vars", "").split(",") if v)
    doc = json.loads((FIXTURES / opts["--r"]).read_text())
    r = tensor_from_dict({**doc, "vars": list(variables)}, g, "gg")
    h = tuple(g.index(label) for label in opts.get("--sub", "").split(",") if label)
    locus = polynomials_from_strings(doc.get("locus", []), variables)
    return DynamicalRMatrix(split_subalgebra(g, h), variables, r, locus)


@pytest.mark.parametrize("name", WITNESS_CASES)
def test_each_witness_is_nonzero_in_the_oracles(name):
    argv = test_reports_pinned.CASES[name]
    report, _ = run(test_reports_pinned._absolute(argv))
    dr = dynamical_from_argv(argv)
    g, variables = dr.split.g, dr.variables
    rep = dynamical_check(dr)
    sym = rmatrix_oracle.symmetric_part(g, dr.tensor)
    checks = {c["name"]: c for c in report["checks"]}
    constant = checks.get("symmetric-part-constant", {"status": "pass"})["status"] == "pass"
    for check in checks.values():
        if check["status"] == "pass" or check["name"] in ("cybe", "cdybe"):
            continue
        kind, idx = check["name"], [g.index(label) for label in check["detail"]["witness"]]
        value = parse_scalar(check["detail"]["residual"], variables)
        if kind.startswith("equivariance-"):
            i, j = idx
            expect = rmatrix_oracle.equivariance_defect(g, g.index(kind[len("equivariance-") :]), dr.tensor)[i][j]
        elif kind == "symmetric-part-constant" or (kind == "symmetric-part-invariant" and not constant):
            # the witness pair varies over h*
            i, j = idx
            expect = sym[i][j]
            assert isinstance(expect, RationalFunction) and not expect.is_constant()
        elif kind == "symmetric-part-invariant":
            # the sign and scale of d c on Sym^2 g are the library's own
            a, i, j = idx
            assert rmatrix_oracle.invariance_defect(g, a, sym)[i][j] != 0
            continue
        else:
            assert kind == "lambda-form"
            alt_mv = rmatrix_oracle.alt_mv_of_derivative(dr.split, list(dr.tensor.items()))
            oracle = rmatrix_oracle.lambda_form_residual(g, rep.lam, rep.c, alt_mv)
            expect = oracle.data.get(((), tuple(idx)), 0)
        assert expect != 0 and value == expect, kind


@pytest.mark.parametrize("name", ["cybe-doubled-antisym-sl2", "dynamical-r-sl2", "dynamical-ev-sl3-scaled"])
def test_criteria_agree_names_a_witness(monkeypatch, name):
    # the two criteria agree on every pinned report; a lambda-form residual
    # perturbed at its least key makes them disagree, and the failing
    # check names a key of cdybe_residual - kappa embed(lambda-form)
    import qlie.rmatrix

    argv = test_reports_pinned.CASES[name]
    real = qlie.rmatrix.lambda_form_residual

    def perturbed(g, lam, c, D):
        return real(g, lam, c, D) + CECochain(g, 0, WEDGE(3), {((), (0, 1, 2)): Fraction(1, 3)})

    report, _ = run(test_reports_pinned._absolute(argv))
    assert {c["name"]: c["status"] for c in report["checks"]}["criteria-agree"] == "pass"
    monkeypatch.setattr(qlie.rmatrix, "lambda_form_residual", perturbed)
    report, _ = run(test_reports_pinned._absolute(argv))
    check = {c["name"]: c for c in report["checks"]}["criteria-agree"]
    assert check["status"] == "fail"

    dr = dynamical_from_argv(argv)
    g, variables = dr.split.g, dr.variables
    rep = dynamical_check(dr)
    D = CECochain.build(
        g,
        0,
        WEDGE(3),
        [
            (((), (h, i, j)), coef.derivative(x))
            for ((), (i, j)), coef in dr.tensor.items()
            if isinstance(coef, RationalFunction)
            for h, x in zip(dr.split.h_indices, variables)
        ],
    )
    difference = rep.cdybe_residual - embed_wedge(perturbed(g, rep.lam, rep.c, D)).scale(KAPPA_CYBE)
    key = ((), tuple(g.index(label) for label in check["detail"]["witness"]))
    assert key == min(difference.data)
    assert difference.data[key] == parse_scalar(check["detail"]["residual"], variables) != 0
