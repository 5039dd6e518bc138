"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass line on success (visible with -s or -rP);
tolerances are exact equality of rational or rational-function tensors.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

from conftest import (
    FIXTURES,
    coboundary,
    multivector_to_cochain,
    rand_cobracket,
    rand_multivector,
    solve,
    zero_cobracket,
)
from mc_oracle import GaugePath, check_qlb_by_weight, gauge_verify, twist_path
from qlie.cli import run as cli_run
from qlie.lie import (
    SYM,
    WEDGE,
    abelian,
    casimir_from_pairing,
    check_lie,
    heisenberg,
    sl2,
    sl3,
    split_subalgebra,
)
from qlie.manin import (
    drinfeld_double,
    dual_subalgebra_bplus_bminus,
    manin_triple_check,
    triple_to_bialgebra,
)
from qlie.mc import mc_residual
from qlie.polyvectors import PolyVectorAlgebra, ce_differential, invariants, schouten
from qlie.qlb import (
    QuasiLieBialgebra,
    Twist,
    casimir_to_phi,
    check_qlb,
    coisotropic_casimir_check,
    induce_from_coisotropic,
    mc_element,
    twist,
    verify_coisotropic_morphism,
)
from test_manin_reference import casimir_commutator
from qlie.rmatrix import DynamicalRMatrix, RMatrix, cybe, dynamical_check, quasitriangular_check
from qlie.scalars import Polynomial, parse_scalar
from qlie.tensors import (
    KAPPA_CYBE,
    LAMBDA_FORM_PHI_COEFF,
    Multivector,
    SparseTensor,
    embed_wedge,
    plain_signature,
)

RNG_SEED = 416


def F(a, b=1):
    return Fraction(a, b)


def shipped_valid_qlbs():
    g = sl2()
    cK = casimir_from_pairing(g)
    borel = split_subalgebra(g, (0, 2))
    out = [
        QuasiLieBialgebra(g, zero_cobracket(g), Multivector.zero(3, 3)),
        QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(1)})),
        QuasiLieBialgebra(g, zero_cobracket(g), casimir_to_phi(g, cK)),
        QuasiLieBialgebra(
            g, coboundary(g, Multivector(3, 2, {(0, 1): F(1, 4)})), Multivector.zero(3, 3)
        ),
        induce_from_coisotropic(borel, cK),
        triple_to_bialgebra(dual_subalgebra_bplus_bminus(g)),
    ]
    return out


def test_criterion_01_lie_core():
    for g in (sl2(), sl3(), heisenberg(), abelian(4)):
        assert check_lie(g).passed, g.name
    bad = sl2()
    bad._table[(0, 1)] = {0: F(1)}  # mutate [e, f] = h into [e, f] = e
    rep = check_lie(bad)
    assert not rep.passed
    assert rep.failure_kind == "jacobi"
    assert rep.witness is not None and set(rep.witness) == {"e", "f", "h"}
    print("[criterion 1] PASS: Lie core factories check out, mutated sl2 fails with a Jacobi witness")


def test_criterion_02_invariant_dimensions():
    from qlie.lie import sym2_signature

    for g in (sl2(), sl3()):
        sym_inv = invariants(g, SYM(2))
        top_inv = invariants(g, WEDGE(3))
        assert len(sym_inv) == 1, g.name
        assert len(top_inv) == 1, g.name
        # feed the computed generator of Sym^2(g)^g through the associator map
        gen = SparseTensor.build(
            sym2_signature(g.dim), [(key, v) for ((), key), v in sym_inv[0].data.items()]
        )
        phi = casimir_to_phi(g, gen)
        assert not phi.is_zero()
        # phi lands inside the invariant line of wedge^3
        assert ce_differential(multivector_to_cochain(g, phi)).is_zero()
    print("[criterion 2] PASS: dim Sym^2(g)^g = dim wedge^3(g)^g = 1 on sl2/sl3; associator maps the generator to a nonzero invariant")


def test_criterion_03_casimir_associator():
    g = sl2()
    c = casimir_from_pairing(g)
    assert dict(c.data) == {(0, 1): F(1), (2, 2): F(1, 2)}  # e x f + f x e + h x h/2

    # independent oracle: dense 9-term expansion of [c12, c23]
    cc = dict(c.expanded_items())
    oracle = {}
    for (a, b), c1 in cc.items():
        for (cc2, d), c2 in cc.items():
            for m in range(3):
                s = g.bracket(b, cc2).get(m, F(0))
                if s:
                    key = (a, m, d)
                    oracle[key] = oracle.get(key, F(0)) + c1 * c2 * s
    oracle = {k: v for k, v in oracle.items() if v}
    orbit = {
        (0, 1, 2): F(1),
        (0, 2, 1): F(-1),
        (1, 0, 2): F(-1),
        (1, 2, 0): F(1),
        (2, 0, 1): F(1),
        (2, 1, 0): F(-1),
    }
    assert oracle == orbit
    assert dict(casimir_commutator(g, c).data) == orbit

    phi = casimir_to_phi(g, c)
    assert phi == Multivector(3, 3, {(0, 1, 2): F(-1, 6)})
    assert check_qlb(QuasiLieBialgebra(g, zero_cobracket(g), phi)).passed
    print("[criterion 3] PASS: [c12, c23] is the signed S3 orbit of e x f x h and phi = -(1/6) of it")


def test_criterion_04_twist_groupoid():
    rng = random.Random(RNG_SEED)
    count = 0
    for q in shipped_valid_qlbs():
        assert check_qlb(q).passed
        g = q.g
        for _ in range(50):
            lam = rand_multivector(g, 2, rng)
            qt = twist(q, Twist(lam))
            assert check_qlb(qt).passed
            assert twist(qt, Twist(-lam)) == q
            count += 1
    assert count >= 50
    print(f"[criterion 4] PASS: {count} twists close under the axioms and invert exactly")


def test_criterion_05_engine_oracle_agreement():
    rng = random.Random(RNG_SEED + 1)
    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    n_valid = 0
    for trial in range(100):
        if trial % 3 == 0:
            lam = rand_multivector(g, 2, rng)
            base = QuasiLieBialgebra(g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(1)}))
            q = twist(base, Twist(lam), validate=False)
        else:
            q = QuasiLieBialgebra(g, rand_cobracket(g, rng), rand_multivector(g, 3, rng))
        oracle = check_qlb_by_weight(q)
        res = mc_residual(P, mc_element(P, q.delta, q.phi))
        assert oracle.passed == (not res) == check_qlb(q).passed
        got2 = res.get(2)
        assert (got2 is None and oracle.cocycle.is_zero()) or got2 == oracle.cocycle
        got3 = res.get(3)
        assert (got3 is None and oracle.cojacobi.is_zero()) or got3 == oracle.cojacobi
        n_valid += oracle.passed
    assert 0 < n_valid < 100  # genuinely mixed sample
    for g2 in (sl2(), sl3()):
        P2 = PolyVectorAlgebra(g2, 2)
        c = casimir_from_pairing(g2)
        assert mc_residual(P2, P2.from_sym_tensor(c)) == {}
        assert P2.to_cochain(P2.d(P2.from_sym_tensor(c)), 1, 2).is_zero()
        monos = P2.slice_basis(0, 2)  # the degree-1 weight-2 slice
        assert not any(P2.bracket_monos(m1, m2) for m1 in monos for m2 in monos)
    print(f"[criterion 5] PASS: 100 mixed samples agree between engine and direct checker ({n_valid} valid); weight-3 [c,c] vanishes")


def test_criterion_06_deligne_gauge_paths():
    rng = random.Random(RNG_SEED + 2)
    g = sl2()
    P = PolyVectorAlgebra(g, 1)
    for _ in range(20):
        lam0 = rand_multivector(g, 2, rng)
        base = QuasiLieBialgebra(
            g, zero_cobracket(g), Multivector(3, 3, {(0, 1, 2): F(rng.randint(-2, 2))})
        )
        q0 = twist(base, Twist(lam0), validate=False)
        lam = rand_multivector(g, 2, rng)
        x, y, path = twist_path(P, q0.delta, q0.phi, lam)
        assert gauge_verify(P, x, y, path).passed
    # corrupting the quadratic coefficient breaks the path
    lam = rand_multivector(g, 2, rng)
    q0 = QuasiLieBialgebra(g, zero_cobracket(g), Multivector.zero(3, 3))
    x, y, path = twist_path(P, q0.delta, q0.phi, lam)
    alpha = {w: [dict(v) for v in poly] for w, poly in path.alpha.items()}
    a3 = alpha.setdefault(3, [{}])
    while len(a3) < 3:
        a3.append({})
    a3[2] = dict(a3[2])
    efh = ((), (0, 1, 2))  # the basis monomial of the weight-3 degree-1 slice
    a3[2][efh] = a3[2].get(efh, F(0)) + F(1)
    assert not gauge_verify(P, x, y, GaugePath(path.lam, alpha)).passed
    print("[criterion 6] PASS: 20 integrated twist paths verify; corrupted t^2 coefficient fails")


def test_criterion_07_coisotropic_reduction():
    g = sl2()
    c = casimir_from_pairing(g)
    borel = split_subalgebra(g, (0, 2))
    assert coisotropic_casimir_check(borel, c)
    q = induce_from_coisotropic(borel, c)
    assert check_qlb(q).passed
    rep = verify_coisotropic_morphism(borel, c)
    assert all(rep.invariance_identities.values())
    assert set(rep.invariance_identities) == {f"casimirinv{i}" for i in range(1, 6)}
    assert rep.identities_equal_invariance
    assert all(rep.intertwines.values())
    print("[criterion 7] PASS: Borel reduction of sl2 passes the five invariance identities, their equivalence to d c = 0, and the F-intertwining")


def test_criterion_08_cybe_suite():
    rng = random.Random(RNG_SEED + 3)
    g = sl2()
    r_std = RMatrix(
        SparseTensor.build(plain_signature(3, 2), [((0, 1), F(1)), ((2, 2), F(1, 4))])
    )
    rep = quasitriangular_check(g, r_std)
    assert rep.passed and rep.lambda_form_holds and rep.criteria_agree

    for gx, trials in ((sl2(), 50), (sl3(), 3)):
        c = casimir_from_pairing(gx)
        phi = casimir_to_phi(gx, c)
        for _ in range(trials):
            lam = rand_multivector(gx, 2, rng)
            entries = list(embed_wedge(lam.scale(F(2))).data.items())
            entries += list(dict(c.expanded_items()).items())
            r = RMatrix(SparseTensor.build(plain_signature(gx.dim, 2), entries))
            lhs = cybe(gx, r)
            lf = schouten(gx, lam, lam).scale(F(1, 2)) + phi.scale(LAMBDA_FORM_PHI_COEFF)
            assert lhs == embed_wedge(lf).scale(KAPPA_CYBE)
            qt = quasitriangular_check(gx, r)
            assert qt.criteria_agree
            assert qt.cybe_holds == qt.lambda_form_holds
    print("[criterion 8] PASS: standard r passes; kappa0 = 4 identity ties CYBE to the lambda-form on sl2 and sl3")


def test_criterion_09_dynamical_suite():
    g = sl2()
    split = split_subalgebra(g, (2,), (0, 1))
    variables = ("x",)
    locus = [Polynomial.var(variables, "x")]

    def family(expr):
        coef = parse_scalar(expr, variables)
        tensor = SparseTensor.build(
            plain_signature(3, 2), [((0, 1), coef * 2), ((1, 0), coef * (-2))]
        )
        return DynamicalRMatrix(split, variables, tensor, locus)

    rep = dynamical_check(family("1/x"))  # the ledger-determined kappa is 1
    assert rep.passed and rep.lambda_form_holds and rep.criteria_agree
    assert not dynamical_check(family("2/x")).passed
    rep_bad = dynamical_check(family("1/x^2"))
    assert not rep_bad.passed and not rep_bad.cdybe_holds

    from qlie.scalars import RationalFunction

    const = SparseTensor.build(
        plain_signature(3, 2),
        [
            ((0, 1), RationalFunction.const(variables, F(1))),
            ((2, 2), RationalFunction.const(variables, F(1, 4))),
        ],
    )
    rep_const = dynamical_check(DynamicalRMatrix(split, variables, const, []))
    assert rep_const.passed
    print("[criterion 9] PASS: lambda(x) = (1/x) e^f solves the CDYBE, 1/x^2 fails, constant r degenerates correctly")


def test_criterion_10_manin_suite():
    rng = random.Random(RNG_SEED + 4)
    for g in (sl2(), sl3()):
        t = dual_subalgebra_bplus_bminus(g)
        rep = manin_triple_check(t)
        assert rep.passed, g.name
        assert rep.complementary
        b = triple_to_bialgebra(t)
        assert check_qlb(b).passed and b.phi.is_zero()
        assert triple_to_bialgebra(drinfeld_double(b)) == b
    # coboundary property on sl2: delta = d lambda with lambda proportional to e ^ f
    g = sl2()
    b = triple_to_bialgebra(dual_subalgebra_bplus_bminus(g))
    keys2 = list(combinations(range(3), 2))
    images = [coboundary(g, Multivector(3, 2, {kk: F(1)})) for kk in keys2]
    all_keys = sorted({k for im in images for k in im.data} | set(b.delta.data))
    rows = [[F(im.data.get(key, 0)) for im in images] for key in all_keys]
    rhs = [F(b.delta.data.get(key, 0)) for key in all_keys]
    sol = solve([dict(enumerate(row)) for row in rows], rhs, len(keys2))
    assert sol is not None and sol[0] != 0 and sol[1] == 0 and sol[2] == 0
    # double-Jacobi fails precisely on non-cocycle inputs
    n_valid = 0
    for trial in range(50):
        if trial % 2 == 0:
            q = QuasiLieBialgebra(
                g, coboundary(g, rand_multivector(g, 2, rng)), Multivector.zero(3, 3)
            )
        else:
            q = QuasiLieBialgebra(g, rand_cobracket(g, rng), Multivector.zero(3, 3))
        ok = check_qlb(q).passed
        assert check_lie(drinfeld_double(q).quad.lie).passed == ok
        n_valid += ok
    assert 0 < n_valid < 50
    print(f"[criterion 10] PASS: standard triples verify on sl2/sl3, round trips are exact, double-Jacobi tracked the axioms on 50 cases ({n_valid} valid)")


def test_criterion_11_cli_end_to_end():
    sl2_path = str(FIXTURES / "sl2.json")
    runs = [
        (["check-lie", sl2_path], 0),
        (["check-lie", str(FIXTURES / "sl3.json")], 0),
        (["check-lie", str(FIXTURES / "heisenberg.json")], 0),
        (["check-lie", str(FIXTURES / "abelian4.json")], 0),
        (["check-lie", str(FIXTURES / "sl2_mutated.json")], 1),
        (
            [
                "check-qlb",
                sl2_path,
                "--delta",
                str(FIXTURES / "delta_std_sl2.json"),
                "--phi",
                str(FIXTURES / "phi_zero.json"),
            ],
            0,
        ),
        (
            [
                "twist",
                sl2_path,
                "--delta",
                str(FIXTURES / "delta_std_sl2.json"),
                "--phi",
                str(FIXTURES / "phi_zero.json"),
                "--lambda",
                str(FIXTURES / "lambda_ef.json"),
            ],
            0,
        ),
        (["casimir-phi", sl2_path, "--casimir", str(FIXTURES / "killing_sl2.json")], 0),
        (["induce", sl2_path, "--sub", "e,h", "--casimir", str(FIXTURES / "killing_sl2.json")], 0),
        (
            ["verify-morphism", sl2_path, "--sub", "e,h", "--casimir", str(FIXTURES / "killing_sl2.json")],
            0,
        ),
        (["cybe", sl2_path, "--r", str(FIXTURES / "standard_r_sl2.json")], 0),
        (["cybe", sl2_path, "--r", str(FIXTURES / "r_ef_only.json")], 1),
        (
            ["dynamical", sl2_path, "--sub", "h", "--r", str(FIXTURES / "dynamical_r_sl2.json"), "--vars", "x"],
            0,
        ),
        (
            ["dynamical", sl2_path, "--sub", "h", "--r", str(FIXTURES / "dynamical_r_bad.json"), "--vars", "x"],
            1,
        ),
        (["double", sl2_path, "--delta", str(FIXTURES / "delta_std_sl2.json")], 0),
        (["double", sl2_path, "--delta", str(FIXTURES / "delta_bad_sl2.json")], 1),
        (["std-triple", "--algebra", "sl2"], 0),
        (["std-triple", "--algebra", "sl3"], 0),
        (["invariants", sl2_path, "--module", "sym2"], 0),
        (["invariants", str(FIXTURES / "sl3.json"), "--module", "wedge3"], 0),
        (
            [
                "mc-residual",
                sl2_path,
                "--shift",
                "1",
                "--delta",
                str(FIXTURES / "delta_std_sl2.json"),
                "--phi",
                str(FIXTURES / "phi_zero.json"),
            ],
            0,
        ),
        (["mc-residual", sl2_path, "--shift", "2", "--casimir", str(FIXTURES / "killing_sl2.json")], 0),
    ]
    for argv, expected in runs:
        report, code = cli_run(argv)
        assert code == expected, (argv, code, report["checks"])
        # reports are valid JSON documents with the ledger stamped in
        doc = json.dumps(report, sort_keys=True, default=str)
        assert "kappa_cybe" in doc
    # determinism modulo the timing field
    r1, _ = cli_run(["std-triple", "--algebra", "sl2"])
    r2, _ = cli_run(["std-triple", "--algebra", "sl2"])
    r1.pop("timing_ms")
    r2.pop("timing_ms")
    assert json.dumps(r1, sort_keys=True, default=str) == json.dumps(r2, sort_keys=True, default=str)
    # malformed input: exit 2
    _, code = cli_run(["check-qlb", sl2_path, "--delta", str(FIXTURES / "phi_zero.json"), "--phi", str(FIXTURES / "phi_zero.json")])
    assert code == 2
    print("[criterion 11] PASS: CLI drives every suite with deterministic reports and contract exit codes")
