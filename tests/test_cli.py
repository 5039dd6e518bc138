import json

from conftest import FIXTURES
from qlie.cli import main, run
from qlie.formats import lie_from_dict
from qlie.lie import check_lie

SL2 = str(FIXTURES / "sl2.json")
SL3 = str(FIXTURES / "sl3.json")


def invoke(*argv):
    return run(list(argv))


def test_check_lie_pass_and_fail():
    report, code = invoke("check-lie", SL2)
    assert code == 0
    assert report["checks"][0]["status"] == "pass"
    report, code = invoke("check-lie", str(FIXTURES / "sl2_mutated.json"))
    assert code == 1
    detail = report["checks"][0]["detail"]
    assert detail["failure"] == "jacobi"
    assert set(detail["witness"]) == {"e", "f", "h"}


def test_check_lie_all_factories():
    for name in ("sl2.json", "sl3.json", "heisenberg.json", "abelian4.json"):
        _, code = invoke("check-lie", str(FIXTURES / name))
        assert code == 0, name


def test_missing_input_file_exit_2(tmp_path):
    missing = str(tmp_path / "absent.json")
    for argv in (
        ("check-lie", missing),
        ("check-qlb", SL2, "--delta", missing, "--phi", str(FIXTURES / "phi_zero.json")),
        ("dynamical", SL2, "--sub", "h", "--r", missing, "--vars", "x"),
    ):
        report, code = invoke(*argv)
        assert code == 2, argv
        assert report["checks"][0]["name"] == "input"
        assert missing in report["checks"][0]["detail"]["message"]
        assert missing not in report["inputs"]


def test_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    report, code = invoke("check-lie", str(bad))
    assert code == 2
    assert report["checks"][0]["status"] == "error"
    # unknown basis label in a tensor file
    report, code = invoke(
        "check-qlb",
        SL2,
        "--delta",
        str(FIXTURES / "delta_bad_sl2.json"),
        "--phi",
        str(FIXTURES / "killing_sl2.json"),  # wrong signature
    )
    assert code == 2


def test_check_qlb_and_twist():
    report, code = invoke(
        "check-qlb",
        SL2,
        "--delta",
        str(FIXTURES / "delta_std_sl2.json"),
        "--phi",
        str(FIXTURES / "phi_zero.json"),
    )
    assert code == 0
    report, code = invoke(
        "check-qlb",
        SL2,
        "--delta",
        str(FIXTURES / "delta_bad_sl2.json"),
        "--phi",
        str(FIXTURES / "phi_zero.json"),
    )
    assert code == 1
    report, code = invoke(
        "twist",
        SL2,
        "--delta",
        str(FIXTURES / "delta_std_sl2.json"),
        "--phi",
        str(FIXTURES / "phi_zero.json"),
        "--lambda",
        str(FIXTURES / "lambda_ef.json"),
    )
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_check_qlb_invariant_top_form():
    # (delta, phi) = (0, e ^ f ^ h) is a valid quasi-Lie bialgebra on sl2
    _, code = invoke(
        "check-qlb",
        SL2,
        "--delta",
        str(FIXTURES / "delta_zero.json"),
        "--phi",
        str(FIXTURES / "phi_efh.json"),
    )
    assert code == 0


def test_casimir_phi_command():
    report, code = invoke("casimir-phi", SL2, "--casimir", str(FIXTURES / "killing_sl2.json"))
    assert code == 0
    assert report["data"]["phi"] == [{"idx": ["e", "f", "h"], "coef": "-1/6"}]


def test_induce_and_verify_morphism():
    report, code = invoke(
        "induce", SL2, "--sub", "e,h", "--casimir", str(FIXTURES / "killing_sl2.json")
    )
    assert code == 0
    assert report["data"]["basis"] == ["e", "h"]
    assert report["data"]["delta"] == [{"idx": ["e", "e", "h"], "coef": "1/2"}]
    report, code = invoke(
        "verify-morphism", SL2, "--sub", "e,h", "--casimir", str(FIXTURES / "killing_sl2.json")
    )
    assert code == 0
    names = {c["name"] for c in report["checks"]}
    assert {"casimirinv1", "casimirinv5", "identities-equal-invariance"} <= names


def test_cybe_commands():
    _, code = invoke("cybe", SL2, "--r", str(FIXTURES / "standard_r_sl2.json"))
    assert code == 0
    report, code = invoke("cybe", SL2, "--r", str(FIXTURES / "r_ef_only.json"))
    assert code == 1
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert any("residual" in (c.get("detail") or {}) for c in failing)


def test_dynamical_command():
    _, code = invoke(
        "dynamical", SL2, "--sub", "h", "--r", str(FIXTURES / "dynamical_r_sl2.json"), "--vars", "x"
    )
    assert code == 0
    _, code = invoke(
        "dynamical", SL2, "--sub", "h", "--r", str(FIXTURES / "dynamical_r_bad.json"), "--vars", "x"
    )
    assert code == 1


def test_double_command():
    report, code = invoke("double", SL2, "--delta", str(FIXTURES / "delta_std_sl2.json"))
    assert code == 0
    assert {c["name"] for c in report["checks"]} == {
        "double-jacobi",
        "pairing-invariant",
        "triple-invariants",
        "round-trip",
    }
    report, code = invoke("double", SL2, "--delta", str(FIXTURES / "delta_bad_sl2.json"))
    assert code == 1


def test_double_command_on_rational_function_algebra(tmp_path):
    # the 2-dimensional algebra [a, b] = x b with delta(a) = a ^ b
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({
        "name": "b2x",
        "field": {"type": "ratfun", "vars": ["x"]},
        "basis": ["a", "b"],
        "brackets": [["a", "b", [["b", "x"]]]],
    }))
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps({"signature": "cobracket", "entries": [{"idx": ["a", "a", "b"], "coef": "1"}]}))
    report, code = invoke("double", str(alg), "--delta", str(delta))
    assert code == 0
    triple = report["data"]["triple"]
    assert triple["field"] == {"type": "ratfun", "vars": ["x"]}
    assert ["b", "b^", [["a^", "x"]]] in triple["brackets"]
    d = lie_from_dict(triple)
    assert d.basis == ("a", "b", "a^", "b^")
    assert check_lie(d).passed


def test_std_triple_and_triple_check(tmp_path):
    report, code = invoke("std-triple", "--algebra", "sl2")
    assert code == 0
    triple = report["data"]["triple"]
    # round-trip the emitted triple through triple-check
    lie_doc = {k: triple[k] for k in ("name", "field", "basis", "brackets")}
    lie_path = tmp_path / "double.json"
    lie_path.write_text(json.dumps(lie_doc))
    pairing_path = tmp_path / "pairing.json"
    pairing_path.write_text(json.dumps({"matrix": triple["pairing"]}))
    report, code = invoke(
        "triple-check",
        str(lie_path),
        "--g",
        ",".join(triple["g"]),
        "--gstar",
        ",".join(triple["gstar"]),
        "--pairing",
        str(pairing_path),
    )
    assert code == 0


def test_invariants_command():
    report, code = invoke("invariants", SL2, "--module", "sym2")
    assert code == 0
    assert report["data"]["dimension"] == 1
    report, code = invoke("invariants", SL3, "--module", "wedge3")
    assert code == 0
    assert report["data"]["dimension"] == 1


def test_mc_residual_command():
    _, code = invoke(
        "mc-residual",
        SL2,
        "--shift",
        "1",
        "--delta",
        str(FIXTURES / "delta_std_sl2.json"),
        "--phi",
        str(FIXTURES / "phi_zero.json"),
    )
    assert code == 0
    report, code = invoke(
        "mc-residual",
        SL2,
        "--shift",
        "1",
        "--delta",
        str(FIXTURES / "delta_bad_sl2.json"),
        "--phi",
        str(FIXTURES / "phi_zero.json"),
    )
    assert code == 1
    assert "weight-2" in report["checks"][0]["detail"]
    _, code = invoke(
        "mc-residual", SL2, "--shift", "2", "--casimir", str(FIXTURES / "killing_sl2.json")
    )
    assert code == 0


def test_reports_are_deterministic():
    rep1, _ = invoke("cybe", SL2, "--r", str(FIXTURES / "standard_r_sl2.json"))
    rep2, _ = invoke("cybe", SL2, "--r", str(FIXTURES / "standard_r_sl2.json"))
    rep1.pop("timing_ms")
    rep2.pop("timing_ms")
    assert json.dumps(rep1, sort_keys=True, default=str) == json.dumps(
        rep2, sort_keys=True, default=str
    )


def test_report_carries_ledger_and_hashes():
    report, _ = invoke("check-lie", SL2)
    assert report["ledger"]["kappa_cybe"] == "4"
    assert report["ledger"]["wedge_embedding"].startswith("signed permutation sum")
    assert SL2 in report["inputs"]
    assert len(report["inputs"][SL2]) == 64


def test_main_prints_json(capsys):
    code = main(["check-lie", SL2, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["name"] == "lie-axioms"
