import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURES
from qlie.cli import main, run
from qlie.formats import MAX_BASIS_LABELS, MAX_INPUT_BYTES, lie_from_dict, lie_to_dict
from qlie.lie import sl
from qlie.polyvectors import check_lie

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


LIE = ("check-lie", "{}")
DYNAMICAL = ("dynamical", SL2, "--sub", "h", "--r", "{}", "--vars", "x")
QLB_PHI = ("check-qlb", SL2, "--delta", str(FIXTURES / "delta_std_sl2.json"), "--phi", "{}")
COEF = ("brackets", 0, 2, 0, 1)
R_COEF = ("entries", 0, "coef")

PAIRING4 = {"matrix": [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]}
TRIPLE4 = ("triple-check", str(FIXTURES / "abelian4.json"), "--g", "x1,x2", "--gstar", "x3,x4", "--pairing", "{}")


def with_cell(row, col, value):
    matrix = [list(r) for r in PAIRING4["matrix"]]
    matrix[row][col] = value
    return {"matrix": matrix}


class RawJSON(str):
    """A whole document given as its text, written as it is."""


@pytest.mark.parametrize(
    "fixture, where, value, argv, message",
    [
        ("sl2.json", COEF, "1/0", LIE, "division by zero"),
        ("sl2.json", ("brackets", 0, 2), [7], LIE, "bracket entries"),
        ("dynamical_r_sl2.json", R_COEF, "1/(x-x)", DYNAMICAL, "division by zero"),
        ("sl2.json", ("field",), "rational", LIE, "field is an object"),
        ("sl2.json", ("field",), 5, LIE, "field is an object"),
        # a string is no longer split into one variable per character
        ("sl2.json", ("field",), {"type": "ratfun", "vars": "xy"}, LIE, "list of variable names"),
        ("phi_zero.json", ("vars",), 5, QLB_PHI, "list of variable names"),
        ("phi_zero.json", ("vars",), ["x", 1], QLB_PHI, "list of variable names"),
        ("dynamical_r_sl2.json", ("vars",), 5, DYNAMICAL, "list of variable names"),
        ("dynamical_r_sl2.json", ("vars",), "x", DYNAMICAL, "list of variable names"),
        # a repeated name used to be accepted, and d/dx always took the first x
        ("sl2.json", ("field",), {"type": "ratfun", "vars": ["x", "x"]}, LIE, "repeats the variable name 'x'"),
        (
            "ev_r_sl3_scaled.json", ("vars",), ["x1", "x2", "x1"],
            ("dynamical", SL3, "--sub", "h1,h2", "--r", "{}", "--vars", "x1,x2"),
            "a tensor's 'vars' repeats the variable name 'x1'",
        ),
        (
            "ev_r_sl3_scaled.json", ("vars",), ["x1", "x1"],
            ("dynamical", SL3, "--sub", "h1,h2", "--r", "{}", "--vars", "x1,x1"),
            "--vars repeats the variable name 'x1'",
        ),
        # exponent literals are capped at 64; these used to expand for seconds
        ("sl2.json", COEF, "2^99999999", LIE, "above 64"),
        ("dynamical_r_sl2.json", R_COEF, "x^-99999999", DYNAMICAL, "above 64"),
        ("dynamical_r_sl2.json", R_COEF, "(x+1)^65", DYNAMICAL, "above 64"),
        # int() refuses more than 4300 digits, and digits such as "²"
        ("sl2.json", COEF, "1" * 5000, LIE, "cannot be read"),
        ("sl2.json", COEF, "2\u00b2", LIE, "cannot be read"),
        # json.loads refuses an integer literal of over 4300 digits with a
        # plain ValueError, which used to exit 3
        (
            "sl2.json", (),
            RawJSON('{"name": "x", "basis": ["e","f","h"], "brackets": [["e","f",[["h", 1' + "0" * 4400 + ']]]]}'),
            LIE, "cannot read JSON file",
        ),
        # a coefficient is a JSON string or integer: a boolean was read as
        # the variable True where one was declared, "unknown variable" elsewhere
        (
            "dynamical_r_sl2.json", (),
            {"signature": "gg", "vars": ["True"], "entries": [{"idx": ["e", "f"], "coef": True}]},
            ("dynamical", SL2, "--sub", "h", "--r", "{}", "--vars", "True"),
            "the coefficient of tensor entry ['e', 'f'] is a boolean",
        ),
        ("sl2.json", COEF, True, LIE, "the coefficient of 'h' in [e, f] is a boolean"),
        ("sl2.json", COEF, None, LIE, "the coefficient of 'h' in [e, f] is null"),
        ("sl2.json", COEF, 1.5, LIE, "is a float"),
        ("sl2.json", (), with_cell(0, 2, True), TRIPLE4, "pairing cell (0, 2) is a boolean"),
        # the zero mirror of a nonzero cell: a check of the nonzero cells must still compare it
        ("sl2.json", (), with_cell(2, 0, "0"), TRIPLE4, "pairing matrix must be symmetric"),
        ("dynamical_r_sl2.json", ("locus",), ["x", False], DYNAMICAL, "locus entry 1 is a boolean"),
        # nesting far below the byte limit met the recursion limit (exit 3)
        ("sl2.json", (), RawJSON("[" * 1000 + "]" * 1000), LIE, "nested too deeply"),
        ("sl2.json", COEF, "(" * 250 + "1" + ")" * 250, LIE, "nested over 100 deep"),
        # nested powers multiply: the degree of a power's result is capped
        (
            "phi_zero.json", (),
            {"signature": "wedge3", "vars": ["x", "y"], "entries": [{"idx": ["e", "f", "h"], "coef": "((x+y+1)^64)^64"}]},
            QLB_PHI, "above 32",
        ),
        # and so is the size of its coefficients on degree-0 bases
        ("sl2.json", COEF, "((2^64)^64)^64", LIE, "digit limit"),
        # and a product of accepted powers, which used to exit 3
        (
            "phi_zero.json", (),
            {"signature": "wedge3", "entries": [{"idx": ["e", "f", "h"], "coef": "(10^64)^64*(10^64)^64"}]},
            QLB_PHI, "digit limit",
        ),
        # a sum brings both sides over one denominator, which used to exit 3
        (
            "phi_zero.json", (),
            {"signature": "wedge3", "entries": [{"idx": ["e", "f", "h"], "coef": "(10^64)^64+1/(10^64)^64"}]},
            QLB_PHI, "digit limit",
        ),
        # products and powers are capped by the terms they form, not their
        # degree: these took 6.0 s and 1.3 s to expand
        (
            "phi_zero.json", (),
            {"signature": "wedge3", "vars": ["x", "y", "z"],
             "entries": [{"idx": ["e", "f", "h"], "coef": "(x+y+z+1)^16*(x+y+z+1)^16"}]},
            QLB_PHI, "term limit",
        ),
        (
            "phi_zero.json", (),
            {"signature": "wedge3", "vars": ["x", "y", "z"],
             "entries": [{"idx": ["e", "f", "h"], "coef": "(x+y+z+1)^24"}]},
            QLB_PHI, "term limit",
        ),
        # found by tests/test_fuzz_formats.py; both used to exit 3
        ("sl2.json", ("brackets",), 7, LIE, "brackets is a list"),
        ("dynamical_r_sl2.json", ("locus",), None, DYNAMICAL, "locus is a list"),
        # input bounds: one basis label too many, an invariants module just
        # over its limit (`invariants --module wedge3` on 100 abelian labels
        # ran until killed) and one byte too many
        (
            "sl2.json", ("basis",), [f"x{i}" for i in range(MAX_BASIS_LABELS + 1)],
            LIE, "over the limit of",
        ),
        (
            "abelian4.json", ("basis",), [f"x{i}" for i in range(27)],
            ("invariants", "{}", "--module", "wedge3"), "over the limit of",
        ),
        (
            "abelian4.json", ("basis",), [f"x{i}" for i in range(72)],
            ("invariants", "{}", "--module", "sym2"), "over the limit of",
        ),
        ("sl2.json", ("name",), "x" * MAX_INPUT_BYTES, LIE, "over the input limit"),
        # a cobracket with every entry nonzero on 10 labels: 1/2 [x, x] may
        # form up to 40,500 pairs (about 0.25 s), over the residual's pair bound
        (
            "delta_zero.json", (),
            {"signature": "cobracket", "entries": [
                {"idx": [f"x{k}", f"x{i}", f"x{j}"], "coef": "1"}
                for k in range(1, 11) for i in range(1, 11) for j in range(i + 1, 11)
            ]},
            ("check-qlb", str(FIXTURES / "abelian10.json"), "--delta", "{}", "--phi", str(FIXTURES / "phi_zero.json")),
            "contraction events",
        ),
        # the zero-cobracket double of sl9 has 2,592 nonzero structure
        # constants; its Jacobi scan would take about 3.3 s
        (
            "sl2.json", (), lie_to_dict(sl(9)),
            ("double", "{}", "--delta", str(FIXTURES / "delta_zero.json")),
            "nonzero structure constants",
        ),
    ],
    ids=[
        "zero-denominator", "non-list-component", "singular-rmatrix",
        "string-field", "number-field", "string-field-vars",
        "number-tensor-vars", "non-string-tensor-vars", "number-rmatrix-vars",
        "string-rmatrix-vars", "repeated-field-vars", "repeated-tensor-vars", "repeated-option-vars",
        "huge-power", "huge-negative-power", "power-above-cap",
        "5000-digit-literal", "superscript-digit", "4400-digit-json-integer",
        "true-as-variable", "true-coefficient", "null-coefficient", "float-coefficient",
        "true-pairing-cell", "asymmetric-pairing", "false-locus-entry", "json-nested-1000-deep",
        "coefficient-nested-250-deep", "nested-power",
        "nested-rational-power", "product-of-powers", "sum-of-powers",
        "product-term-limit", "power-term-limit", "number-brackets", "null-locus",
        "basis-label-limit", "wedge3-module-limit", "sym2-module-limit", "input-byte-limit",
        "dense-cobracket-pair-limit", "double-structure-constant-limit",
    ],
)
def test_malformed_document_exit_2(tmp_path, fixture, where, value, argv, message):
    doc = json.loads((FIXTURES / fixture).read_text())
    if where:
        target = doc
        for step in where[:-1]:
            target = target[step]
        target[where[-1]] = value
    else:  # an empty path replaces the whole document
        doc = value
    path = tmp_path / fixture
    path.write_text(doc if isinstance(doc, RawJSON) else json.dumps(doc))
    start = time.perf_counter()
    report, code = invoke(*(a.format(path) for a in argv))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert report["checks"][0]["name"] == "input"
    assert report["checks"][0]["status"] == "error"
    assert message in report["checks"][0]["detail"]["message"]


def test_integer_coefficients_read_as_their_strings(tmp_path):
    doc = json.loads((FIXTURES / "sl2.json").read_text())
    for _, _, comps in doc["brackets"]:
        for comp in comps:
            comp[1] = int(comp[1])
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(doc))
    assert lie_from_dict(doc).same_structure(lie_from_dict(json.loads((FIXTURES / "sl2.json").read_text())))
    assert invoke("check-lie", str(path))[1] == 0
    pairing = tmp_path / "pairing.json"
    pairing.write_text(json.dumps(with_cell(0, 2, 1)))
    assert invoke(*(a.format(pairing) for a in TRIPLE4))[1] == 0


def test_residual_past_the_digit_limit_prints_exactly(tmp_path, capsys):
    # c has 4,001 digits, which a literal may have; the Jacobiator at
    # (e, f, h) is -2 c^2 h, 8,001 digits, which str() refuses to print
    c = "1" + "0" * 4000
    doc = {"name": "big", "basis": ["e", "f", "h"],
           "brackets": [["e", "f", [["h", c]]], ["e", "h", [["e", c]]], ["f", "h", [["f", c]]]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    report, code = invoke("check-lie", str(path))
    assert code == 1
    assert report["checks"][0]["detail"]["residual"] == {"h": "-2" + "0" * 8000}
    assert main(["check-lie", str(path)]) == 1
    assert "0" * 8000 in capsys.readouterr().out


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs a device that reports no size")
def test_unsized_input_is_read_only_up_to_the_byte_limit():
    start = time.perf_counter()
    report, code = invoke("check-lie", "/dev/zero")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "over the input limit" in report["checks"][0]["detail"]["message"]


def test_algebras_past_sl5_are_not_refused(tmp_path):
    # the label limit is set by the slowest subcommand on an abelian algebra,
    # not by `invariants`: sl6 (35 labels) runs check-lie, the shift-1
    # residual of its zero structure and `invariants` on its wedge^3, whose
    # 6,545 dimensions hold a weight-0 block of 125, under the module bound
    alg = tmp_path / "sl6.json"
    alg.write_text(json.dumps(lie_to_dict(sl(6))))
    zero = {s: tmp_path / f"{s}.json" for s in ("cobracket", "wedge3")}
    for s, path in zero.items():
        path.write_text(json.dumps({"signature": s, "entries": []}))
    assert invoke("check-lie", str(alg))[1] == 0
    report, code = invoke(
        "mc-residual", str(alg), "--shift", "1", "--delta", str(zero["cobracket"]), "--phi", str(zero["wedge3"])
    )
    assert (code, report["data"]) == (0, {"dgla": "Pol(Bsl6, 1)[>=2]"})
    start = time.perf_counter()
    report, code = invoke("invariants", str(alg), "--module", "wedge3")
    assert time.perf_counter() - start < 1.0
    assert (code, report["data"]["dimension"]) == (0, 1)


def test_sum_just_under_the_digit_limit_parses(tmp_path):
    # (10^64)^64 + (10^64)^64 = 2 * 10^4096 has 4,097 digits
    phi = tmp_path / "phi.json"
    entry = {"idx": ["e", "f", "h"], "coef": "(10^64)^64+(10^64)^64"}
    phi.write_text(json.dumps({"signature": "wedge3", "entries": [entry]}))
    report, code = invoke(*(a.format(phi) for a in QLB_PHI))
    assert code == 0, report["checks"]
    assert report["data"]["phi"] == [{"idx": ["e", "f", "h"], "coef": str(2 * 10**4096)}]


@pytest.mark.parametrize(
    "matrix", [5, "abcd", [5, 5, 5, 5], [[1, 0, 0, 0]] * 3 + ["1000"]],
    ids=["number", "string", "scalar-rows", "string-row"],
)
def test_pairing_matrix_not_a_list_of_lists_exit_2(tmp_path, matrix):
    pairing = tmp_path / "pairing.json"
    pairing.write_text(json.dumps({"matrix": matrix}))
    report, code = invoke(
        "triple-check", str(FIXTURES / "abelian4.json"), "--g", "x1,x2",
        "--gstar", "x3,x4", "--pairing", str(pairing),
    )
    assert code == 2
    assert report["checks"][0]["name"] == "input"
    assert "pairing file must hold" in report["checks"][0]["detail"]["message"]


@pytest.mark.parametrize("text", ["5", "[]", '"sl2"'], ids=["number", "list", "string"])
def test_non_object_document_exit_2(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    report, code = invoke("check-lie", str(path))
    assert code == 2
    assert report["checks"][0]["name"] == "input"
    assert "must hold an object" in report["checks"][0]["detail"]["message"]


@pytest.mark.parametrize(
    "phi",
    [
        {"signature": "wedge3", "entries": [{"idx": 5, "coef": "1"}]},
        {"signature": "wedge3", "entries": "x"},
        {"signature": "wedge3", "entries": [["e", "f", "h"]]},
    ],
    ids=["scalar-idx", "string-entries", "list-entry"],
)
def test_malformed_tensor_document_exit_2(tmp_path, phi):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi))
    report, code = invoke(
        "check-qlb", SL2, "--delta", str(FIXTURES / "delta_std_sl2.json"), "--phi", str(path)
    )
    assert code == 2
    assert report["checks"][0]["name"] == "input"
    assert report["checks"][0]["status"] == "error"


@pytest.mark.parametrize("signature", [["gg"], {}, None], ids=["list", "object", "null"])
@pytest.mark.parametrize(
    "argv",
    [
        ("cybe", SL2, "--r", "{}"),
        ("check-qlb", SL2, "--delta", "{}", "--phi", str(FIXTURES / "phi_zero.json")),
    ],
    ids=["cybe-r", "check-qlb-delta"],
)
def test_non_string_tensor_signature_exit_2(tmp_path, argv, signature):
    # an unhashable signature must not reach a lookup that raises TypeError
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"signature": signature, "entries": []}))
    report, code = invoke(*(a.format(path) for a in argv))
    assert code == 2
    assert report["checks"][0]["name"] == "input"
    assert "unknown tensor signature" in report["checks"][0]["detail"]["message"]


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


def test_twist_rejects_invalid_input():
    # the input fails the axioms (d delta != 0): a precondition error, exit 2,
    # naming the failing axiom; the library's twist itself does not check
    report, code = invoke(
        "twist",
        SL2,
        "--delta",
        str(FIXTURES / "delta_bad_sl2.json"),
        "--phi",
        str(FIXTURES / "phi_zero.json"),
        "--lambda",
        str(FIXTURES / "lambda_ef.json"),
    )
    assert code == 2
    assert report["checks"] == [
        {
            "name": "input",
            "status": "error",
            "detail": {"message": "twist input fails the quasi-Lie bialgebra axioms: cocycle"},
        }
    ]


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
    assert {"casimirinv1", "casimirinv5"} <= names
    assert "identities-equal-invariance" not in names


def test_verify_morphism_refuses_a_split_that_is_not_coisotropic():
    # with h = 0 the Killing Casimir lies wholly in m (x) m: the induction
    # does not apply, so coisotropic is the one check and it fails
    report, code = invoke(
        "verify-morphism", SL2, "--sub", ",", "--casimir", str(FIXTURES / "killing_sl2.json")
    )
    assert code == 1
    assert report["checks"] == [{"name": "coisotropic", "status": "fail"}]
    report, code = invoke(
        "verify-morphism", SL2, "--sub", "e,h", "--casimir", str(FIXTURES / "killing_sl2.json")
    )
    assert code == 0
    assert report["checks"][0] == {"name": "coisotropic", "status": "pass"}


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


def run_subprocess(*argv, timeout=60):
    """(report, exit code) of `qlie argv --json` in a fresh interpreter,
    which is killed, failing the test, after timeout seconds."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qlie.cli", *argv, "--json"],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    return json.loads(proc.stdout), proc.returncode


def test_import_loads_no_code_generation_machinery():
    # dataclasses pulled in inspect, ast, dis and tokenize: about half of
    # the cost of importing qlie.cli in a fresh interpreter
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qlie.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout == "[]\n", proc.stderr


@pytest.mark.parametrize(
    "locus, code, message",
    [
        # a nonzero constant removes no pole: dividing by it used to loop forever
        (["2"], 2, "not supported on the declared locus"),
        (["x^0"], 2, "not supported on the declared locus"),
        (["2", "x"], 0, None),
        # the zero polynomial used to exit 3 with ZeroDivisionError
        (["0"], 2, "locus entry '0' is the zero polynomial"),
        (["x", "0*x"], 2, "locus entry '0*x' is the zero polynomial"),
    ],
    ids=["two", "x-to-the-0", "two-and-x", "zero", "zero-times-x"],
)
def test_constant_locus_entries(tmp_path, locus, code, message):
    doc = json.loads((FIXTURES / "dynamical_r_sl2.json").read_text())
    doc["locus"] = locus
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    report, got = run_subprocess("dynamical", SL2, "--sub", "h", "--r", str(path), "--vars", "x")
    assert got == code
    if message:
        assert report["checks"][0]["name"] == "input"
        assert message in report["checks"][0]["detail"]["message"]


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


def test_double_reads_cobracket_entries_in_any_slot_order(tmp_path):
    # [k, b, a] with coefficient -c is the entry [k, a, b] with c
    doc = json.loads((FIXTURES / "delta_std_sl2.json").read_text())
    for entry in doc["entries"]:
        k, a, b = entry["idx"]
        entry["idx"] = [k, b, a]
        entry["coef"] = entry["coef"][1:] if entry["coef"].startswith("-") else "-" + entry["coef"]
    swapped = tmp_path / "delta_swapped.json"
    swapped.write_text(json.dumps(doc))
    report, code = invoke("double", SL2, "--delta", str(swapped))
    assert code == 0
    assert {c["name"]: c["status"] for c in report["checks"]}["round-trip"] == "pass"
    canonical, _ = invoke("double", SL2, "--delta", str(FIXTURES / "delta_std_sl2.json"))
    assert report["data"] == canonical["data"]


def test_cobracket_entry_with_repeated_upper_label_vanishes(tmp_path):
    delta = tmp_path / "delta_eff.json"
    delta.write_text(json.dumps({"signature": "cobracket", "entries": [{"idx": ["e", "f", "f"], "coef": "1"}]}))
    report, code = invoke("check-qlb", SL2, "--delta", str(delta), "--phi", str(FIXTURES / "phi_zero.json"))
    assert code == 0
    assert report["data"]["delta"] == []


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


@pytest.mark.parametrize(
    "matrix, g, gstar, details",
    [
        # a degenerate pairing used to fail with the empty witness []
        ([["0"] * 4] * 4, "x1,x2", "x3,x4", {"quadratic": {"rank": 0, "dim": 4}}),
        # an isotropic line is not half of d, and with x3, x4 it misses x2
        (PAIRING4["matrix"], "x1", "x3,x4", {"g-lagrangian": {"subspace_dim": 1, "dim": 4}, "complementary": None}),
    ],
    ids=["zero-pairing", "line"],
)
def test_triple_check_failures_name_what_fails(tmp_path, matrix, g, gstar, details):
    pairing = tmp_path / "pairing.json"
    pairing.write_text(json.dumps({"matrix": matrix}))
    argv = ("triple-check", str(FIXTURES / "abelian4.json"), "--g", g, "--gstar", gstar, "--pairing", str(pairing))
    report, code = invoke(*argv)
    assert code == 1
    assert {c["name"]: c.get("detail") for c in report["checks"] if c["status"] == "fail"} == details


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_std_triple_on_sl_n(n):
    # sl4..sl9 are lie.sl(n); every check of the standard bialgebra passes
    # (sl9's report is pinned in tests/test_reports_pinned.py)
    report, code = invoke("std-triple", "--algebra", f"sl{n}")
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"])
    assert len(report["data"]["triple"]["g"]) == n * n - 1


def test_std_triple_limits():
    # sl10 is not a choice
    report, code = invoke("std-triple", "--algebra", "sl10")
    assert code == 2
    assert [c["name"] for c in report["checks"]] == ["input"]
    assert "invalid choice: 'sl10' (choose from 'sl2', 'sl3', 'sl4', 'sl5', 'sl6', 'sl7', 'sl8', 'sl9')" in (
        report["checks"][0]["detail"]["message"]
    )


def test_dense_twist_of_the_standard_sl4_bialgebra_is_refused(tmp_path):
    # every entry of lambda nonzero: 1/2 [x, x] would form 193,211
    # contraction events, over the Maurer-Cartan residual's bound
    from itertools import combinations

    from qlie.formats import cochain_to_entries
    from qlie.manin import dual_subalgebra_bplus_bminus, triple_to_bialgebra
    from qlie.qlb import Twist, twist
    from qlie.tensors import CECochain, WEDGE

    b = triple_to_bialgebra(dual_subalgebra_bplus_bminus(sl(4)))
    lam = CECochain(b.g, 0, WEDGE(2), {((), key): 1 for key in combinations(range(15), 2)})
    q = twist(b, Twist(lam))
    g, delta, phi = (tmp_path / f"{name}.json" for name in ("g", "delta", "phi"))
    g.write_text(json.dumps(lie_to_dict(q.g)))
    delta.write_text(json.dumps({"signature": "cobracket", "entries": cochain_to_entries(q.delta)}))
    phi.write_text(json.dumps({"signature": "wedge3", "entries": cochain_to_entries(q.phi)}))
    report, code = invoke("check-qlb", str(g), "--delta", str(delta), "--phi", str(phi))
    assert code == 2
    assert report["checks"][0]["detail"]["message"] == (
        "the Maurer-Cartan residual would form 193211 contraction events, over the limit of 20000"
    )


def test_invariants_command():
    report, code = invoke("invariants", SL2, "--module", "sym2")
    assert code == 0
    assert report["data"]["dimension"] == 1
    report, code = invoke("invariants", SL3, "--module", "wedge3")
    assert code == 0
    assert report["data"]["dimension"] == 1
    # sl2 with [e, f] = x h over Q(x): the kernel is taken over Q(x) (this
    # exited 3 while the elimination read every entry as a Fraction)
    report, code = invoke("invariants", str(FIXTURES / "sl2x.json"), "--module", "sym2")
    assert code == 0
    assert report["data"] == {
        "dimension": 1,
        "basis": [[{"idx": ["e", "f"], "coef": "(2)/(x)"}, {"idx": ["h", "h"], "coef": "1"}]],
    }
    report, code = invoke("invariants", str(FIXTURES / "sl2x.json"), "--module", "wedge3")
    assert (code, report["data"]["dimension"]) == (0, 1)


@pytest.mark.parametrize(
    "command, options, message",
    [
        # span{a} is a line, so g + g* misses b; with a counted twice this
        # passed all four Manin-triple checks (exit 0)
        ("triple-check", ("--g", "a,a", "--gstar", "c,d"), "--g repeats the label 'a'"),
        # and this one passed complementary (exit 1 on the other checks)
        ("triple-check", ("--g", "a,a,b", "--gstar", "c"), "--g repeats the label 'a'"),
        ("triple-check", ("--g", "a,b", "--gstar", "c,d,c"), "--gstar repeats the label 'c'"),
        ("induce", ("--sub", "e,e,h"), "--sub repeats the label 'e'"),
    ],
    ids=["triple-g-a-a", "triple-g-a-a-b", "triple-gstar-c-d-c", "induce-sub-e-e-h"],
)
def test_repeated_label_exit_2(tmp_path, command, options, message):
    if command == "triple-check":
        # abelian on a, b, c, d with the hyperbolic pairing a <-> c, b <-> d
        algebra = tmp_path / "ab.json"
        algebra.write_text(json.dumps({"name": "ab", "basis": ["a", "b", "c", "d"], "brackets": []}))
        pairing = tmp_path / "pairing.json"
        pairing.write_text(json.dumps({"matrix": [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]}))
        argv = ("triple-check", str(algebra), *options, "--pairing", str(pairing))
    else:
        argv = (command, SL2, *options, "--casimir", str(FIXTURES / "killing_sl2.json"))
    report, code = invoke(*argv)
    assert code == 2
    assert report["checks"] == [{"name": "input", "status": "error", "detail": {"message": message}}]


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
    assert report["data"] == {"dgla": "Pol(Bsl2, 1)[>=2]"}
    report, code = invoke(
        "mc-residual", SL2, "--shift", "2", "--casimir", str(FIXTURES / "killing_sl2.json")
    )
    assert code == 0
    assert report["data"] == {"dgla": "Pol(Bsl2, 2)[>=2]"}


def test_mc_residual_beyond_dim_8_agrees_with_check_qlb(tmp_path):
    import random

    from conftest import sl3_plus_sl2, sparse_structures
    from qlie.formats import cochain_to_entries, lie_to_dict

    g, phi_inv = sl3_plus_sl2()
    algebra = tmp_path / "sl3+sl2.json"
    algebra.write_text(json.dumps(lie_to_dict(g)))
    codes = []
    for n, q in enumerate(sparse_structures(g, random.Random(20240912), 4, phi_inv)):
        delta, phi = tmp_path / f"delta{n}.json", tmp_path / f"phi{n}.json"
        delta.write_text(json.dumps({"signature": "cobracket", "entries": cochain_to_entries(q.delta)}))
        phi.write_text(json.dumps({"signature": "wedge3", "entries": cochain_to_entries(q.phi)}))
        files = (str(algebra), "--delta", str(delta), "--phi", str(phi))
        report, code = invoke("mc-residual", *files[:1], "--shift", "1", *files[1:])
        assert report["checks"][0]["name"] == "maurer-cartan"
        assert code == invoke("check-qlb", *files)[1]
        codes.append(code)
    assert codes == [0, 1, 0, 1]


def test_internal_error_exit_3(monkeypatch, capsys):
    import qlie.cli

    def broken(args, inputs):
        raise RuntimeError("handler broke")

    monkeypatch.setattr(qlie.cli, "cmd_check_lie", broken)
    report, code = invoke("check-lie", SL2)
    assert code == 3
    assert report["checks"] == [
        {"name": "internal", "status": "error", "detail": {"message": "RuntimeError: handler broke"}}
    ]
    assert set(report) == {"command", "ledger", "inputs", "checks", "data", "timing_ms"}
    capsys.readouterr()
    assert main(["check-lie", SL2, "--json"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["checks"][0]["name"] == "internal"
    assert "Traceback" not in out + err


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


def test_main_reads_json_flag_from_parsed_arguments(capsys):
    # argparse accepts the unambiguous prefix --js for --json
    code = main(["check-lie", SL2, "--js"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["checks"][0]["name"] == "lie-axioms"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mc-residual", SL2, "--shift", "3"], "invalid choice: 3"),
        (["mc-residual", SL2, "--shift", "one"], "invalid int value"),
        (["check-qlb", SL2, "--delta", SL2], "required: --phi"),
        (["check-lie", SL2, "--bogus"], "unrecognized arguments: --bogus"),
        (["no-such-command", SL2], "invalid choice: 'no-such-command'"),
        ([], "required: command"),
    ],
    ids=["shift-3", "shift-not-int", "missing-option", "unknown-flag", "unknown-command", "empty"],
)
def test_argument_error_gives_input_report_exit_2(argv, message, capsys):
    report, code = run(argv)
    assert code == 2
    assert report["command"] == argv and report["inputs"] == {} and report["data"] == {}
    assert [c["name"] for c in report["checks"]] == ["input"]
    assert message in report["checks"][0]["detail"]["message"]
    # main prints the same report, as JSON under --json (or a prefix of it)
    for flag in ("--json", "--js"):
        assert main(argv + [flag]) == 2
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["checks"] == report["checks"] and doc["command"] == argv + [flag]
        assert err == ""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "input: ERROR" in out and message in out and err == ""


def test_help_still_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["mc-residual", "--help"]) == 0
    out = capsys.readouterr().out
    assert "usage: qlie" in out and "--shift" in out
