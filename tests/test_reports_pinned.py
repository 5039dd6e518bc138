"""CLI reports pinned byte for byte across changes to the library.

Each case runs one command on fixture inputs and compares its exit code
and its JSON report, without `timing_ms`, to a file in
tests/fixtures/reports/.  Fixture paths are written relative to the
fixture directory, so the files do not depend on where the repository
lives.  A report too large to keep (DIGEST_PINS) is pinned by the sha256
of its text.  The files were generated by

    PYTHONPATH=src python tests/test_reports_pinned.py --write

at a commit whose reports were known good.  It writes only the files
that are missing, so adding a case never rewrites an existing pin; to
re-pin a case on purpose, delete its file first and run it again, and
only when the change of the report is intended and listed in CHANGES.md.

    PYTHONPATH=src python tests/test_reports_pinned.py --check

compares every pin without pytest, for interpreters that have none, and
exits 1 if any differs.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

from qlie.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
REPORTS = FIXTURES / "reports"

SL2 = ("sl2.json",)
SL3 = ("sl3.json",)
KILLING = ("--casimir", "killing_sl2.json")
ABELIAN4_HALVES = ("triple-check", "abelian4.json", "--g", "x1,x2", "--gstar", "x3,x4")

# name -> argv, with every file named relative to the fixture directory
CASES = {
    "cybe-standard-r-sl2": ("cybe", *SL2, "--r", "standard_r_sl2.json"),
    "cybe-r-ef-only": ("cybe", *SL2, "--r", "r_ef_only.json"),
    # symmetric part invariant, CYBE fails: lambda-form fails, criteria-agree passes
    "cybe-doubled-antisym-sl2": ("cybe", *SL2, "--r", "r_doubled_antisym_sl2.json"),
    "dynamical-r-sl2": ("dynamical", *SL2, "--sub", "h", "--r", "dynamical_r_sl2.json", "--vars", "x"),
    # a symmetric part that varies with x: no lambda-form checks
    "dynamical-nonconstant-sym-sl2": (
        "dynamical", *SL2, "--sub", "h", "--r", "dynamical_r_nonconstant_sym.json", "--vars", "x"
    ),
    # the factor x^2+2x+1 is not split, so x+1 does not cancel: the residual's
    # denominator form depends on the reduction path
    "dynamical-noncoprime-sl2": (
        "dynamical", *SL2, "--sub", "h", "--r", "dynamical_r_noncoprime_sl2.json", "--vars", "x"
    ),
    # 1/(3x) has a non-integral numerator among integral ones
    "dynamical-third-sl2": (
        "dynamical", *SL2, "--sub", "h", "--r", "dynamical_r_third_sl2.json", "--vars", "x"
    ),
    "dynamical-ev-sl3-scaled": (
        "dynamical", *SL3, "--sub", "h1,h2", "--r", "ev_r_sl3_scaled.json", "--vars", "x1,x2"
    ),
    "dynamical-ev-sl4": (
        "dynamical", "sl4.json", "--sub", "h1,h2,h3", "--r", "ev_r_sl4.json", "--vars", "x1,x2,x3"
    ),
    # entries over x-1 and its multiple x^2-1: the factors are not coprime, so
    # the printed residual depends on the order of every product (c1 * c2
    # reduces differently from c2 * c1)
    "dynamical-factor-multiple-sl2": (
        "dynamical", *SL2, "--sub", "h", "--r", "dynamical_r_factor_multiple_sl2.json", "--vars", "x"
    ),
    "casimir-phi-killing-sl2": ("casimir-phi", *SL2, *KILLING),
    # c not invariant: exit 2 with the invariance message
    "casimir-phi-noninvariant-sl2": ("casimir-phi", *SL2, "--casimir", "sym2_noninvariant_sl2.json"),
    "induce-killing-sl2": ("induce", *SL2, "--sub", "e,h", *KILLING),
    "verify-morphism-killing-sl2": ("verify-morphism", *SL2, "--sub", "e,h", *KILLING),
    # c not invariant: exit 1, casimirinv2 and casimirinv3 fail, three intertwines checks fail
    "verify-morphism-noninvariant-sl2": (
        "verify-morphism", *SL2, "--sub", "e,h", "--casimir", "sym2_noninvariant_sl2.json"
    ),
    "mc-residual-shift2-killing-sl2": ("mc-residual", *SL2, "--shift", "2", *KILLING),
    "mc-residual-shift2-noninvariant-sl2": (
        "mc-residual", *SL2, "--shift", "2", "--casimir", "sym2_noninvariant_sl2.json"
    ),
    "invariants-sym2-sl3": ("invariants", *SL3, "--module", "sym2"),
    # sl2 on e/2, f, h: structure constants with denominator 2
    "invariants-sym2-sl2-half-e": ("invariants", "sl2_half_e.json", "--module", "sym2"),
    # lie.sl(3) and lie.sl(4) rebased by a seeded unimodular T (tests/test_change_of_basis.py):
    # no basis element acts diagonally, so d is taken on the whole slice
    "invariants-wedge3-sl3-unimodular": ("invariants", "sl3_unimodular.json", "--module", "wedge3"),
    "invariants-sym2-sl4-unimodular": ("invariants", "sl4_unimodular.json", "--module", "sym2"),
    "check-qlb-phi-efh-sl2": ("check-qlb", *SL2, "--delta", "delta_std_sl2.json", "--phi", "phi_efh.json"),
    "check-qlb-bad-delta-sl2": ("check-qlb", *SL2, "--delta", "delta_bad_sl2.json", "--phi", "phi_zero.json"),
    "twist-lambda-ef-sl2": (
        "twist", *SL2, "--delta", "delta_std_sl2.json", "--phi", "phi_zero.json", "--lambda", "lambda_ef.json"
    ),
    # the input fails the axioms: exit 2 with the precondition message
    "twist-bad-delta-sl2": (
        "twist", *SL2, "--delta", "delta_bad_sl2.json", "--phi", "phi_zero.json", "--lambda", "lambda_ef.json"
    ),
    "mc-residual-shift1-phi-efh-sl2": (
        "mc-residual", *SL2, "--shift", "1", "--delta", "delta_std_sl2.json", "--phi", "phi_efh.json"
    ),
    "double-std-sl2": ("double", *SL2, "--delta", "delta_std_sl2.json"),
    # exit 1: the Jacobi witness and residual of the failing checks
    "check-lie-sl2-mutated": ("check-lie", "sl2_mutated.json"),
    "double-bad-delta-sl2": ("double", *SL2, "--delta", "delta_bad_sl2.json"),
    "std-triple-sl3": ("std-triple", "--algebra", "sl3"),
    # refused by the pair bound until it counted pairs that can contract
    "std-triple-sl9": ("std-triple", "--algebra", "sl9"),
    # the standard cobracket twisted by a lambda with all 28 entries nonzero
    "twist-lambda-dense-sl3": (
        "twist", *SL3, "--delta", "delta_std_sl3.json", "--phi", "phi_zero.json", "--lambda", "lambda_dense_sl3.json"
    ),
    # all 56 phi entries nonzero: exit 1, cojacobi and compat fail
    "check-qlb-phi-dense-sl3": ("check-qlb", *SL3, "--delta", "delta_std_sl3.json", "--phi", "phi_dense_sl3.json"),
    "triple-check-hyperbolic-abelian4": (*ABELIAN4_HALVES, "--pairing", "pairing_hyperbolic_abelian4.json"),
    # invariant, but no coordinate plane is isotropic: exit 1, both Lagrangian
    # checks fail and name a basis vector that pairs with itself
    "triple-check-identity-abelian4": (*ABELIAN4_HALVES, "--pairing", "pairing_identity_abelian4.json"),
}
# the sl9 report has 61,414 lines, the dense sl3 twist 1,807 and check-qlb 4,250
DIGEST_PINS = {"std-triple-sl9", "twist-lambda-dense-sl3", "check-qlb-phi-dense-sl3"}


def _absolute(argv):
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]


def pinned_text(argv) -> str:
    """The exit code and the report without timing_ms of `qlie argv`, as
    sorted JSON with the fixture directory cut from every path."""
    report, code = run(_absolute(argv))
    report.pop("timing_ms")
    text = json.dumps({"exit": code, "report": report}, sort_keys=True, indent=1, default=str)
    return text.replace(json.dumps(str(FIXTURES) + os.sep)[1:-1], "") + "\n"


def pin(name: str) -> str:
    """What the pin file of a case holds: its pinned text, or the sha256 of it."""
    text = pinned_text(CASES[name])
    return f"sha256 {hashlib.sha256(text.encode()).hexdigest()}\n" if name in DIGEST_PINS else text


def pytest_generate_tests(metafunc):
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(CASES))


def test_report_is_pinned(name):
    expected = (REPORTS / f"{name}.json").read_text(encoding="utf-8")
    assert pin(name) == expected


def test_every_pinned_file_has_a_case():
    assert sorted(p.stem for p in REPORTS.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        differ = [n for n in sorted(CASES) if pin(n) != (REPORTS / f"{n}.json").read_text(encoding="utf-8")]
        for n in differ:
            print(f"differs: {n}")
        print(f"{len(CASES) - len(differ)} of {len(CASES)} pinned reports agree")
        sys.exit(1 if differ else 0)
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_reports_pinned.py --write | --check")
    REPORTS.mkdir(exist_ok=True)
    for name in sorted(CASES):
        path = REPORTS / f"{name}.json"
        if not path.exists():
            path.write_text(pin(name), encoding="utf-8")
            print(name)
