"""Batch verification front-end.

Every subcommand loads definitions from JSON files, runs the
corresponding library checks and emits a self-contained report with the
convention ledger and input hashes stamped in.  Exit codes: 0 when all
checks pass, 1 on any check failure, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

from . import formats
from .errors import InputError, QlieError
from .lie import LieAlgebra, SYM, WEDGE, check_lie, invariants, split_subalgebra
from .manin import (
    ManinTriple,
    QuadraticLieAlgebra,
    double_jacobi_report,
    drinfeld_double,
    dual_subalgebra_bplus_bminus,
    manin_triple_check,
    triple_to_bialgebra,
)
from .mc import mc_residual, mc_residual_is_zero, pol_bg
from .qlb import (
    QuasiLieBialgebra,
    Twist,
    casimir_to_phi,
    check_qlb,
    coisotropic_casimir_check,
    induce_from_coisotropic,
    twist,
    verify_coisotropic_morphism,
)
from .rmatrix import DynamicalRMatrix, RMatrix, dynamical_check, quasitriangular_check
from .tensors import LEDGER, Multivector
from .lie import sl2, sl3

Check = Dict[str, object]


def _check(name: str, ok: bool, detail: Optional[dict] = None) -> Check:
    rec: Check = {"name": name, "status": "pass" if ok else "fail"}
    if detail:
        rec["detail"] = detail
    return rec


def _load_algebra(path: str, inputs: Dict[str, str]) -> LieAlgebra:
    return formats.lie_from_dict(formats.read_json(path, inputs))


def _load_tensor(path: str, g: LieAlgebra, expect: str, inputs: Dict[str, str]):
    return formats.tensor_from_dict(formats.read_json(path, inputs), g, expect)


def _split_from_labels(g: LieAlgebra, labels_csv: str):
    labels = [s for s in labels_csv.split(",") if s]
    idx = tuple(g.index(lab) for lab in labels)
    return split_subalgebra(g, idx)


def _residual_checks(q: QuasiLieBialgebra, prefix: str = "") -> List[Check]:
    res = check_qlb(q)
    out = []
    for name, coch in (
        ("cocycle", res.cocycle),
        ("cojacobi", res.cojacobi),
        ("compat", res.compat),
    ):
        detail = None
        if not coch.is_zero():
            detail = {"residual": formats.cochain_to_entries(coch)}
        out.append(_check(prefix + name, coch.is_zero(), detail))
    return out


def _qlb_data(q: QuasiLieBialgebra) -> dict:
    return {
        "basis": list(q.g.basis),
        "delta": formats.cochain_to_entries(q.delta),
        "phi": formats.multivector_to_entries(q.phi, q.g),
    }


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def cmd_check_lie(args, inputs):
    g = _load_algebra(args.file, inputs)
    rep = check_lie(g)
    detail = None
    if not rep.passed:
        detail = {
            "failure": rep.failure_kind,
            "witness": list(rep.witness or ()),
            "residual": rep.residual,
        }
    return [_check("lie-axioms", rep.passed, detail)], {"dim": g.dim, "name": g.name}


def cmd_check_qlb(args, inputs):
    g = _load_algebra(args.file, inputs)
    delta = _load_tensor(args.delta, g, "cobracket", inputs)
    phi = _load_tensor(args.phi, g, "wedge3", inputs)
    q = QuasiLieBialgebra(g, delta, phi)
    return _residual_checks(q), _qlb_data(q)


def cmd_twist(args, inputs):
    g = _load_algebra(args.file, inputs)
    delta = _load_tensor(args.delta, g, "cobracket", inputs)
    phi = _load_tensor(args.phi, g, "wedge3", inputs)
    lam = _load_tensor(args.lam, g, "wedge2", inputs)
    q = twist(QuasiLieBialgebra(g, delta, phi), Twist(lam))
    return _residual_checks(q, prefix="twisted-"), _qlb_data(q)


def cmd_casimir_phi(args, inputs):
    g = _load_algebra(args.file, inputs)
    c = _load_tensor(args.casimir, g, "sym2", inputs)
    phi = casimir_to_phi(g, c)
    from .lie import CECochain

    q = QuasiLieBialgebra(g, CECochain(g, 1, WEDGE(2), {}), phi)
    checks = _residual_checks(q)
    return checks, {"phi": formats.multivector_to_entries(phi, g)}


def cmd_induce(args, inputs):
    g = _load_algebra(args.file, inputs)
    c = _load_tensor(args.casimir, g, "sym2", inputs)
    split = _split_from_labels(g, args.sub)
    ok = coisotropic_casimir_check(split, c)
    checks = [_check("coisotropic", ok)]
    data = {}
    if ok:
        q = induce_from_coisotropic(split, c)
        checks.extend(_residual_checks(q, prefix="induced-"))
        data = _qlb_data(q)
    return checks, data


def cmd_verify_morphism(args, inputs):
    g = _load_algebra(args.file, inputs)
    c = _load_tensor(args.casimir, g, "sym2", inputs)
    split = _split_from_labels(g, args.sub)
    rep = verify_coisotropic_morphism(split, c)
    checks = [
        _check(name, ok) for name, ok in sorted(rep.invariance_identities.items())
    ]
    checks.append(_check("identities-equal-invariance", rep.identities_equal_invariance))
    for gen, ok in sorted(rep.intertwines.items()):
        checks.append(_check(f"intertwines-{gen}", ok))
    return checks, {}


def cmd_cybe(args, inputs):
    g = _load_algebra(args.file, inputs)
    r = RMatrix(_load_tensor(args.r, g, "gg", inputs))
    rep = quasitriangular_check(g, r)
    checks = [
        _check(
            "cybe",
            rep.cybe_holds,
            None if rep.cybe_holds else {"residual": formats.tensor_to_entries(rep.cybe_residual, g)},
        ),
        _check("symmetric-part-invariant", rep.split.symmetric_part_invariant),
    ]
    data = {
        "lambda": formats.multivector_to_entries(rep.split.lam, g),
        "c": formats.tensor_to_entries(rep.split.c, g),
    }
    if rep.lambda_form_holds is not None:
        checks.append(_check("lambda-form", bool(rep.lambda_form_holds)))
        checks.append(_check("criteria-agree", bool(rep.criteria_agree)))
    return checks, data


def cmd_dynamical(args, inputs):
    g = _load_algebra(args.file, inputs)
    split = _split_from_labels(g, args.sub)
    variables = tuple(s for s in args.vars.split(",") if s)
    doc = formats.read_json(args.r, inputs)
    doc.setdefault("vars", list(variables))
    if tuple(doc["vars"]) != variables:
        raise InputError("--vars disagrees with the tensor file header")
    tensor = formats.tensor_from_dict(doc, g, "gg")
    locus = formats.polynomials_from_strings(doc.get("locus", []), variables)
    dr = DynamicalRMatrix(split, variables, tensor, locus)
    rep = dynamical_check(dr)
    checks = [
        _check(f"equivariance-{name}", ok) for name, ok in sorted(rep.equivariance.items())
    ]
    checks.append(_check("symmetric-part-constant", rep.symmetric_part_constant))
    checks.append(_check("symmetric-part-invariant", rep.symmetric_part_invariant))
    checks.append(
        _check(
            "cdybe",
            rep.cdybe_holds,
            None
            if rep.cdybe_holds
            else {"residual": formats.tensor_to_entries(rep.cdybe_residual, g)},
        )
    )
    if rep.lambda_form_holds is not None:
        checks.append(_check("lambda-form", bool(rep.lambda_form_holds)))
        checks.append(_check("criteria-agree", bool(rep.criteria_agree)))
    return checks, {}


def cmd_double(args, inputs):
    g = _load_algebra(args.file, inputs)
    delta = _load_tensor(args.delta, g, "cobracket", inputs)
    b = QuasiLieBialgebra(g, delta, Multivector.zero(g.dim, 3))
    t = drinfeld_double(b)
    jac = double_jacobi_report(t)
    trip = manin_triple_check(t)
    round_trip = triple_to_bialgebra(t) == b if trip.passed and jac.passed else False
    checks = [
        _check(
            "double-jacobi",
            jac.passed,
            None
            if jac.passed
            else {"witness": list(jac.witness or ()), "residual": jac.residual},
        ),
        _check("pairing-invariant", trip.quadratic.passed),
        _check("triple-invariants", trip.passed),
    ]
    if jac.passed and trip.passed:
        checks.append(_check("round-trip", round_trip))
    return checks, {"triple": formats.triple_to_dict(t)}


def cmd_triple_check(args, inputs):
    d = _load_algebra(args.file, inputs)
    pairing = formats.matrix_from_dict(formats.read_json(args.pairing, inputs), d.dim)
    g_idx = tuple(d.index(lab) for lab in args.g.split(",") if lab)
    s_idx = tuple(d.index(lab) for lab in args.gstar.split(",") if lab)
    t = ManinTriple(QuadraticLieAlgebra(d, pairing), g_idx, s_idx)
    rep = manin_triple_check(t)
    checks = [
        _check("quadratic", rep.quadratic.passed, None if rep.quadratic.passed else {"witness": list(rep.quadratic.witness or ())}),
        _check("g-lagrangian", rep.g_pair.passed),
        _check("gstar-lagrangian", rep.gstar_pair.passed),
        _check("complementary", rep.complementary),
    ]
    return checks, {}


def cmd_std_triple(args, inputs):
    if args.algebra == "sl2":
        g = sl2()
    elif args.algebra == "sl3":
        g = sl3()
    else:
        raise InputError(f"unsupported algebra {args.algebra!r} for the standard triple")
    t = dual_subalgebra_bplus_bminus(g)
    rep = manin_triple_check(t)
    b = triple_to_bialgebra(t)
    checks = [
        _check("quadratic", rep.quadratic.passed),
        _check("g-lagrangian", rep.g_pair.passed),
        _check("gstar-lagrangian", rep.gstar_pair.passed),
        _check("complementary", rep.complementary),
    ]
    checks.extend(_residual_checks(b, prefix="bialgebra-"))
    return checks, {"triple": formats.triple_to_dict(t), "bialgebra": _qlb_data(b)}


def cmd_invariants(args, inputs):
    g = _load_algebra(args.file, inputs)
    module = SYM(2) if args.module == "sym2" else WEDGE(3)
    basis = invariants(g, module)
    data = {
        "dimension": len(basis),
        "basis": [formats.cochain_to_entries(x) for x in basis],
    }
    return [_check("invariants-computed", True)], data


def cmd_mc_residual(args, inputs):
    g = _load_algebra(args.file, inputs)
    L, codec = pol_bg(g, args.shift)
    if args.shift == 1:
        if not (args.delta and args.phi):
            raise InputError("shift 1 requires --delta and --phi")
        delta = _load_tensor(args.delta, g, "cobracket", inputs)
        phi = _load_tensor(args.phi, g, "wedge3", inputs)
        x = codec.encode_structure(delta, phi)
    else:
        if not args.casimir:
            raise InputError("shift 2 requires --casimir")
        c = _load_tensor(args.casimir, g, "sym2", inputs)
        x = codec.encode_casimir(c)
    res = mc_residual(L, x)
    ok = mc_residual_is_zero(res)
    detail = None
    if not ok:
        decoded = codec.decode_residual(res)
        detail = {
            f"weight-{w}": formats.cochain_to_entries(coch) for w, coch in sorted(decoded.items())
        }
    return [_check("maurer-cartan", ok, detail)], {"dgla": L.name}


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlie",
        description="Exact verification of quasi-Lie bialgebra, r-matrix and Manin-triple identities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the structured JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *specs):
        p = sub.add_parser(name, parents=[common])
        for spec in specs:
            flags, kwargs = spec
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=handler)
        return p

    add("check-lie", cmd_check_lie, (("file",), {}))
    add(
        "check-qlb",
        cmd_check_qlb,
        (("file",), {}),
        (("--delta",), {"required": True}),
        (("--phi",), {"required": True}),
    )
    add(
        "twist",
        cmd_twist,
        (("file",), {}),
        (("--delta",), {"required": True}),
        (("--phi",), {"required": True}),
        (("--lambda",), {"required": True, "dest": "lam"}),
    )
    add(
        "casimir-phi",
        cmd_casimir_phi,
        (("file",), {}),
        (("--casimir",), {"required": True}),
    )
    add(
        "induce",
        cmd_induce,
        (("file",), {}),
        (("--sub",), {"required": True}),
        (("--casimir",), {"required": True}),
    )
    add(
        "verify-morphism",
        cmd_verify_morphism,
        (("file",), {}),
        (("--sub",), {"required": True}),
        (("--casimir",), {"required": True}),
    )
    add("cybe", cmd_cybe, (("file",), {}), (("--r",), {"required": True}))
    add(
        "dynamical",
        cmd_dynamical,
        (("file",), {}),
        (("--sub",), {"required": True}),
        (("--r",), {"required": True}),
        (("--vars",), {"required": True}),
    )
    add("double", cmd_double, (("file",), {}), (("--delta",), {"required": True}))
    add(
        "triple-check",
        cmd_triple_check,
        (("file",), {}),
        (("--g",), {"required": True}),
        (("--gstar",), {"required": True}),
        (("--pairing",), {"required": True}),
    )
    add("std-triple", cmd_std_triple, (("--algebra",), {"required": True, "choices": ["sl2", "sl3"]}))
    add(
        "invariants",
        cmd_invariants,
        (("file",), {}),
        (("--module",), {"required": True, "choices": ["sym2", "wedge3"]}),
    )
    add(
        "mc-residual",
        cmd_mc_residual,
        (("file",), {}),
        (("--shift",), {"required": True, "type": int, "choices": [1, 2]}),
        (("--delta",), {}),
        (("--phi",), {}),
        (("--casimir",), {}),
    )
    return parser


def render_text(report: dict) -> str:
    lines = [f"qlie {' '.join(report['command'])}"]
    for path, digest in sorted(report["inputs"].items()):
        lines.append(f"input {path} sha256:{digest[:16]}")
    for check in report["checks"]:
        lines.append(f"{check['name']}: {check['status'].upper()}")
        detail = check.get("detail")
        if detail:
            lines.append(f"  detail: {json.dumps(detail, sort_keys=True)}")
    if report.get("data"):
        lines.append("data: " + json.dumps(report["data"], sort_keys=True))
    lines.append("ledger: " + json.dumps(report["ledger"], sort_keys=True))
    lines.append(f"elapsed: {report['timing_ms']:.1f} ms")
    return "\n".join(lines)


def run(argv: Optional[List[str]] = None) -> Tuple[dict, int]:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    inputs: Dict[str, str] = {}
    report = {
        "command": argv,
        "ledger": LEDGER.to_dict(),
        "inputs": inputs,
        "checks": [],
        "data": {},
    }
    try:
        checks, data = args.handler(args, inputs)
        report["checks"] = checks
        report["data"] = data
        code = 0 if all(c["status"] == "pass" for c in checks) else 1
    except InputError as exc:
        report["checks"] = [{"name": "input", "status": "error", "detail": {"message": str(exc)}}]
        code = 2
    except QlieError as exc:
        report["checks"] = [{"name": "internal", "status": "error", "detail": {"message": str(exc)}}]
        code = 2
    report["timing_ms"] = (time.perf_counter() - t0) * 1000.0
    return report, code


def main(argv: Optional[List[str]] = None) -> int:
    try:
        report, code = run(argv)
    except SystemExit as exc:  # argparse errors
        return 2 if exc.code not in (0, None) else 0
    args_json = "--json" in (sys.argv[1:] if argv is None else argv)
    if args_json:
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
    else:
        print(render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
