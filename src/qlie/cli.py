"""Batch verification front-end.

Every subcommand loads definitions from JSON files, runs the
corresponding library checks and emits a self-contained report with the
convention ledger and input hashes stamped in.  Exit codes: 0 when all
checks pass, 1 on any check failure, 2 on malformed input, 3 on an
internal error (never expected: the report names it, with no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from typing import Dict, List, Optional, Tuple

from . import formats
from .errors import InputError, PreconditionError
from .lie import LieAlgebra, check_lie, sl, sl2, sl3, split_subalgebra
from .manin import (
    ManinTriple,
    QuadraticLieAlgebra,
    drinfeld_double,
    dual_subalgebra_bplus_bminus,
    manin_triple_check,
    triple_to_bialgebra_unchecked,
)
from .mc import mc_residual
from .polyvectors import PolyVectorAlgebra, invariants
from .qlb import (
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
from .rmatrix import DynamicalRMatrix, RMatrix, dynamical_check, quasitriangular_check
from .tensors import LEDGER, CECochain, SYM, WEDGE

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
        "phi": formats.cochain_to_entries(q.phi),
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
    q = QuasiLieBialgebra(g, CECochain(g, 1, WEDGE(2), {}), phi)
    checks = _residual_checks(q)
    return checks, {"phi": formats.cochain_to_entries(phi)}


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
        "lambda": formats.cochain_to_entries(rep.split.lam),
        "c": formats.cochain_to_entries(rep.split.c),
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
    if formats.variable_names(doc["vars"], "a tensor's 'vars'") != variables:
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
    b = QuasiLieBialgebra(g, delta, CECochain(g, 0, WEDGE(3)))
    t = drinfeld_double(b)
    constants = sum(len(comps) for _, comps in t.quad.lie.pairs())
    if constants > formats.MAX_DOUBLE_CONSTANTS:
        raise InputError(
            f"the double has {constants} nonzero structure constants, "
            f"over the limit of {formats.MAX_DOUBLE_CONSTANTS}"
        )
    jac = check_lie(t.quad.lie)
    trip = manin_triple_check(t)
    round_trip = triple_to_bialgebra_unchecked(t) == b if trip.passed and jac.passed else False
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


# sl2 and sl3 keep their hand-written bases; sl4..sl9 are lie.sl(n)
STD_TRIPLE_ALGEBRAS = {"sl2": sl2, "sl3": sl3, **{f"sl{n}": partial(sl, n) for n in range(4, 10)}}


def cmd_std_triple(args, inputs):
    t = dual_subalgebra_bplus_bminus(STD_TRIPLE_ALGEBRAS[args.algebra]())
    rep = manin_triple_check(t)
    if not rep.passed:
        raise PreconditionError("input is not a Manin triple")
    b = triple_to_bialgebra_unchecked(t)
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
    module, shift = (SYM(2), 2) if args.module == "sym2" else (WEDGE(3), 1)
    # the kernel is taken on the weight-0 block of the module (see
    # polyvectors), so that block is what the bound counts
    size = len(PolyVectorAlgebra(g, shift).weight_zero_basis(0, module[1]))
    if size > formats.MAX_MODULE_DIM:
        raise InputError(
            f"the weight-0 block of {args.module} has dimension {size}, over the limit of {formats.MAX_MODULE_DIM}"
        )
    basis = invariants(g, module)
    data = {
        "dimension": len(basis),
        "basis": [formats.cochain_to_entries(x) for x in basis],
    }
    return [_check("invariants-computed", True)], data


def cmd_mc_residual(args, inputs):
    g = _load_algebra(args.file, inputs)
    P = PolyVectorAlgebra(g, args.shift)
    if args.shift == 1:
        if not (args.delta and args.phi):
            raise InputError("shift 1 requires --delta and --phi")
        delta = _load_tensor(args.delta, g, "cobracket", inputs)
        phi = _load_tensor(args.phi, g, "wedge3", inputs)
        x = mc_element(P, delta, phi)
    else:
        if not args.casimir:
            raise InputError("shift 2 requires --casimir")
        x = P.from_cochain(_load_tensor(args.casimir, g, "sym2", inputs))
    res = mc_residual(P, x)
    detail = {f"weight-{w}": formats.cochain_to_entries(coch) for w, coch in res.items()}
    return [_check("maurer-cartan", not res, detail)], {"dgla": f"Pol(B{g.name}, {args.shift})[>=2]"}


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _argument_error(parser: argparse.ArgumentParser, message: str):
    """argparse's error hook.  An argument error is malformed input: it
    raises InputError, so it gets the input report and exit 2 instead of
    argparse's usage exit."""
    raise InputError(f"{parser.prog}: {message}")


class _Parser(argparse.ArgumentParser):
    error = _argument_error


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    add("std-triple", cmd_std_triple, (("--algebra",), {"required": True, "choices": list(STD_TRIPLE_ALGEBRAS)}))
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
    _, report, code = _execute(argv)
    return report, code


def _execute(argv: List[str]) -> Tuple[Optional[argparse.Namespace], dict, int]:
    """Parse argv and run its handler: (the parsed arguments, or None if
    argv does not parse; the report; the exit code)."""
    t0 = time.perf_counter()
    inputs: Dict[str, str] = {}
    report = {
        "command": argv,
        "ledger": LEDGER.to_dict(),
        "inputs": inputs,
        "checks": [],
        "data": {},
    }
    args = None
    try:
        args = build_parser().parse_args(argv)
        checks, data = args.handler(args, inputs)
        report["checks"] = checks
        report["data"] = data
        code = 0 if all(c["status"] == "pass" for c in checks) else 1
    except InputError as exc:
        report["checks"] = [{"name": "input", "status": "error", "detail": {"message": str(exc)}}]
        code = 2
    except Exception as exc:  # a fault of qlie, never of the input: no traceback
        message = f"{type(exc).__name__}: {exc}"
        report["checks"] = [{"name": "internal", "status": "error", "detail": {"message": message}}]
        code = 3
    report["timing_ms"] = (time.perf_counter() - t0) * 1000.0
    return args, report, code


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args, report, code = _execute(argv)
    except SystemExit as exc:  # --help
        return exc.code or 0
    # argv that does not parse still asks for JSON with --json or a prefix of it
    if args.json if args else any(len(a) > 2 and "--json".startswith(a) for a in argv):
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
    else:
        print(render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
