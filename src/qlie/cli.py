"""Batch verification front-end.

Every subcommand loads definitions from JSON files, runs the
corresponding library checks and emits a self-contained report with the
convention ledger and input hashes stamped in.  Exit codes: 0 when all
checks pass, 1 on any check failure, 2 on malformed input, 3 on an
internal error (never expected: the report names it, with no traceback).

The handlers are the one place that checks the preconditions of the
library maps: `twist` (the axioms), `casimir-phi` (invariance) and
`std-triple` (a Manin triple) refuse with exit 2, and `induce` and
`verify-morphism` end the report at a failing `coisotropic` (exit 1).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from typing import Dict, List, Optional, Tuple

from . import formats
from .errors import InputError
from .lie import LieAlgebra, sl, sl2, sl3, split_subalgebra
from .manin import (
    ManinTriple,
    ManinTripleReport,
    QuadraticLieAlgebra,
    drinfeld_double,
    dual_subalgebra_bplus_bminus,
    manin_triple_check,
    triple_to_bialgebra,
)
from .mc import mc_residual
from .polyvectors import PolyVectorAlgebra, _invariants, check_lie
from .qlb import (
    QuasiLieBialgebra,
    Twist,
    casimir_invariance_residual,
    casimir_to_phi,
    check_qlb,
    coisotropic_casimir_check,
    induce_from_coisotropic,
    mc_element,
    twist,
    verify_coisotropic_morphism,
)
from .rmatrix import DynamicalRMatrix, DynamicalReport, dynamical_check
from .scalars import scalar_text
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


def _label_indices(g: LieAlgebra, labels_csv: str, option: str) -> Tuple[int, ...]:
    """The basis indices of a comma-separated label list; empty items are
    skipped, and a repeated label is malformed input."""
    labels = [s for s in labels_csv.split(",") if s]
    for lab in labels:
        if labels.count(lab) > 1:
            raise InputError(f"{option} repeats the label {lab!r}")
    return tuple(g.index(lab) for lab in labels)


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


def _witness(g: LieAlgebra, idx, coef) -> dict:
    """The detail of a failing check: the basis labels of a key and the coefficient there."""
    return {"witness": [g.basis[i] for i in idx], "residual": scalar_text(coef)}


def _vanishing_check(name: str, x: CECochain) -> Check:
    """The check that x is zero, naming its least key when it fails."""
    if x.is_zero():
        return _check(name, True)
    down, up = key = min(x.data)
    return _check(name, False, _witness(x.g, down + up, x.data[key]))


def _r_matrix_checks(rep: DynamicalReport, name: str) -> Tuple[Check, List[Check]]:
    """The CYBE or CDYBE check, called name and carrying its residual when
    it fails, and the lambda-form checks, each present when it was run: a
    failing criteria-agree names the least key of cdybe_residual -
    kappa_cybe embed(lambda_form_residual)."""
    holds = rep.cdybe_holds
    residual = _check(name, holds, None if holds else {"residual": formats.cochain_to_entries(rep.cdybe_residual)})
    tail = []
    if rep.lambda_form_holds is not None:
        tail.append(_vanishing_check("lambda-form", rep.lambda_form_residual))
    if rep.criteria_agree is not None:
        tail.append(_vanishing_check("criteria-agree", rep.criteria_defect))
    return residual, tail


def _symmetric_part_checks(rep: DynamicalReport, g: LieAlgebra) -> Tuple[Check, Check]:
    """symmetric-part-constant and symmetric-part-invariant.  A symmetric
    part that is not constant is not invariant either, and both checks name
    its least pair that varies."""
    if rep.nonconstant is None:
        invariant = _vanishing_check("symmetric-part-invariant", rep.invariance_residual)
        return _check("symmetric-part-constant", True), invariant
    detail = _witness(g, *rep.nonconstant)
    return _check("symmetric-part-constant", False, detail), _check("symmetric-part-invariant", False, detail)


def _manin_checks(t: ManinTriple, rep: ManinTripleReport) -> List[Check]:
    """The four Manin-triple conditions.  A failure names what fails: the
    witness of a residual or a subspace, and the rank of a degenerate
    pairing or the dimension of a subspace that is not half of d."""
    dim = t.quad.lie.dim
    quad = rep.quadratic
    detail = {"witness": list(quad.witness)} if quad.witness else {}
    if not quad.nondegenerate:
        detail.update(rank=quad.rank, dim=dim)
    checks = [_check("quadratic", quad.passed, detail)]
    for name, pair, indices in (("g", rep.g_pair, t.g_indices), ("gstar", rep.gstar_pair, t.gstar_indices)):
        detail = {"witness": list(pair.witness)} if pair.witness else {}
        if not pair.half_dimensional:
            detail.update(subspace_dim=len(indices), dim=dim)
        checks.append(_check(f"{name}-lagrangian", pair.passed, detail))
    return checks + [_check("complementary", rep.complementary)]


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
    q = QuasiLieBialgebra(g, delta, phi)
    res = check_qlb(q)
    if not res.passed:
        raise InputError(
            "twist input fails the quasi-Lie bialgebra axioms: "
            + ", ".join(k for k, v in res.max_support().items() if v)
        )
    q = twist(q, Twist(lam))
    return _residual_checks(q, prefix="twisted-"), _qlb_data(q)


def cmd_casimir_phi(args, inputs):
    g = _load_algebra(args.file, inputs)
    c = _load_tensor(args.casimir, g, "sym2", inputs)
    residual = casimir_invariance_residual(g, c)
    if not residual.is_zero():
        first = tuple(tuple(g.basis[i] for i in part) for part in min(residual.data))
        raise InputError(
            f"Casimir element is not invariant; residual has {residual.support_size()} "
            f"nonzero components, first: {first}"
        )
    phi = casimir_to_phi(g, c)
    q = QuasiLieBialgebra(g, CECochain(g, 1, WEDGE(2), {}), phi)
    checks = _residual_checks(q)
    return checks, {"phi": formats.cochain_to_entries(phi)}


def cmd_induce(args, inputs):
    g = _load_algebra(args.file, inputs)
    c = _load_tensor(args.casimir, g, "sym2", inputs)
    split = split_subalgebra(g, _label_indices(g, args.sub, "--sub"))
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
    split = split_subalgebra(g, _label_indices(g, args.sub, "--sub"))
    # the morphism is the induction's, so as in `induce` a c that is not
    # coisotropic for h ends the report there
    if not coisotropic_casimir_check(split, c):
        return [_check("coisotropic", False)], {}
    rep = verify_coisotropic_morphism(split, c)
    checks = [_check("coisotropic", True)]
    checks.extend(_check(name, ok) for name, ok in sorted(rep.invariance_identities.items()))
    for gen, ok in sorted(rep.intertwines.items()):
        checks.append(_check(f"intertwines-{gen}", ok))
    return checks, {}


def cmd_cybe(args, inputs):
    g = _load_algebra(args.file, inputs)
    # a constant r is the dynamical r-matrix over h = 0
    r = DynamicalRMatrix(split_subalgebra(g, ()), (), _load_tensor(args.r, g, "gg", inputs))
    rep = dynamical_check(r)
    residual, tail = _r_matrix_checks(rep, "cybe")
    # the entries of a constant r are constant: only the invariance is checked
    _, invariant = _symmetric_part_checks(rep, g)
    checks = [residual, invariant, *tail]
    data = {"lambda": formats.cochain_to_entries(rep.lam), "c": formats.cochain_to_entries(rep.c)}
    return checks, data


def cmd_dynamical(args, inputs):
    g = _load_algebra(args.file, inputs)
    split = split_subalgebra(g, _label_indices(g, args.sub, "--sub"))
    variables = formats.variable_names([s for s in args.vars.split(",") if s], "--vars")
    doc = formats.read_json(args.r, inputs)
    doc.setdefault("vars", list(variables))
    if formats.variable_names(doc["vars"], "a tensor's 'vars'") != variables:
        raise InputError("--vars disagrees with the tensor file header")
    tensor = formats.tensor_from_dict(doc, g, "gg")
    locus = formats.polynomials_from_strings(doc.get("locus", []), variables)
    dr = DynamicalRMatrix(split, variables, tensor, locus)
    rep = dynamical_check(dr)
    residual, tail = _r_matrix_checks(rep, "cdybe")
    checks = [
        *(_vanishing_check(f"equivariance-{name}", t) for name, t in sorted(rep.equivariance_defects.items())),
        *_symmetric_part_checks(rep, g),
        residual,
        *tail,
    ]
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
    g_idx = _label_indices(d, args.g, "--g")
    s_idx = _label_indices(d, args.gstar, "--gstar")
    t = ManinTriple(QuadraticLieAlgebra(d, pairing), g_idx, s_idx)
    return _manin_checks(t, manin_triple_check(t)), {}


# sl2 and sl3 keep their hand-written bases; sl4..sl9 are lie.sl(n)
STD_TRIPLE_ALGEBRAS = {"sl2": sl2, "sl3": sl3, **{f"sl{n}": partial(sl, n) for n in range(4, 10)}}


def cmd_std_triple(args, inputs):
    t = dual_subalgebra_bplus_bminus(STD_TRIPLE_ALGEBRAS[args.algebra]())
    rep = manin_triple_check(t)
    if not rep.passed:
        raise InputError("input is not a Manin triple")
    b = triple_to_bialgebra(t)
    checks = _manin_checks(t, rep) + _residual_checks(b, prefix="bialgebra-")
    return checks, {"triple": formats.triple_to_dict(t), "bialgebra": _qlb_data(b)}


def cmd_invariants(args, inputs):
    g = _load_algebra(args.file, inputs)
    module, shift = (SYM(2), 2) if args.module == "sym2" else (WEDGE(3), 1)
    # the kernel is taken on the weight-0 block of the module (see
    # polyvectors), so that block is what the bound counts
    P = PolyVectorAlgebra(g, shift)
    keys = P.weight_zero_basis(0, module[1])
    if len(keys) > formats.MAX_MODULE_DIM:
        raise InputError(
            f"the weight-0 block of {args.module} has dimension {len(keys)}, over the limit of {formats.MAX_MODULE_DIM}"
        )
    basis = _invariants(P, module, keys)
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
