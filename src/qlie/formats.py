"""JSON file formats: Lie algebras, tensor literals, triples, dg Lie data.

Coefficients are decimal-free strings parsed as exact rationals, or as
rational-function expressions in the declared variables.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError
from .lie import CECochain, LieAlgebra, WEDGE, sym2_signature
from .manin import ManinTriple
from .mc import WeightGradedDGLA
from .scalars import Polynomial, RationalFunction, parse_scalar
from .tensors import Multivector, SparseTensor, plain_signature

TENSOR_SIGNATURES = ("wedge2", "wedge3", "sym2", "cobracket", "gg")


def read_json(path: str, inputs: Dict[str, str]) -> dict:
    """Read an input file once: record the sha256 of its bytes in
    inputs[path], then parse the same bytes as UTF-8 JSON."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read JSON file {path}: {exc}") from None
    inputs[path] = hashlib.sha256(data).hexdigest()
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

def field_variables(doc: dict) -> Tuple[str, ...]:
    field = doc.get("field", {"type": "rational"})
    ftype = field.get("type")
    if ftype == "rational":
        return ()
    if ftype == "ratfun":
        variables = tuple(field.get("vars", ()))
        if not variables:
            raise InputError("ratfun field requires a nonempty variable list")
        return variables
    raise InputError(f"unknown field type {ftype!r}")


def lie_from_dict(doc: dict) -> LieAlgebra:
    for key in ("name", "basis"):
        if key not in doc:
            raise InputError(f"Lie algebra file is missing the {key!r} entry")
    basis = list(doc["basis"])
    variables = field_variables(doc)
    index = {label: i for i, label in enumerate(basis)}
    brackets = {}
    for item in doc.get("brackets", []):
        if len(item) != 3:
            raise InputError("bracket entries are [x, y, [[z, coef], ...]]")
        x, y, comps = item
        if x not in index or y not in index:
            raise InputError(f"bracket uses unknown basis labels {x!r}, {y!r}")
        i, j = index[x], index[y]
        if i >= j:
            raise InputError(f"bracket [{x}, {y}] must list x before y in basis order")
        row = {}
        for z, coef in comps:
            if z not in index:
                raise InputError(f"bracket component uses unknown label {z!r}")
            row[index[z]] = parse_scalar(str(coef), variables)
        if row:
            brackets[(i, j)] = row
    g = LieAlgebra(doc["name"], basis, brackets)
    if variables:
        g.extra["variables"] = variables
    return g


def lie_to_dict(g: LieAlgebra) -> dict:
    brackets = []
    field = {"type": "rational"}
    for (i, j), comps in sorted(g.pairs()):
        brackets.append(
            [g.basis[i], g.basis[j], [[g.basis[k], str(c)] for k, c in sorted(comps.items())]]
        )
        for c in comps.values():
            if isinstance(c, RationalFunction):
                field = {"type": "ratfun", "vars": list(c.vars)}
    return {
        "name": g.name,
        "field": field,
        "basis": list(g.basis),
        "brackets": brackets,
    }


# ---------------------------------------------------------------------------
# tensor literals
# ---------------------------------------------------------------------------

def _parse_entries(doc: dict, g: LieAlgebra, arity: int, variables: Tuple[str, ...]):
    entries = []
    for rec in doc.get("entries", []):
        idx = rec.get("idx")
        coef = rec.get("coef")
        if idx is None or coef is None:
            raise InputError("tensor entries are records {'idx': [...], 'coef': '...'}")
        if len(idx) != arity:
            raise InputError(f"tensor entry {idx} has arity {len(idx)}, expected {arity}")
        entries.append((tuple(g.index(lab) for lab in idx), parse_scalar(str(coef), variables)))
    return entries


def tensor_from_dict(doc: dict, g: LieAlgebra, expect: Optional[str] = None):
    sig = doc.get("signature")
    if sig not in TENSOR_SIGNATURES:
        raise InputError(f"unknown tensor signature {sig!r}; expected one of {TENSOR_SIGNATURES}")
    if expect is not None and sig != expect:
        raise InputError(f"tensor has signature {sig!r}, expected {expect!r}")
    variables = tuple(doc.get("vars", ()))
    if sig == "wedge2":
        return Multivector.build(g.dim, 2, _parse_entries(doc, g, 2, variables))
    if sig == "wedge3":
        return Multivector.build(g.dim, 3, _parse_entries(doc, g, 3, variables))
    if sig == "sym2":
        return SparseTensor.build(sym2_signature(g.dim), _parse_entries(doc, g, 2, variables))
    if sig == "gg":
        return SparseTensor.build(plain_signature(g.dim, 2), _parse_entries(doc, g, 2, variables))
    if sig == "cobracket":
        entries = []
        for (k, i, j), coef in _parse_entries(doc, g, 3, variables):
            entries.append((((k,), (i, j)), coef))
        return CECochain.build(g, 1, WEDGE(2), entries)
    raise InputError(f"unhandled signature {sig!r}")


def multivector_to_entries(mv: Multivector, g: LieAlgebra) -> List[dict]:
    return [
        {"idx": [g.basis[i] for i in key], "coef": str(coef)}
        for key, coef in sorted(mv.data.items(), key=lambda kv: kv[0])
    ]


def tensor_to_entries(t: SparseTensor, g: LieAlgebra) -> List[dict]:
    return [
        {"idx": [g.basis[i] for i in key], "coef": str(coef)}
        for key, coef in sorted(t.data.items(), key=lambda kv: kv[0])
    ]


def cochain_to_entries(x: CECochain) -> List[dict]:
    g = x.g
    out = []
    for (down, up), coef in sorted(x.data.items()):
        out.append(
            {
                "idx": [g.basis[i] for i in down] + [g.basis[i] for i in up],
                "coef": str(coef),
            }
        )
    return out


def matrix_from_dict(doc: dict, dim: int) -> List[List[Fraction]]:
    rows = doc.get("matrix")
    if rows is None or len(rows) != dim or any(len(r) != dim for r in rows):
        raise InputError(f"pairing file must hold a {dim} x {dim} 'matrix'")
    out = []
    for row in rows:
        out.append([Fraction(parse_scalar(str(x), ())) for x in row])
    return out


def polynomials_from_strings(strings: Sequence[str], variables: Tuple[str, ...]) -> List[Polynomial]:
    out = []
    for s in strings:
        val = parse_scalar(str(s), variables)
        if isinstance(val, RationalFunction):
            if not val.den.is_constant():
                raise InputError(f"locus entry {s!r} must be polynomial")
            out.append(val.num.scale(Fraction(1) / val.den.constant_value()))
        else:
            out.append(Polynomial.const(variables, val))
    return out


# ---------------------------------------------------------------------------
# Manin triples
# ---------------------------------------------------------------------------

def triple_to_dict(t: ManinTriple) -> dict:
    d = t.quad.lie
    doc = lie_to_dict(d)
    doc["g"] = [d.basis[i] for i in t.g_indices]
    doc["gstar"] = [d.basis[i] for i in t.gstar_indices]
    doc["pairing"] = [[str(x) for x in row] for row in t.quad.pairing]
    return doc


# ---------------------------------------------------------------------------
# dg Lie algebra serialization
# ---------------------------------------------------------------------------

def dgla_to_dict(L: WeightGradedDGLA) -> dict:
    def key_str(k):
        return f"{k[0]},{k[1]}"

    bases = {key_str(k): [str(label) for label in v] for k, v in sorted(L.bases.items())}
    diff = {
        key_str(k): [sorted([[i, str(c)] for i, c in col.items()]) for col in cols]
        for k, cols in sorted(L.diff.items())
    }
    brackets = {}
    for k1 in sorted(L.bases):
        for k2 in sorted(L.bases):
            if (k1[0] + k2[0], k1[1] + k2[1] - 1) not in L.bases:
                continue
            brackets[f"{key_str(k1)}|{key_str(k2)}"] = {
                f"{i},{j}": sorted([[m, str(c)] for m, c in vec.items()])
                for (i, j), vec in sorted(L.bracket_structure(k1, k2).items())
            }
    return {
        "name": L.name,
        "max_weight": L.max_weight,
        "bases": bases,
        "differentials": diff,
        "brackets": brackets,
    }
