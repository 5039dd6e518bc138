"""JSON file formats: Lie algebras, tensor literals and Manin triples.

Coefficients are decimal-free strings parsed as exact rationals, or as
rational-function expressions in the declared variables.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError
from .lie import CECochain, LieAlgebra, WEDGE, sym2_signature
from .manin import ManinTriple
from .scalars import Polynomial, RationalFunction, parse_scalar
from .tensors import Multivector, SparseTensor, SparseVector, plain_signature

TENSOR_SIGNATURES = ("wedge2", "wedge3", "sym2", "cobracket", "gg")

# Input bounds, checked before the work they bound.  An input file has at
# most MAX_INPUT_BYTES bytes (the test fixtures and the generated benchmark
# inputs have at most about 10 KB).  A Lie algebra has at most
# MAX_BASIS_LABELS basis labels: on the abelian algebra of that dimension
# with zero tensors every subcommand stays under 2 s (`double`, which checks
# Jacobi on the 2n-dimensional double, is the slowest: about 1.6 s at 80
# labels, 2.0 s at 84).  `invariants` refuses a module of dimension over
# MAX_MODULE_DIM = C(26, 3): the kernel of d on the abelian algebra is the
# whole module, a dense basis of dim^2 entries (about 1 s for wedge3 at 26
# labels or sym2 at 71).  The support of a tensor read over an algebra is
# bounded where it costs: `mc.MAX_PAIRS` caps the pairs of monomials that
# the Maurer-Cartan residual of `check-qlb`, `twist` and `mc-residual` forms.
MAX_INPUT_BYTES = 1 << 20
MAX_BASIS_LABELS = 80
MAX_MODULE_DIM = 2600


def read_json(path: str, inputs: Dict[str, str]) -> dict:
    """Read an input file once: record the sha256 of its bytes in
    inputs[path], then parse the same bytes as UTF-8 JSON.  A file over
    MAX_INPUT_BYTES is refused before it is read."""
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            if st.st_size > MAX_INPUT_BYTES:
                raise InputError(f"JSON file {path} is over the input limit of {MAX_INPUT_BYTES} bytes")
            # a bounded read allocates its whole bound, so only a pipe or a
            # device, which reports no size, gets one
            data = fh.read() if stat.S_ISREG(st.st_mode) else fh.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise InputError(f"cannot read JSON file {path}: {exc}") from None
    if len(data) > MAX_INPUT_BYTES:
        raise InputError(f"JSON file {path} is over the input limit of {MAX_INPUT_BYTES} bytes")
    inputs[path] = hashlib.sha256(data).hexdigest()
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"JSON file {path} must hold an object, not {type(doc).__name__}")
    return doc


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

def variable_names(value, where: str) -> Tuple[str, ...]:
    """A JSON list of variable names as a tuple; anything else is an InputError."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"{where} is a list of variable names")
    return tuple(value)


def field_variables(doc: dict) -> Tuple[str, ...]:
    field = doc.get("field", {"type": "rational"})
    if not isinstance(field, dict):
        raise InputError("field is an object such as {'type': 'rational'}")
    ftype = field.get("type")
    if ftype == "rational":
        return ()
    if ftype == "ratfun":
        variables = variable_names(field.get("vars", []), "the ratfun field's 'vars'")
        if not variables:
            raise InputError("ratfun field requires a nonempty variable list")
        return variables
    raise InputError(f"unknown field type {ftype!r}")


def lie_from_dict(doc: dict) -> LieAlgebra:
    for key in ("name", "basis"):
        if key not in doc:
            raise InputError(f"Lie algebra file is missing the {key!r} entry")
    basis = doc["basis"]
    if not isinstance(basis, list) or any(isinstance(label, (list, dict)) for label in basis):
        raise InputError("basis is a list of scalar labels")
    if len(basis) > MAX_BASIS_LABELS:
        raise InputError(f"basis has {len(basis)} labels, over the limit of {MAX_BASIS_LABELS}")
    variables = field_variables(doc)
    index = {label: i for i, label in enumerate(basis)}
    items = doc.get("brackets", [])
    if not isinstance(items, list):
        raise InputError("brackets is a list of [x, y, [[z, coef], ...]] entries")
    brackets = {}
    for item in items:
        if not (
            isinstance(item, list)
            and len(item) == 3
            and isinstance(item[2], list)
            and all(isinstance(comp, list) and len(comp) == 2 for comp in item[2])
            and not any(
                isinstance(label, (list, dict))
                for label in [item[0], item[1]] + [comp[0] for comp in item[2]]
            )
        ):
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
    records = doc.get("entries", [])
    if not isinstance(records, list) or not all(
        isinstance(rec, dict) and isinstance(rec.get("idx"), list) and rec.get("coef") is not None
        for rec in records
    ):
        raise InputError("tensor entries are records {'idx': [...], 'coef': '...'}")
    entries = []
    for rec in records:
        idx, coef = rec["idx"], rec["coef"]
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
    variables = variable_names(doc.get("vars", []), "a tensor's 'vars'")
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


def tensor_to_entries(t: SparseVector, g: LieAlgebra) -> List[dict]:
    """Entries of a multivector or a sparse tensor, both keyed by index tuples."""
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
    if (
        not isinstance(rows, list)
        or len(rows) != dim
        or any(not isinstance(r, list) or len(r) != dim for r in rows)
    ):
        raise InputError(f"pairing file must hold a {dim} x {dim} 'matrix'")
    out = []
    for row in rows:
        out.append([Fraction(parse_scalar(str(x), ())) for x in row])
    return out


def polynomials_from_strings(strings: Sequence[str], variables: Tuple[str, ...]) -> List[Polynomial]:
    if not isinstance(strings, list):
        raise InputError("locus is a list of polynomial strings")
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
