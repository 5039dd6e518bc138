"""JSON file formats: Lie algebras, tensor literals and Manin triples.

Coefficients are JSON integers or decimal-free strings, parsed as exact
rationals or as rational-function expressions in the declared variables;
any other JSON value (a boolean, null, a float such as 1.0, 1e5 or NaN, a
list or an object) is malformed input that names the entry.  Reports print every coefficient with
`scalars.scalar_text`, exactly and at any size.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError
from .lie import LieAlgebra
from .manin import ManinTriple
from .scalars import Polynomial, RationalFunction, Scalar, is_zero, parse_scalar, scalar_text
from .tensors import CECochain, SYM, TENSOR, WEDGE

# the tensor signatures of the input files: (CE degree, module) of each;
# an entry's first `degree` labels are its down slots
TENSOR_SIGNATURES = {
    "wedge2": (0, WEDGE(2)),
    "wedge3": (0, WEDGE(3)),
    "sym2": (0, SYM(2)),
    "cobracket": (1, WEDGE(2)),
    "gg": (0, TENSOR(2)),
}

# Input bounds, checked before the work they bound.  An input file has at
# most MAX_INPUT_BYTES bytes (the test fixtures and the generated benchmark
# inputs have at most about 10 KB).  A Lie algebra has at most
# MAX_BASIS_LABELS basis labels: on the abelian algebra of that dimension
# with zero tensors every subcommand stays under 2 s.  `double` checks Jacobi
# on the 2n-dimensional double as d d e^l = 0 for each l, whose work grows
# with the nonzero structure constants, so `double` refuses a double with
# over MAX_DOUBLE_CONSTANTS of them before the check.  The zero-cobracket
# doubles of sl8 (1,806, 0.18 s) and of sl8 (+) abelian17 (80 labels, 1,806
# constants, 0.2-0.3 s), the standard sl7 bialgebra (1,740, 0.18-0.22 s)
# and a dense double, sl3 (+) sl2 on a random integer basis with zero
# cobracket (1,815, 0.34-0.49 s), pass, sl9 (2,592) is refused; times are
# the best of 5 in-process runs of `double` on 2 vCPUs.  `invariants` reduces
# only the weight-0 block of the module (see polyvectors) and refuses a
# block of over MAX_MODULE_DIM = C(26, 3) keys; counting it takes at most
# 0.06 s at 80 labels.  On the abelian algebra the block, and the kernel,
# is the whole module (0.07 s for wedge3 at 26 labels, 0.05 s for sym2 at
# 71), so that is the case the bound is for; on sl9 the block has 512 of
# the 82,160 keys of wedge3 (1.1 s) and 72 of the 3,240 of sym2 (0.16 s);
# times are the best of 3 in-process runs of `invariants` on 2 vCPUs.  The
# support of a tensor read over an algebra is bounded where it costs:
# `mc.MAX_PAIRS` caps the contraction events that the Maurer-Cartan
# residual of `check-qlb`, `twist` and `mc-residual` forms.
MAX_INPUT_BYTES = 1 << 20
MAX_BASIS_LABELS = 80
MAX_DOUBLE_CONSTANTS = 2000
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
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer past int()'s digit limit
        raise InputError(f"cannot read JSON file {path}: {exc}") from None
    except RecursionError:  # the decoder recurses once per level of nesting
        raise InputError(f"cannot read JSON file {path}: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(f"JSON file {path} must hold an object, not {type(doc).__name__}")
    return doc


_JSON_KINDS = {bool: "a boolean", type(None): "null", float: "a float", list: "a list", dict: "an object"}


def _read_scalar(value, variables: Tuple[str, ...], where: str) -> Scalar:
    """Parse a coefficient, a JSON string or integer; any other JSON value
    is an InputError that names `where`."""
    if type(value) is int:
        value = str(value)
    elif type(value) is not str:
        kind = _JSON_KINDS.get(type(value), type(value).__name__)
        raise InputError(f"{where} is {kind}, not a string or an integer")
    return parse_scalar(value, variables)


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

def variable_names(value, where: str) -> Tuple[str, ...]:
    """A JSON list of distinct variable names as a tuple; anything else is an InputError."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"{where} is a list of variable names")
    seen = set()
    for v in value:
        if v in seen:
            raise InputError(f"{where} repeats the variable name {v!r}")
        seen.add(v)
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
    if not isinstance(doc["name"], str):
        raise InputError("name is a string")
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
            row[index[z]] = _read_scalar(coef, variables, f"the coefficient of {z!r} in [{x}, {y}]")
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
            [g.basis[i], g.basis[j], [[g.basis[k], scalar_text(c)] for k, c in sorted(comps.items())]]
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
        key = tuple(g.index(lab) for lab in idx)
        entries.append((key, _read_scalar(coef, variables, f"the coefficient of tensor entry {idx}")))
    return entries


def tensor_from_dict(doc: dict, g: LieAlgebra, expect: Optional[str] = None) -> CECochain:
    """The cochain of a tensor file: one canonical key per entry, the other
    orders of a wedge signed and of a sym summed."""
    sig = doc.get("signature")
    # a list or an object is no signature, and must not reach the dict lookup
    if not isinstance(sig, str) or sig not in TENSOR_SIGNATURES:
        raise InputError(f"unknown tensor signature {sig!r}; expected one of {tuple(TENSOR_SIGNATURES)}")
    if expect is not None and sig != expect:
        raise InputError(f"tensor has signature {sig!r}, expected {expect!r}")
    variables = variable_names(doc.get("vars", []), "a tensor's 'vars'")
    k, module = TENSOR_SIGNATURES[sig]
    entries = _parse_entries(doc, g, k + module[1], variables)
    return CECochain.build(g, k, module, [((idx[:k], idx[k:]), coef) for idx, coef in entries])


def cochain_to_entries(x: CECochain) -> List[dict]:
    g = x.g
    out = []
    for (down, up), coef in sorted(x.data.items()):
        out.append(
            {
                "idx": [g.basis[i] for i in down] + [g.basis[i] for i in up],
                "coef": scalar_text(coef),
            }
        )
    return out


def matrix_from_dict(doc: dict, dim: int) -> List[Dict[int, Fraction]]:
    """The sparse rows {column: entry} of a pairing file's dense 'matrix'."""
    rows = doc.get("matrix")
    if (
        not isinstance(rows, list)
        or len(rows) != dim
        or any(not isinstance(r, list) or len(r) != dim for r in rows)
    ):
        raise InputError(f"pairing file must hold a {dim} x {dim} 'matrix'")
    return [
        {j: v for j, x in enumerate(row) if (v := _read_scalar(x, (), f"pairing cell ({i}, {j})"))}
        for i, row in enumerate(rows)
    ]


def polynomials_from_strings(strings: Sequence[str], variables: Tuple[str, ...]) -> List[Polynomial]:
    if not isinstance(strings, list):
        raise InputError("locus is a list of polynomial strings")
    out = []
    for i, s in enumerate(strings):
        val = _read_scalar(s, variables, f"locus entry {i}")
        if is_zero(val):
            raise InputError(f"locus entry {s!r} is the zero polynomial")
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
    doc["pairing"] = [[scalar_text(row.get(j, 0)) for j in range(d.dim)] for row in t.quad.pairing]
    return doc
