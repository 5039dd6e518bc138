"""Derandomised fuzz of the JSON input formats through the CLI.

Each example takes one CLI job on the documents of ``tests/fixtures``,
mutates one of its input documents (drops keys or list items, swaps value
types, changes list arities, puts in unknown labels and huge exponent or
digit strings) and runs ``qlie.cli.main(argv + ["--json"])`` in-process.
Whatever the document, the run must keep the exit-code contract (0 pass,
1 a check failed, 2 malformed input; never 3, an internal fault), print a
JSON report and finish within two seconds.
"""

import io
import json
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import FIXTURES
from qlie.cli import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

# argv templates; "@name" is the fixture tests/fixtures/name.json
JOBS = [
    ["check-lie", "@sl2"],
    ["check-lie", "@heisenberg"],
    ["check-qlb", "@sl2", "--delta", "@delta_std_sl2", "--phi", "@phi_efh"],
    ["cybe", "@sl2", "--r", "@standard_r_sl2"],
    ["dynamical", "@sl2", "--sub", "h", "--r", "@dynamical_r_sl2", "--vars", "x"],
    ["double", "@sl2", "--delta", "@delta_std_sl2"],
    ["induce", "@sl2", "--sub", "e,h", "--casimir", "@killing_sl2"],
    ["invariants", "@sl2", "--module", "sym2"],
    ["invariants", "@sl3", "--module", "wedge3"],
    ["mc-residual", "@sl2", "--shift", "1", "--delta", "@delta_std_sl2", "--phi", "@phi_efh"],
    ["mc-residual", "@sl2", "--shift", "2", "--casimir", "@killing_sl2"],
]

OTHER_VALUES = [None, True, 0, 7, -1, 1.5, "", "x", [], {}, ["e"], {"type": "rational"}]
UNKNOWN_LABELS = ["zz", "E", "e ", "0", "h^"]
HUGE_STRINGS = [
    "9" * 5000,
    "1/" + "7" * 4400,
    "10^4301",
    "2^64^64",
    "((2^64)^64)^64",
    "(10^64)^64*(10^64)^64",
    "(10^64)^64+1/(10^64)^64",
    "x^99999999999",
    "(x+1)^64*(x+1)^64",
    "(x+y+z+1)^64",
    "1/(x-x)",
    "0/0",
]
SECONDS_PER_RUN = 2.0


def _paths(node, prefix=()):
    """Every path into a JSON tree, the root included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


_DROP = object()


def _replace(node, path, make):
    """A copy of node with the subtree at path replaced by make(subtree);
    make may return _DROP to remove the subtree from its parent."""
    if not path:
        return make(node)
    head, rest = path[0], path[1:]
    out = dict(node) if isinstance(node, dict) else list(node)
    new = _replace(node[head], rest, make)
    if new is _DROP:
        del out[head]
    else:
        out[head] = new
    return out


@st.composite
def mutations(draw, doc):
    # depth first, then a path at that depth: the few top-level keys are
    # drawn as often as the many deep coefficients
    by_depth = {}
    for path in _paths(doc):
        by_depth.setdefault(len(path), []).append(path)
    path = draw(st.sampled_from(by_depth[draw(st.sampled_from(sorted(by_depth)))]))
    kind = draw(st.sampled_from(["drop", "arity", "retype", "label", "huge"]))
    if kind == "drop":
        return _replace(doc, path, lambda node: _DROP if path else {})
    if kind == "arity":
        grow = draw(st.booleans())

        def make(node):
            if not isinstance(node, list):
                return [node]
            return node + [node[-1] if node else "e"] if grow else node[:-1]

        return _replace(doc, path, make)
    pool = {"retype": OTHER_VALUES, "label": UNKNOWN_LABELS, "huge": HUGE_STRINGS}[kind]
    value = draw(st.sampled_from(pool))
    return _replace(doc, path, lambda node: value)


def _run(argv):
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = main(argv + ["--json"])
    return code, out.getvalue(), time.perf_counter() - start


@settings(
    derandomize=True,
    database=None,
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_mutated_documents_keep_the_exit_code_contract(data):
    job = data.draw(st.sampled_from(JOBS))
    files = sorted({tok[1:] for tok in job if tok.startswith("@")})
    target = data.draw(st.sampled_from(files))
    doc = json.loads((FIXTURES / f"{target}.json").read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        doc = data.draw(mutations(doc))
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / f"{target}.json"
        mutated.write_text(json.dumps(doc))
        argv = [
            str(mutated) if tok == f"@{target}" else str(FIXTURES / f"{tok[1:]}.json") if tok.startswith("@") else tok
            for tok in job
        ]
        code, stdout, seconds = _run(argv)
    # 3 is an internal fault of qlie, which no document may reach
    assert code in (0, 1, 2), (job, doc, stdout)
    report = json.loads(stdout)
    assert set(report) >= {"command", "checks", "data", "inputs", "ledger", "timing_ms"}
    assert seconds < SECONDS_PER_RUN, (job, doc, seconds)
