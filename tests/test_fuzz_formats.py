"""Derandomised fuzz of the JSON input formats and the arguments through the CLI.

Each example takes one CLI job on the documents of ``tests/fixtures``
and either mutates up to two of its input documents (drops keys or list
items, swaps value types, changes list arities, puts in unknown labels,
huge exponent or digit strings and deep nesting) or mutates its arguments
(unknown and repeated flags, ``--shift 3``, duplicate, unknown and empty
labels in ``--sub``, ``--g`` and ``--gstar``), and runs
``qlie.cli.main(argv + ["--json"])`` in-process.  Whatever the input, the
run must keep the exit-code contract (0 pass, 1 a check failed, 2
malformed input; never 3, an internal fault), print a JSON report and
finish within two seconds.  One more row runs each job unmutated with its
algebra documents over the field Q(x) (``"field": {"type": "ratfun"}``),
and its exit code must be the one over Q; another runs each job with its
documents nested past the recursion limit, which must exit 2, and one
names each algebra document by a JSON value that is not a string, which
must exit 2 too.
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

# argv templates; "@name" is the fixture tests/fixtures/name.json, or the
# document DOCUMENTS[name]
DOCUMENTS = {"pairing4": {"matrix": [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]}}
JOBS = [
    ["check-lie", "@sl2"],
    ["check-lie", "@heisenberg"],
    ["check-qlb", "@sl2", "--delta", "@delta_std_sl2", "--phi", "@phi_efh"],
    ["cybe", "@sl2", "--r", "@standard_r_sl2"],
    ["dynamical", "@sl2", "--sub", "h", "--r", "@dynamical_r_sl2", "--vars", "x"],
    ["double", "@sl2", "--delta", "@delta_std_sl2"],
    ["induce", "@sl2", "--sub", "e,h", "--casimir", "@killing_sl2"],
    ["verify-morphism", "@sl2", "--sub", "e,h", "--casimir", "@killing_sl2"],
    ["triple-check", "@abelian4", "--g", "x1,x2", "--gstar", "x3,x4", "--pairing", "@pairing4"],
    ["invariants", "@sl2", "--module", "sym2"],
    ["invariants", "@sl3", "--module", "wedge3"],
    ["mc-residual", "@sl2", "--shift", "1", "--delta", "@delta_std_sl2", "--phi", "@phi_efh"],
    ["mc-residual", "@sl2", "--shift", "2", "--casimir", "@killing_sl2"],
]

# stands for a list nested 1,000 deep, which _run_job writes into the
# document's text: json.dumps would recurse as deep as json.loads does
DEEP = "\0deep"
OTHER_VALUES = [None, True, 0, 7, -1, 1.5, "", "x", [], {}, ["e"], {"type": "rational"}, DEEP]
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
    "(" * 250 + "1" + ")" * 250,
]
UNKNOWN_FLAGS = ["--bogus", "--Json", "-x", "--shift2", "--lambda"]
LABEL_LISTS = ["", ",", "e,e", "h,h,e", "zz", "e,zz", "e,,h", " e", "x1,x1", "x1,x2,x3,x4", "x9"]
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


@st.composite
def argument_mutations(draw, argv):
    """argv with one argument mutation: an unknown flag (with or without a
    value), a repeated option, --shift 3, or a label list in --sub, --g or
    --gstar replaced by a duplicate, unknown or empty one."""
    options = [i for i, tok in enumerate(argv) if tok.startswith("--")]
    label_options = [i for i in options if argv[i] in ("--sub", "--g", "--gstar")]
    kinds = ["unknown", "shift"] + (["repeat"] if options else []) + (["labels"] if label_options else [])
    kind = draw(st.sampled_from(kinds))
    out = list(argv)
    if kind == "unknown":
        flag = [draw(st.sampled_from(UNKNOWN_FLAGS))] + draw(st.sampled_from([[], ["1"], ["e,h"]]))
        at = draw(st.integers(1, len(out)))
        return out[:at] + flag + out[at:]
    if kind == "repeat":
        i = draw(st.sampled_from(options))
        given = out[i + 1 : i + 2] or [""]
        value = draw(st.sampled_from(given + ["", "zz"] + LABEL_LISTS[:3]))
        return out + [out[i], value]
    if kind == "shift":
        if "--shift" in out:
            out[out.index("--shift") + 1] = "3"
            return out
        return out + ["--shift", "3"]
    i = draw(st.sampled_from(label_options))
    return out[: i + 1] + [draw(st.sampled_from(LABEL_LISTS))] + out[i + 2 :]


def _document(name):
    return DOCUMENTS[name] if name in DOCUMENTS else json.loads((FIXTURES / f"{name}.json").read_text())


def _run_job(job, docs):
    """Run argv job with "@name" replaced by a file holding docs[name] or
    DOCUMENTS[name] (written to a temporary directory), or else the
    fixture name.json; returns the exit code."""
    docs = {**{name: doc for name, doc in DOCUMENTS.items() if f"@{name}" in job}, **docs}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(doc).replace(json.dumps(DEEP), "[" * 1000 + "]" * 1000))
        argv = [
            str(paths.get(tok[1:], FIXTURES / f"{tok[1:]}.json")) if tok.startswith("@") else tok
            for tok in job
        ]
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = main(argv + ["--json"])
        seconds = time.perf_counter() - start
    # 3 is an internal fault of qlie, which no input may reach
    assert code in (0, 1, 2), (job, docs, out.getvalue())
    report = json.loads(out.getvalue())
    assert set(report) >= {"command", "checks", "data", "inputs", "ledger", "timing_ms"}
    assert seconds < SECONDS_PER_RUN, (job, docs, seconds)
    return code


FUZZ_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("job", JOBS, ids=[" ".join(job[:4]) for job in JOBS])
def test_ratfun_field_keeps_the_exit_code_contract(job):
    # every algebra document of the job, valid but over Q(x): the checks
    # and the eliminations run over Q(x) (this exited 3 in invariants), and
    # the verdict is the one over Q
    docs = {}
    for name in sorted({tok[1:] for tok in job if tok.startswith("@")}):
        doc = _document(name)
        if "brackets" in doc:
            docs[name] = {**doc, "field": {"type": "ratfun", "vars": ["x"]}}
    assert docs
    assert _run_job(job, docs) == _run_job(job, {})


@pytest.mark.parametrize("job", JOBS, ids=[" ".join(job[:4]) for job in JOBS])
def test_non_string_name_is_malformed(job):
    # every algebra document of the job named by a JSON value that is not a
    # string: a list name once passed with exit 0 and was echoed in the report
    names = sorted({tok[1:] for tok in job if tok.startswith("@")})
    algebras = [name for name in names if "brackets" in _document(name)]
    assert algebras
    for value in ([[1]], 7, None, {}):
        assert _run_job(job, {name: {**_document(name), "name": value} for name in algebras}) == 2


def _nest_integers(node):
    """node with every integer string nested 250 parentheses deep."""
    if isinstance(node, dict):
        return {key: _nest_integers(child) for key, child in node.items()}
    if isinstance(node, list):
        return [_nest_integers(child) for child in node]
    if isinstance(node, str) and node.lstrip("-").isdigit():
        return "(" * 250 + node + ")" * 250
    return node


@pytest.mark.parametrize("job", JOBS, ids=[" ".join(job[:4]) for job in JOBS])
def test_deep_nesting_keeps_the_exit_code_contract(job):
    # every integer string of the job's documents nested 250 parentheses
    # deep, or the first entry of its first document nested 1,000 lists
    # deep: each met the recursion limit (exit 3) and is malformed input
    names = [tok[1:] for tok in job if tok.startswith("@")]
    assert _run_job(job, {name: _nest_integers(_document(name)) for name in names}) == 2
    first = _document(names[0])
    assert _run_job(job, {names[0]: {**first, sorted(first)[0]: DEEP}}) == 2


@FUZZ_SETTINGS
@given(st.data())
def test_mutated_documents_keep_the_exit_code_contract(data):
    job = data.draw(st.sampled_from(JOBS))
    names = sorted({tok[1:] for tok in job if tok.startswith("@")})
    # two documents of the job (its one document if it has only one), each mutated 1 to 3 times
    docs = {}
    for name in data.draw(st.lists(st.sampled_from(names), min_size=min(2, len(names)), max_size=2, unique=True)):
        doc = _document(name)
        for _ in range(data.draw(st.integers(1, 3))):
            doc = data.draw(mutations(doc))
        docs[name] = doc
    _run_job(job, docs)


@FUZZ_SETTINGS
@given(st.data())
def test_mutated_arguments_keep_the_exit_code_contract(data):
    job = data.draw(st.sampled_from(JOBS))
    for _ in range(data.draw(st.integers(1, 2))):
        job = data.draw(argument_mutations(job))
    _run_job(job, {})
