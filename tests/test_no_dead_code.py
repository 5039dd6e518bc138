"""Every function, class, method and module-level constant of the library
is used somewhere.

A definition in ``src/qlie`` is live when its name occurs as a Python
name token in a live place of ``src/`` or ``perfbench/``, and dead
otherwise.  A place is live when it lies outside every library definition
(module-level code of ``src/``, such as an export from
``qlie/__init__.py``, and all of ``perfbench/``), or when the innermost
library definition around it is itself live.  So two definitions that
only name each other stay dead, and so does a definition that only its
own lines name.  This holds for module-level functions and classes,
methods and nested functions alike, and for the names a module-level
assignment binds: a caller that only the tests have does not keep
library code alive.

Dunder methods and dunder names (``__all__``, ``__version__``) are
exempt: Python and packaging read them, so what a dunder method names
counts as named by its class.  Name-based matching is
deliberately loose (any use of a name keeps every definition of that
name alive); what it catches is code that nothing outside the tests
mentions.  An exception class is held to more: it must be
raised, or subclassed, somewhere in ``src/``, since an error class that
nothing raises is still mentioned wherever it is caught or exported.
"""

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "qlie"
SEARCHED = ("src", "perfbench")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(path: Path):
    """(name, first line, last line) of every definition: each function and
    class, and each name bound by a module-level assignment."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_dunder(node.name):
                yield node.name, node.lineno, node.end_lineno
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and not _is_dunder(leaf.id):
                        yield leaf.id, node.lineno, node.end_lineno


def _name_tokens(path: Path):
    """(name, line) of every NAME token."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
    for tok in tokens:
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]


def _innermost(spans, line):
    """The name of the innermost (name, first, last) span around line, or None."""
    around = [(last - first, name) for name, first, last in spans if first <= line <= last]
    return min(around)[1] if around else None


def dead_definitions():
    """Every library definition that no live place names: the names reached
    from the live places, through the names each definition's body uses."""
    library = sorted(LIBRARY.glob("*.py"))
    spans = {path: list(_definitions(path)) for path in library}
    roots = set()
    used_by = defaultdict(set)  # definition name -> names its innermost lines use
    for path in sorted(p for top in SEARCHED for p in (ROOT / top).rglob("*.py")):
        for name, line in _name_tokens(path):
            owner = _innermost(spans.get(path, ()), line)
            if owner is None:
                roots.add(name)
            else:
                used_by[owner].add(name)
    live, frontier = set(), list(roots)
    while frontier:
        name = frontier.pop()
        if name not in live:
            live.add(name)
            frontier.extend(used_by[name])
    return [
        f"{path.relative_to(ROOT)}:{start} {name}"
        for path in library
        for name, start, _ in spans[path]
        if name not in live
    ]


def test_library_has_no_dead_definitions():
    dead = dead_definitions()
    assert not dead, "defined but never used: " + ", ".join(dead)


def _raised_or_subclassed():
    """Names raised (``raise X`` or ``raise X(...)``) or used as a base class in src/."""
    names = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(getattr(exc, "id", getattr(exc, "attr", None)))
            elif isinstance(node, ast.ClassDef):
                names.update(getattr(b, "id", getattr(b, "attr", None)) for b in node.bases)
    return names


def test_every_error_class_is_raised_or_subclassed():
    tree = ast.parse((LIBRARY / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes
    unused = sorted(set(classes) - _raised_or_subclassed())
    assert not unused, "error classes never raised or subclassed: " + ", ".join(unused)
