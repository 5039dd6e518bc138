"""Every function, class and method of the library is used somewhere.

A definition in ``src/qlie`` is dead when its name occurs as a Python
name token nowhere in ``src/`` or ``perfbench/`` outside the definition's
own source lines.  This holds for module-level functions and classes,
methods and nested functions alike: a caller that only the tests have
does not keep library code alive, and an export from
``qlie/__init__.py`` (a name token in ``src/``) does.

Dunder methods are exempt: Python calls them.  Name-based matching is
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


def _definitions(path: Path):
    """(name, first line, last line) of every definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            yield name, node.lineno, node.end_lineno


def _name_lines(path: Path):
    """name -> line numbers on which it occurs as a NAME token."""
    out = defaultdict(set)
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
    for tok in tokens:
        if tok.type == tokenize.NAME:
            out[tok.string].add(tok.start[0])
    return out


def dead_definitions():
    files = sorted(p for top in SEARCHED for p in (ROOT / top).rglob("*.py"))
    uses = {p: _name_lines(p) for p in files}
    dead = []
    for path in sorted(LIBRARY.glob("*.py")):
        for name, start, end in _definitions(path):
            used = any(
                p != path or not start <= line <= end
                for p in files
                for line in uses[p].get(name, ())
            )
            if not used:
                dead.append(f"{path.relative_to(ROOT)}:{start} {name}")
    return dead


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
