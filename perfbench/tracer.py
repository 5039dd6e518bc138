"""Per-module tracing for the benchmark's traced run.

`Tracer.install()` wraps, from outside the library, every public function
of the qlie modules listed in MODULES and every public method (plus the
arithmetic and construction dunders) of their public classes.  Wrapped
functions are also replaced in every qlie module that imported them by
name.  Only passrun.py calls install(), and only in a process started
for a traced pass; untraced passes run the program unmodified.

A call opens a span only where control crosses from one module into
another, so a module's span covers its public entry point and everything
it does internally.  Self time is a span's duration minus the time its
child spans cover.  Spans (id, name, start, end, parent id, job id) are
kept in memory (deep ones up to SPAN_CAP) and written out when the pass ends.
Counters are taken at the same boundaries; see `metrics()` for the list.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import gc
import importlib
import inspect
import io
import json
import os
import sys
import time
import weakref
from collections import defaultdict

MODULES = ("scalars", "linalg", "tensors", "lie", "polyvectors", "qlb", "mc", "rmatrix",
           "manin", "formats", "cli")
DUNDERS = frozenset({
    "__init__", "__post_init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
    "__hash__", "__str__",
})
RATFUN_OPS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                        "__truediv__", "__rtruediv__", "__neg__", "__pow__"})
NAMED_CALLS = {
    "lie.ce_differential": "lie.ce_differential_calls",
    "lie.module_action": "lie.module_action_calls",
    "scalars.parse_scalar": "scalars.parse_calls",
    "scalars.Polynomial.__mul__": "scalars.poly_mul",
    "polyvectors.PolyVectorAlgebra.bracket_monos": "polyvectors.bracket_monos_calls",
}
SPAN_CAP = 200_000
_WRITE_MODES = frozenset("wax+")


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [module, start, time covered by children, span id]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.peak = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self.job_id = None
        self._ids = 0
        self._inputs = frozenset()
        self._job_algebras = []  # weak refs to PolyVectorAlgebra objects made by the current job
        self._all_algebras = []

    # -- spans ----------------------------------------------------------------

    def _open(self, module):
        self._ids += 1
        frame = [module, time.perf_counter(), 0.0, self._ids]
        self.stack.append(frame)
        return frame

    def _close(self, frame, name):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[1]
        self.self_s[frame[0]] += dur - frame[2]
        parent = None
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        # job, cli and first library spans are always kept; deeper ones up to SPAN_CAP
        if len(self.stack) <= 2 or len(self.spans) < SPAN_CAP:
            self.spans.append((frame[3], name, frame[1], end, parent, self.job_id))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def job(self, job_id, inputs):
        """Root span of one job; counts the job's input files for formats.reads_per_input."""
        self.job_id = job_id
        self._inputs = frozenset(os.path.normpath(p) for p in inputs if os.path.exists(p))
        self.count["formats.input_files"] += len(self._inputs)
        self._job_algebras = []
        frame = self._open("job")
        try:
            yield
        finally:
            self._close(frame, "job")
            for ref in self._job_algebras:
                alg = ref()
                if alg is not None:
                    self.count["polyvectors.cache_entries"] += len(getattr(alg, "_bracket_cache", ()))
            self._inputs = frozenset()
            self.job_id = None

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, module, name):
        calls, stack, tracer = self.calls, self.stack, self
        before, after = self._hooks(module, name)
        counter = NAMED_CALLS.get(name)
        if name.startswith("scalars.RationalFunction.") and name.rsplit(".", 1)[-1] in RATFUN_OPS:
            counter = "scalars.ratfun_ops"
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[module] += 1
            if counter:
                count[counter] += 1
            state = before(args) if before else None
            if stack and stack[-1][0] == module:
                result = fn(*args, **kwargs)
                if after:
                    after(state, args, result, False)
                return result
            frame = tracer._open(module)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name)
            if after:
                after(state, args, result, True)
            return result

        return wrapper

    def _wrap_class(self, cls, module, originals):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{module}.{cls.__name__}.{attr}"
            if isinstance(val, (staticmethod, classmethod)):
                setattr(cls, attr, type(val)(self._wrap(val.__func__, module, name)))
            elif inspect.isfunction(val):
                wrapped = self._wrap(val, module, name)
                originals[id(val)] = (val, wrapped)
                setattr(cls, attr, wrapped)

    def install(self):
        originals = {}
        for m in MODULES:
            mod = importlib.import_module(f"qlie.{m}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self._wrap(obj, m, f"{m}.{name}"))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, m, originals)
        for modname, mod in list(sys.modules.items()):
            if modname != "qlie" and not modname.startswith("qlie."):
                continue
            for name, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, name, hit[1])
        builtins.open = io.open = self._counting_open(io.open)

    def _counting_open(self, real_open):
        tracer = self

        @functools.wraps(real_open)
        def counting_open(file, *args, **kwargs):
            mode = args[0] if args else kwargs.get("mode", "r")
            if (tracer._inputs and isinstance(file, (str, os.PathLike))
                    and not _WRITE_MODES & set(mode)
                    and os.path.normpath(os.fspath(file)) in tracer._inputs):
                tracer.count["formats.input_reads"] += 1
            return real_open(file, *args, **kwargs)

        return counting_open

    # -- counters taken at the boundaries ---------------------------------------

    def _hooks(self, module, name):
        """(before, after) callbacks for the functions that feed a named counter."""
        count, peak = self.count, self.peak
        method = name.rsplit(".", 1)[-1]

        if module == "linalg":
            def after(_, args, result, outermost):
                if not outermost or not args:
                    return
                rows = args[0]
                try:
                    widths = [len(row) for row in rows]
                    nonzero = sum(1 for row in rows for x in row if x)
                except TypeError:
                    return
                count["linalg.cells"] += sum(widths)
                count["linalg.nonzeros"] += nonzero
                peak["linalg.max_cols"] = max(peak["linalg.max_cols"], max(widths, default=0))
            return None, after

        if name == "scalars.Polynomial.__mul__":
            def after(_, args, result, outermost):
                peak["scalars.max_terms"] = max(peak["scalars.max_terms"], len(result.terms))
            return None, after

        if module == "tensors":
            from qlie.tensors import Multivector, SparseTensor

            kinds = (Multivector, SparseTensor)

            def after(_, args, result, outermost):
                obj = args[0] if method == "__init__" and args else result
                if isinstance(obj, kinds):
                    peak["tensors.max_support"] = max(peak["tensors.max_support"], len(obj.data))
            return None, after

        if name == "polyvectors.PolyVectorAlgebra.__init__":
            def after(_, args, result, outermost):
                ref = weakref.ref(args[0])
                self._job_algebras.append(ref)
                self._all_algebras.append(ref)
            return None, after

        if name == "mc.WeightGradedDGLA.bracket_structure":
            def before(args):
                return len(getattr(args[0], "brackets", ()))

            def after(size, args, result, outermost):
                if len(getattr(args[0], "brackets", ())) > size:
                    count["mc.structure_entries"] += len(result)
            return before, after

        if name == "mc.WeightGradedDGLA.apply_bracket":
            def after(_, args, result, outermost):
                if len(args) < 5:
                    return
                dgla, k1, v1, k2, v2 = args[:5]
                struct = getattr(dgla, "brackets", {}).get((k1, k2))
                if struct:
                    count["mc.pairs_used"] += sum(1 for i in v1 for j in v2 if struct.get((i, j)))
            return None, after

        return None, None

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        gc.collect()
        c, p = self.count, self.peak
        out = {}
        for m in MODULES:
            out[f"{m}.calls"] = self.calls[m]
            out[f"{m}.self_s"] = self.self_s[m]
        cells = c["linalg.cells"]
        bm_calls = c["polyvectors.bracket_monos_calls"]
        entries = c["mc.structure_entries"]
        out.update({
            "linalg.cells": cells,
            "linalg.density": c["linalg.nonzeros"] / cells if cells else 0.0,
            "linalg.max_cols": p["linalg.max_cols"],
            "scalars.ratfun_ops": c["scalars.ratfun_ops"],
            "scalars.poly_mul": c["scalars.poly_mul"],
            "scalars.max_terms": p["scalars.max_terms"],
            "scalars.parse_calls": c["scalars.parse_calls"],
            "lie.ce_differential_calls": c["lie.ce_differential_calls"],
            "lie.module_action_calls": c["lie.module_action_calls"],
            "tensors.max_support": p["tensors.max_support"],
            "polyvectors.bracket_monos_calls": bm_calls,
            "polyvectors.bracket_cache_hit_ratio":
                1.0 - c["polyvectors.cache_entries"] / bm_calls if bm_calls else 0.0,
            "polyvectors.algebras_retained": sum(1 for r in self._all_algebras if r() is not None),
            "mc.structure_entries": entries,
            "mc.bracket_useful_ratio": c["mc.pairs_used"] / entries if entries else 0.0,
            "formats.reads_per_input":
                c["formats.input_reads"] / c["formats.input_files"] if c["formats.input_files"] else 0.0,
            "trace.spans": len(self.spans) + self.dropped,
            "trace.spans_dropped": self.dropped,
        })
        return out

    def write_spans(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "job"],
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
