"""One benchmark pass, run in a fresh interpreter by run.py.

    python3 passrun.py --src SRC --workdir DIR --out RESULT.json [--trace SPANS.jsonl]

Imports qlie from SRC, changes into DIR (where jobs.json and the inputs
are) and runs every job once through `qlie.cli.run`, one job at a time.
Without --trace the program runs unmodified.  With --trace the wrappers
of tracer.py are installed first and the per-module metrics are added
to the result.  The result file holds, per job, its time to verdict,
the time of the reference loop around it (reference.py), exit code,
check statuses, report digest or the exception it raised.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

from reference import reference_s

IGNORED_REPORT_KEYS = ("timing_ms", "metrics")
REFERENCE_EVERY_S = 0.5


def report_digest(report: dict) -> str:
    """sha256 of the report without its non-deterministic fields."""
    kept = {k: v for k, v in report.items() if k not in IGNORED_REPORT_KEYS}
    return hashlib.sha256(json.dumps(kept, sort_keys=True, default=str).encode()).hexdigest()


def report_facts(report: dict, code: int) -> dict:
    data = report.get("data")
    return {
        "exit": code,
        "checks": {c["name"]: c["status"] for c in report.get("checks", [])},
        "dimension": data.get("dimension") if isinstance(data, dict) else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None, help="write spans here and report per-module metrics")
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    out_path = os.path.abspath(args.out)
    spans_path = os.path.abspath(args.trace) if args.trace else None
    sys.path.insert(0, src)
    import qlie.cli  # noqa: E402  (imported from the checkout's source tree)

    if not os.path.abspath(qlie.cli.__file__).startswith(src + os.sep):
        print(f"qlie was imported from {qlie.cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if spans_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    os.chdir(args.workdir)
    with open("jobs.json", encoding="utf-8") as fh:
        jobs = json.load(fh)

    # The reference loop runs before the first job and again after every
    # REFERENCE_EVERY_S of job time; each job records the mean of the two
    # loops around it, so its time can be put at reference speed.
    results, stretch, before = [], [], reference_s()
    for n, job in enumerate(jobs, 1):
        scope = tracer.job(job["id"], job["inputs"]) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                report, code = qlie.cli.run(list(job["argv"]))
        except (Exception, SystemExit) as exc:  # a crash is a failed job, not a harness error
            elapsed = time.perf_counter() - t0
            rec = {"id": job["id"], "elapsed": elapsed,
                   "error": f"{type(exc).__name__}: {exc}"[:300]}
        else:
            elapsed = time.perf_counter() - t0
            rec = {"id": job["id"], "elapsed": elapsed, "error": None,
                   "digest": report_digest(report)}
            rec.update(report_facts(report, code))
        results.append(rec)
        stretch.append(rec)
        if n == len(jobs) or sum(r["elapsed"] for r in stretch) >= REFERENCE_EVERY_S:
            after = reference_s()
            for r in stretch:
                r["reference_s"] = (before + after) / 2
            stretch, before = [], after

    result = {
        "batch_s": sum(r["elapsed"] for r in results),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": results,
    }
    if tracer:
        result["trace"] = tracer.metrics()
        tracer.write_spans(spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
