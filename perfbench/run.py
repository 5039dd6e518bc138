"""qlie benchmark: seeded verification workloads, time to verdict, traced per-module run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qlie checkout.  NAME is one of invariants,
dynamical, bialgebra, cli-batch, or `all` for every workload in turn.

The run generates the workload's inputs from the seed (workloads.py, which
never imports qlie), measures set-up time, then runs passes over the job
list until S seconds are used, at least two.  Each pass is a fresh
interpreter (passrun.py) that runs every job once through
`qlie.cli.run`, one job at a time.  Every verdict is checked against its
known answer (answers.py) and every report digest must agree between
passes.  Times are reported at reference speed (reference.py): each wall
time is scaled by a fixed loop timed next to it, because the shared host's
speed changes by up to 1.9x from hour to hour.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones (tracer.py) and reports the per-module metrics
and the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import answers  # noqa: E402
from reference import REFERENCE_S, reference_s  # noqa: E402
import tracer  # noqa: E402  (standard library only until a pass installs it)
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_STARTS = 15
MIN_PASSES = 2
PASS_TIMEOUT_S = 170

END_TO_END = (
    ("batch_s", "s"),
    ("largest_job_s", "s"),
    ("ok_job_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PER_MODULE_UNITS = {"self_s": "s", "calls": "count"}
PER_LAYER_UNITS = {
    "linalg.cells": "count", "linalg.density": "ratio", "linalg.max_cols": "count",
    "scalars.ratfun_ops": "count", "scalars.poly_mul": "count", "scalars.max_terms": "count",
    "scalars.parse_calls": "count", "lie.ce_differential_calls": "count",
    "lie.module_action_calls": "count", "tensors.max_support": "count",
    "polyvectors.bracket_monos_calls": "count", "polyvectors.bracket_cache_hit_ratio": "ratio",
    "polyvectors.algebras_retained": "count", "mc.structure_entries": "count",
    "mc.bracket_useful_ratio": "ratio", "formats.reads_per_input": "ratio",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up start caches bytecode, as installs do
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def stamp() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "qlie")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return (f"stamp nproc={os.cpu_count()} python={platform.python_version()} "
            f"platform={platform.platform()} qlie_commit={commit} "
            f"qlie_src_sha256={digest.hexdigest()[:16]}")


def measure_setup() -> list:
    """Times at reference speed of fresh interpreters that import qlie.cli, after a warm-up start.

    This process and the interpreters it starts stay on one CPU, so the
    reference loops around a start see the host state the start ran in.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        times, before = [], reference_s()
        for i in range(SETUP_STARTS + 1):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", "import qlie.cli"], env=child_env(),
                                  cwd=ROOT, capture_output=True, timeout=60)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                raise BenchError("cannot import qlie.cli: "
                                 + proc.stderr.decode(errors="replace")[-500:])
            after = reference_s()
            if i:
                times.append(elapsed * REFERENCE_S / ((before + after) / 2))
            before = after
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def run_pass(workdir: str, index: int, traced: bool, spans_path: str) -> dict:
    out = os.path.join(workdir, f"pass-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--src", SRC, "--workdir", workdir,
           "--out", out]
    if traced:
        cmd += ["--trace", spans_path]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=PASS_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["wall_s"] = wall
    result["traced"] = traced
    return result


def run_passes(workdir: str, seconds: float, trace: bool, spans_path: str) -> list:
    """Passes until `seconds` are used (a pass that would overrun is not started)."""
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workdir, len(passes), traced, spans_path))
        used = time.perf_counter() - t0
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and used + typical > seconds:
            return passes


def judge(jobs: list, passes: list) -> dict:
    """Per job: the exceptions it raised, whether a verdict was wrong, whether its report changed."""
    verdicts = {}
    for i, job in enumerate(jobs):
        recs = [p["jobs"][i] for p in passes]
        digests = {r["digest"] for r in recs if r["error"] is None}
        verdicts[job["id"]] = {
            "crashed": sorted({r["error"] for r in recs if r["error"]}),
            # a crash on malformed input is a missing verdict; on valid input a wrong one
            "wrong": any(answers.crash_is_wrong(job["answer"]) if r["error"]
                         else not answers.verdict_matches(job["answer"], r) for r in recs),
            "changed": len(digests) > 1,
            "digest": digests.pop() if len(digests) == 1 else None,
            "exit": recs[0].get("exit"),
            "median_s": statistics.median(r["elapsed"] for r in recs),
        }
    return verdicts


def summary(values) -> str:
    if len(values) < 2:
        return f"one sample {values[0]:.4f}"
    q = statistics.quantiles(values, n=4, method="inclusive")
    return (f"median of {len(values)}; q1 {q[0]:.6f}, q3 {q[2]:.6f}; "
            f"samples {' '.join(f'{v:.4f}' for v in values)}")


def at_reference_speed(rec: dict) -> float:
    return rec["elapsed"] * REFERENCE_S / rec["reference_s"]


def job_seconds(jobs: list, passes: list) -> list:
    """Per job, the median over passes of its time to verdict at reference speed (reference.py)."""
    return [statistics.median(at_reference_speed(p["jobs"][i]) for p in passes)
            for i in range(len(jobs))]


def end_to_end_metrics(jobs, plain, setup, ok_jobs) -> dict:
    largest = next(i for i, j in enumerate(jobs) if j["largest"])
    per_job = job_seconds(jobs, plain)
    emit(f"wall time of a pass: {summary([p['batch_s'] for p in plain])}")
    emit(f"wall time of the largest job: {summary([p['jobs'][largest]['elapsed'] for p in plain])}")
    refs = sorted(r["reference_s"] for p in plain for r in p["jobs"])
    emit(f"reference loop around the jobs: fastest {refs[0]:.4f} s, median "
         f"{statistics.median(refs):.4f} s, slowest {refs[-1]:.4f} s")
    values = {
        "batch_s": (sum(per_job), f"at reference speed; sum over {len(jobs)} jobs of the "
                    f"median of {len(plain)} passes"),
        "largest_job_s": (per_job[largest], "at reference speed; " + summary(
            [at_reference_speed(p["jobs"][largest]) for p in plain])),
        "ok_job_ratio": (ok_jobs / len(jobs), f"{ok_jobs} of {len(jobs)} jobs"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain),
                        summary([p["rss_mb"] for p in plain])),
        "setup_s": (statistics.median(setup), "at reference speed; " + summary(setup)),
    }
    metrics = {}
    for metric, unit in END_TO_END:
        value, how = values[metric]
        emit(f"{metric} = {value:.6f} {unit} ({how})")
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def per_layer_metrics(plain, traced) -> dict:
    metrics = {}
    for key in traced[0]["trace"]:
        value = statistics.median(p["trace"][key] for p in traced)
        module, _, what = key.partition(".")
        unit = PER_LAYER_UNITS.get(key) or (PER_MODULE_UNITS.get(what) if module in tracer.MODULES
                                            else None)
        if unit:
            metrics[key] = {"value": value, "unit": unit}
        else:
            emit(f"{key} = {value}")
    jobs = plain[0]["jobs"]
    ratio = sum(job_seconds(jobs, traced)) / sum(job_seconds(jobs, plain))
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    for key in sorted(metrics):
        emit(f"{key} = {metrics[key]['value']} {metrics[key]['unit']}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    spans_path = os.path.join(OUT, f"spans-{name}-{seed}.jsonl")
    try:
        t0 = time.perf_counter()
        jobs = workloads.build(name, seed, workdir)
        emit(f"workload {name} seed={seed} jobs={len(jobs)} generated in "
             f"{time.perf_counter() - t0:.3f} s")
        setup = [] if trace else measure_setup()
        passes = run_passes(workdir, seconds, trace, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(WORK)

    verdicts = judge(jobs, passes)
    for job in jobs:
        v = verdicts[job["id"]]
        state = ("CRASH " + "; ".join(v["crashed"]) if v["crashed"] else
                 "WRONG" if v["wrong"] else "CHANGED" if v["changed"] else "ok")
        emit(f"job {job['id']} {job['kind']} exit={v['exit']} expect={job['answer']['exit']} "
             f"{state} median_s={v['median_s']:.6f} digest={v['digest']}")
    tally = {k: sum(1 for v in verdicts.values() if v[k]) for k in ("crashed", "wrong", "changed")}
    failed = sum(1 for v in verdicts.values() if v["crashed"] or v["wrong"] or v["changed"])
    emit(f"failed_job_ratio = {failed / len(jobs):.6f} ratio ({failed} of {len(jobs)} jobs: "
         f"crashed {tally['crashed']}, wrong verdict {tally['wrong']}, "
         f"report changed {tally['changed']})")

    plain = [p for p in passes if not p["traced"]]
    if trace:
        emit(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        metrics = per_layer_metrics(plain, [p for p in passes if p["traced"]])
    else:
        metrics = end_to_end_metrics(jobs, plain, setup, len(jobs) - failed)
    return {
        # a missing verdict counts in failed; a wrong or changing one is incorrect
        "correct": not (tally["wrong"] or tally["changed"]),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }


def emit(line: str):
    print(line, flush=True)


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps a running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description="qlie benchmark")
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qlie", "cli.py")):
        print(f"perfbench: no qlie source tree at {SRC}; run from the root of a qlie checkout",
              file=sys.stderr)
        return 2

    emit(stamp())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
