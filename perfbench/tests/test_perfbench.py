"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import ast
import filecmp
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import answers  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402

GENERATOR_FILES = ("gen.py", "workloads.py", "answers.py")


def env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    jobs_a = workloads.build(workload, 7, str(a))
    jobs_b = workloads.build(workload, 7, str(b))
    workloads.build(workload, 8, str(c))
    assert jobs_a == jobs_b
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors
    differs = [n for n in names if n.endswith("_g.json") and (c / n).exists()
               and (a / n).read_text() != (c / n).read_text()]
    assert differs, "another seed must relabel the inputs"


def test_generator_imports_no_qlie():
    for name in GENERATOR_FILES:
        tree = ast.parse(open(os.path.join(BENCH, name), encoding="utf-8").read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "qlie" for a in node.names), name
            if isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "qlie", name
    code = (
        "import sys, tempfile\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "import workloads\n"
        "for w in workloads.WORKLOADS:\n"
        "    workloads.build(w, 1, tempfile.mkdtemp())\n"
        "bad = [m for m in sys.modules if m == 'qlie' or m.startswith('qlie.')]\n"
        "assert not bad, bad\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env_with_src(), timeout=120)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_job_has_a_known_answer(tmp_path, workload):
    jobs = workloads.build(workload, 3, str(tmp_path))
    assert sum(1 for j in jobs if j["largest"]) == 1
    assert len({j["id"] for j in jobs}) == len(jobs)
    for job in jobs:
        ans = job["answer"]
        assert ans["exit"] in (0, 1, 2)
        assert ans["why"].strip()
        assert ans["checks"]
        if not job["kind"].startswith("invariants"):
            assert ans == answers.lookup(job["kind"])
        for f in job["inputs"]:
            assert f in job["argv"]


def test_every_answer_is_used(tmp_path):
    kinds = set()
    for w in workloads.WORKLOADS:
        kinds |= {j["kind"] for j in workloads.build(w, 1, str(tmp_path / w))}
    assert set(answers.ANSWERS) <= kinds


def test_generated_algebras_satisfy_jacobi():
    algebras = [gen.sl(n) for n in (2, 3, 4, 5)]
    algebras += [gen.direct_sum(gen.sl(3), gen.sl(2)), gen.heisenberg(5), gen.abelian(4)]
    for g in algebras:
        for i, j, k in combinations(range(g.dim), 3):
            assert not jacobiator(g, i, j, k), (g.name, i, j, k)
    broken = gen.jacobi_breaking(gen.sl(2))
    assert any(jacobiator(broken, *t) for t in combinations(range(3), 3))


def jacobiator(g, i, j, k):
    out = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for m, s in g.bracket(b, c).items():
            for n, t in g.bracket(a, m).items():
                out[n] = out.get(n, Fraction(0)) + s * t
    return {n: v for n, v in out.items() if v}


def one_job_per_kind(tmp_path):
    jobs = workloads.build("cli-batch", 5, str(tmp_path))
    picked, seen = [], set()
    for job in jobs:
        if job["kind"] not in seen or job["largest"]:
            seen.add(job["kind"])
            picked.append(job)
    (tmp_path / "jobs.json").write_text(json.dumps(picked))
    return picked


def run_pass(tmp_path, name, traced):
    out = tmp_path / f"{name}.json"
    cmd = [sys.executable, os.path.join(BENCH, "passrun.py"), "--src", os.path.join(ROOT, "src"),
           "--workdir", str(tmp_path), "--out", str(out)]
    if traced:
        cmd += ["--trace", str(tmp_path / "spans.jsonl")]
    subprocess.run(cmd, check=True, timeout=170)
    return json.loads(out.read_text())


def test_traced_and_untraced_passes_agree(tmp_path):
    jobs = one_job_per_kind(tmp_path)
    plain = run_pass(tmp_path, "plain", traced=False)
    traced = run_pass(tmp_path, "traced", traced=True)
    assert len(plain["jobs"]) == len(traced["jobs"]) == len(jobs)
    for job, a, b in zip(jobs, plain["jobs"], traced["jobs"]):
        assert a["id"] == b["id"] == job["id"]
        for key in ("error", "digest", "exit", "checks", "dimension"):
            assert a.get(key) == b.get(key), (job["kind"], key)
        if a["error"] is None:
            assert answers.verdict_matches(job["answer"], a), job["kind"]
        else:
            assert not answers.crash_is_wrong(job["answer"]), (job["kind"], a["error"])
    assert all(r["reference_s"] > 0 for r in plain["jobs"] + traced["jobs"])
    metrics = traced["trace"]
    assert metrics["cli.calls"] >= len(jobs)
    assert metrics["formats.reads_per_input"] > 0
    assert "trace" not in plain
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["fields"][:2] == ["id", "name"]
    assert len(lines) > len(jobs)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
