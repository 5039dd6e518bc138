"""Pinned reports do not depend on the string hash seed.

Factor dicts of rational functions are keyed by `Polynomial` hashes, which
take the hash of the variable names, and each polynomial keeps the hash
it takes first.  So the pinned reports are checked again in fresh
interpreters under four `PYTHONHASHSEED` values, through the `--check`
mode of tests/test_reports_pinned.py.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("seed", ["0", "1", "7", "12345"])
def test_pinned_reports_agree_under_hash_seed(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "test_reports_pinned.py"), "--check"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    agree = re.search(r"(\d+) of (\d+) pinned reports agree", done.stdout)
    assert agree and agree.group(1) == agree.group(2), done.stdout
