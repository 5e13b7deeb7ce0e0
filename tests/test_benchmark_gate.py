"""The benchmark's per-layer gate, run as a test.

``perfbench/run.py --trace 1`` checks each workload's result (the climb
against its golden digest) and that the layers it attributes time to were
called.  A kernel rewrite that breaks either shows up here, not only when
the benchmark runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["verify-all", "premises", "climb", "refine", "reject"])
def test_traced_workload_is_correct(workload):
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "0.1", "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
