#!/usr/bin/env python3
"""kleincert benchmark: time to verdict on five workloads, per-layer attribution.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced
    python3 perfbench/run.py --selfcheck           # metric names and the output gate

Every workload runs in fresh child processes (``perfbench/child.py``), one
operation at a time with no threads.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` prints its per-layer metrics, taken
from one traced operation, plus the ratio of that operation's wall time to an
untraced one.  The last line of stdout is the result object; the line before
it is the environment stamp.  Exit status is 0 when a result was printed,
even if some operation failed its checks (``correct`` is then false), and
non-zero when no result could be produced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402

#: Set-up-only child processes started per untraced run, besides the workload's own.
SETUP_SAMPLES = 19
#: A run gives up (and prints no result) after this many seconds.
DEADLINE_S = 175.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}

PER_LAYER = {
    **{
        f"{module}.{function}.{kind}": unit
        for module, function in LAYERS
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    },
    "certify_embed.witnesses_rho": "count",
    "certify_embed.witnesses_manual": "count",
    "certify_embed.witness_max_n": "index",
    "certify_embed.rho_useful_ratio": "ratio",
    "search.hill_climb.accepts": "count",
    "search.newton_refine.iterations": "count",
    "trace.named_layer_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class RunFailed(Exception):
    """No result can be produced (missing program, child crash, deadline)."""


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"]}, {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _commit() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        value = _read(git / ref).strip()
        if not value:
            for line in _read(git / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    value = line.split()[0]
        return value or "unknown"
    return head or "unknown"


def _source_digest() -> str:
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            hasher.update(str(path.relative_to(ROOT)).encode() + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def environment_stamp(seed: int) -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": _read("/proc/loadavg").strip(),
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _child(deadline: float, workload: str, seed: int, seconds: float, *extra: str):
    """Start one child; return (set-up seconds, parsed result line or None)."""
    argv = [
        sys.executable, "-I", str(CHILD),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), *extra,
    ]
    began = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - began
        if ready != b"READY\n":
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            raise RunFailed(f"child set-up failed (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"child for {workload} passed the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RunFailed(f"child for {workload} exited with status {proc.returncode}")
    return setup_s, (json.loads(rest) if rest.strip() else None)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, corrupt: bool = False):
    """One benchmark run: (correct, attempted, failed, metrics without units)."""
    deadline = time.monotonic() + DEADLINE_S
    extra = ("--corrupt-golden",) if corrupt else ()
    if trace:
        _, plain = _child(deadline, workload, seed, seconds, "--max-ops", "1", *extra)
        _, traced = _child(deadline, workload, seed, seconds, "--max-ops", "1", "--trace", *extra)
        ops = plain["ops"] + traced["ops"]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["ops"][0]["wall_s"] / plain["ops"][0]["wall_s"]
    else:
        setups = [_child(deadline, workload, seed, seconds, "--setup-only")[0]
                  for _ in range(SETUP_SAMPLES)]
        setup_s, result = _child(deadline, workload, seed, seconds, *extra)
        ops = result["ops"]
        passed = sum(1 for op in ops if not op["failed"])
        metrics = {
            "setup_s": statistics.median(setups + [setup_s]),
            "wall_s": statistics.median(op["wall_s"] for op in ops),
            "cpu_s": statistics.median(op["cpu_s"] for op in ops),
            "peak_rss_mb": result["maxrss_kb"] * 1024 / 1e6,
            "pass_rate": passed / len(ops),
        }
    failed = sum(1 for op in ops if op["failed"])
    return failed == 0, len(ops), failed, metrics


def _with_units(metrics: dict, declared: dict) -> dict:
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise RunFailed(f"emitted metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {name: {"value": metrics[name], "unit": declared[name]} for name in declared}


def _check_declarations(end_to_end: dict, per_layer: dict) -> list:
    problems = []
    for label, ours, theirs in (("end_to_end", END_TO_END, end_to_end), ("per_layer", PER_LAYER, per_layer)):
        for name in sorted(set(ours) | set(theirs)):
            if ours.get(name) != theirs.get(name):
                problems.append(f"{label} {name}: harness {ours.get(name)!r}, BENCHMARK.json {theirs.get(name)!r}")
    return problems


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def selfcheck() -> int:
    """A wrong golden digest must fail every operation; the committed ones none.

    ``main`` has already checked the declared metric names and units.
    """
    problems = []
    # seed 0 makes the first climb operation use the default search seed,
    # whose result mesh is compared with its golden digest
    good = run_workload("climb", 0, 0.1, trace=False)
    bad = run_workload("climb", 0, 0.1, trace=False, corrupt=True)
    if not good[0]:
        problems.append(f"climb with the committed golden digests failed: {good}")
    if bad[2] != bad[1]:
        problems.append(f"climb with a wrong golden digest still passed: {bad}")
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    spec, end_to_end, per_layer = _declared()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kleincert" / "__init__.py").is_file():
        print(f"error: no kleincert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = _check_declarations(end_to_end, per_layer)
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")

    declared = per_layer if args.trace else end_to_end
    stamp = environment_stamp(args.seed)
    results = {}
    try:
        for name in names if args.workload == "all" else [args.workload]:
            correct, attempted, failed, metrics = run_workload(
                name, args.seed, args.seconds, bool(args.trace)
            )
            results[name] = {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": _with_units(metrics, declared),
            }
            for metric, entry in results[name]["metrics"].items():
                print(f"{name:11s} {metric:40s} {entry['value']:.6g} {entry['unit']}")
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)
    stamp["loadavg_end"] = _read("/proc/loadavg").strip()
    print(json.dumps({"environment": stamp}))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
