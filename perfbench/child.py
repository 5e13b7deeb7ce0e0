"""One benchmark process: set up, then run one workload's operations in a closed loop.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:

1. ``READY`` once kleincert is imported and the packaged inputs are parsed
   (the parent times set-up up to this line);
2. one JSON line with every operation's wall and CPU time and failed checks,
   the process's peak resident set size and, in a traced run, the per-layer
   metrics.

Anything kleincert prints goes to stderr or is captured, so the protocol lines
are the only stdout.  A traced operation that records no call of a layer its
workload must reach, or a call of one it must not reach, exits with status 3.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_kleincert() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kleincert

    if not Path(kleincert.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"kleincert imported from {kleincert.__file__}, not {src}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--max-ops", type=int, default=1000)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-golden", action="store_true")
    args = parser.parse_args()

    protocol = sys.stdout
    sys.stdout = sys.stderr

    golden = json.loads((HERE / "golden.json").read_text())
    if args.corrupt_golden:
        golden = {key: "0" * 64 for key in golden}
    sys.path.insert(0, str(HERE))
    _import_kleincert()
    import workloads

    env = workloads.setup(golden)
    protocol.write("READY\n")
    protocol.flush()
    if args.setup_only:
        return 0

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    os.chdir(workdir)
    try:
        ops, out = _closed_loop(args, env, workload, tracer)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)

    result = {
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(args.workload, workload, workloads, tracer, out, ops)
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


def _closed_loop(args, env, workload, tracer):
    """Run operations one after another until the next would overrun ``seconds``."""
    ops = []
    out = None
    began = time.perf_counter()
    for k in range(args.max_ops):
        op_input = workload.make_input(env, args.seed, k)
        out = None
        failures = []
        captured = io.StringIO()
        with contextlib.redirect_stderr(captured):
            if tracer is not None:
                tracer.active = True
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                out = workload.run(env, op_input)
            except Exception as exc:  # a failed operation is a measured outcome
                failures.append(f"raised {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.__stderr__)
            wall1, cpu1 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.active = False
            if not failures:
                failures = workload.check(env, op_input, out)
        for failure in failures:
            print(f"check failed [{args.workload} op {k}]: {failure}", file=sys.stderr)
        ops.append({"wall_s": wall1 - wall0, "cpu_s": cpu1 - cpu0, "failed": failures})
        elapsed = wall1 - began
        if elapsed + (wall1 - wall0) > args.seconds:
            break
    return ops, out


def _layer_metrics(name, workload, workloads, tracer, out, ops) -> dict:
    per_function = tracer.per_function()
    problems = [
        f"{layer} recorded no call" for layer in workload.required if per_function[layer][0] == 0
    ] + [
        f"{layer} recorded {per_function[layer][0]} calls, expected none"
        for layer in workload.forbidden
        if per_function[layer][0] != 0
    ]
    if problems:
        for problem in problems:
            print(f"trace check failed [{name}]: {problem}", file=sys.stderr)
        sys.exit(3)
    metrics = {}
    for layer, (calls, self_s) in per_function.items():
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    metrics.update(
        workloads.layer_counters(
            name, out, tracer.results, per_function["certify_embed.rho"][0]
        )
    )
    metrics["trace.named_layer_share"] = tracer.covered_seconds(workload.named) / ops[0]["wall_s"]
    return metrics


if __name__ == "__main__":
    sys.exit(main())
