#!/usr/bin/env python3
"""Empirical hill-climb run: lattice sketch to numerically flat heights.

Starts from an integer-lattice sketch of the candidate surface (the
historical search began from an external database of lattice embeddings,
which this artifact does not ship; the sketch places each candidate vertex
at the nearest point of the 5x5x5 lattice, k = round(3c + 2) per
coordinate, and is combinatorially identical).  The sketch is rescaled
into the model ball and the greedy random search runs for --steps
iterations at 50 digits with the default seed and schedule.  The
accept-by-accept trajectory is written to hill_climb_run.json next to
this script, so the run is fully reproducible: same seed, same
trajectory, bit for bit.

Usage:  python3 hill_climb_demo.py [--steps N] [--seed S]
"""

import argparse
import json
import time
from importlib import resources
from pathlib import Path

from kleincert.cli_io import load_mesh
from kleincert.mesh import Triangulation
from kleincert.search import (
    RNG_ALGORITHM,
    SearchConfig,
    hill_climb,
    objective,
    prepare_from_lattice,
)


def lattice_sketch() -> tuple[Triangulation, list[tuple[int, int, int]]]:
    """The candidate's triangulation and its nearest 5x5x5 lattice points."""
    packaged = resources.files("kleincert.data").joinpath("candidate_surface.json")
    with resources.as_file(packaged) as path:
        candidate = load_mesh(path)
    points = [
        tuple(int(round(3 * float(c) + 2)) for c in p) for p in candidate.coords
    ]
    if any(not 0 <= c <= 4 for p in points for c in p):
        raise AssertionError("sketch left the 5x5x5 lattice")
    return candidate.triangulation, points


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()

    tri, points = lattice_sketch()
    start = prepare_from_lattice(tri, points)
    config = SearchConfig(rng_seed=args.seed)
    initial = objective(start, config.climb_precision)
    print(f"start objective: {initial}")
    print(f"generator: {RNG_ALGORITHM}, seed {config.rng_seed}, "
          f"initial step {config.initial_step}, decay after "
          f"{config.decay_rejections} consecutive rejections")

    record: dict = {}
    history: list = []
    t0 = time.time()
    result = hill_climb(start, config, steps=args.steps, record=record, history=history)
    elapsed = time.time() - t0

    print(f"finished {args.steps} steps in {elapsed:.0f}s: "
          f"{record['accepts']} accepts, final objective {record['final_objective']}")

    out = {
        "algorithm": record["algorithm"],
        "seed": record["seed"],
        "initial_step": str(config.initial_step),
        "decay_rejections": config.decay_rejections,
        "climb_precision": config.climb_precision,
        "steps": record["steps"],
        "accepts": record["accepts"],
        "initial_objective": str(initial),
        "final_objective": str(record["final_objective"]),
        "final_step": str(record["final_step"]),
        "elapsed_seconds": round(elapsed, 1),
        "lattice_points": [list(p) for p in points],
        "accept_trajectory": [[k, str(v)] for k, v in history],
        "final_vertices": [[str(c) for c in (p.x, p.y, p.z)] for p in result.coords],
    }
    path = Path(__file__).with_name("hill_climb_run.json")
    path.write_text(json.dumps(out, indent=1))
    print(f"trajectory recorded in {path}")


if __name__ == "__main__":
    main()
