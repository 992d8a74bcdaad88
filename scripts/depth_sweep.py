#!/usr/bin/env python3
"""Sweep the verification depth on one matrix and tabulate the decay.

Shows how the sampled GMRES ratios, the worst-case and ideal values, and
the two a-priori bounds shrink together as the depth grows, and how wide
the certification gap of the ideal minimization stays.

Usage::

    python3 scripts/depth_sweep.py --n 7 --max-depth 5
    python3 scripts/depth_sweep.py --matrix my_matrix.mtx --max-depth 4
"""

import argparse
import json
import sys
from pathlib import Path

from gmreslab import ExperimentConfig, run_experiment
from gmreslab.experiment import EXIT_IO, EXIT_SOLVER_FAILED, guarded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--matrix", default=None, help="Matrix Market file")
    parser.add_argument("--n", type=int, default=7, help="size of the default random matrix")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-depth", type=int, default=5)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--out-dir", default="out/depth_sweep")
    args = parser.parse_args(argv)

    if args.matrix is not None:
        matrix = {"family": "file", "path": args.matrix}
    else:
        matrix = {"family": "random_pd_part", "n": args.n, "seed": args.seed}

    raw = {
        "matrix": matrix,
        "depths": list(range(1, args.max_depth + 1)),
        "trials": args.trials,
        "seed": args.seed,
        "out_dir": args.out_dir,
    }
    code = guarded(lambda: run_experiment(ExperimentConfig.from_dict(raw)))
    if code in (EXIT_IO, EXIT_SOLVER_FAILED):  # no report was written
        return code

    doc = json.loads((Path(args.out_dir) / "report.json").read_text())
    print(f"{'k':>2} {'gmres_med':>11} {'worst':>11} {'ideal':>11} "
          f"{'ideal_gap':>11} {'fov_rhs':>11} {'elman_rhs':>11} verdicts")
    for report in doc["reports"]:
        gap = report["ideal"] - report["ideal_lower"]
        elman = report["elman_rhs"]
        elman_text = "n/a" if elman is None else format(elman, ".6f")
        flags = "".join(
            "P" if verdict["passed"] else "F"
            for _, verdict in sorted(report["verdicts"].items())
        )
        print(
            f"{report['k']:>2}"
            f" {report['gmres']['median']:>11.6f}"
            f" {report['worst_case']:>11.6f}"
            f" {report['ideal']:>11.6f}"
            f" {gap:>11.2e}"
            f" {report['starke_rhs']:>11.6f}"
            f" {elman_text:>11}"
            f" {flags}"
        )
    print(f"\nreport.json, curves.csv, plot.svg written to {args.out_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
