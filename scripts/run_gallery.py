#!/usr/bin/env python3
"""Run the full verification pipeline over a small gallery of matrices.

Each gallery entry exercises a different regime: normal versus defective,
definite versus indefinite Hermitian part, a case where the origin sits
inside the field of values so the bound degenerates to 1, and points on an
arc of the unit circle, where ideal = worst case = Starke at k = 1 and the
``ideal_le_starke`` margin is at rounding level.  Outputs land in one
subdirectory per entry.

Usage::

    python3 scripts/run_gallery.py [--out-dir out/gallery] [--trials 20]
"""

import argparse
import json
import math
import sys
from pathlib import Path

from gmreslab import ExperimentConfig, run_experiment
from gmreslab.experiment import EXIT_IO, EXIT_SOLVER_FAILED, guarded

GALLERY = {
    "diag_real": {"family": "diagonal", "entries": [1.0, 2.0, 3.0, 4.0]},
    "diag_complex": {
        "family": "diagonal",
        "entries": [[1.0, 0.5], [2.0, -0.5], [3.0, 0.25]],
    },
    "jordan_block": {"family": "jordan", "n": 5, "lam": 1.0},
    "bidiagonal": {
        "family": "bidiagonal",
        "diag": [1.0, 1.5, 2.0, 2.5],
        "superdiag": 0.6,
    },
    "random_pd_part": {"family": "random_pd_part", "n": 8, "seed": 3},
    "normal_random": {"family": "normal_random", "n": 6, "seed": 11},
    "arc": {
        "family": "diagonal",
        "entries": [[math.cos(t), math.sin(t)] for t in (0.0, 0.5, 1.0)],
    },
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="out/gallery")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--depths", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    worst_code = 0
    for name, matrix in GALLERY.items():
        out = Path(args.out_dir) / name
        raw = {
            "matrix": matrix,
            "depths": args.depths,
            "trials": args.trials,
            "seed": args.seed,
            "out_dir": str(out),
        }
        code = guarded(lambda: run_experiment(ExperimentConfig.from_dict(raw)))
        if code in (EXIT_IO, EXIT_SOLVER_FAILED):  # no report was written
            return code
        worst_code = max(worst_code, code)
        doc = json.loads((out / "report.json").read_text())
        print(f"\n=== {name} (exit {code}) ===")
        header = f"{'k':>2} {'gmres_max':>12} {'worst':>12} {'ideal':>12} {'fov_rhs':>12} {'elman_rhs':>12}"
        print(header)
        for report in doc["reports"]:
            elman = report["elman_rhs"]
            elman_text = "n/a" if elman is None else format(elman, ".6f")
            print(
                f"{report['k']:>2}"
                f" {report['gmres']['max']:>12.6f}"
                f" {report['worst_case']:>12.6f}"
                f" {report['ideal']:>12.6f}"
                f" {report['starke_rhs']:>12.6f}"
                f" {elman_text:>12}"
            )
    print(f"\ngallery reports written under {args.out_dir}")
    return worst_code


if __name__ == "__main__":
    sys.exit(main())
