"""Command-line harness.

Four subcommands::

    lab run <config.json> [flags]     full experiment from a config file
    lab bounds --matrix A.mtx --depths 1..5
                                      experiment assembled from flags only
    lab fov --matrix A.mtx --samples 720
                                      boundary scan of the field of values
    lab ideal --matrix A.mtx -k 3     one ideal-GMRES minimization

Flags override config fields.  Exit codes follow the experiment runner:
0 all checks passed, 1 an inequality failed beyond slack, 2 I/O or parse
trouble, 3 non-certified result under --strict, 4 a solver or kernel
failure (a LAPACK failure included).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import experiment, fov, mmio
from .errors import InvalidSpec, check_depth, write_text
from .experiment import EXIT_IO, EXIT_NOT_CERTIFIED, EXIT_OK, EXIT_SOLVER_FAILED
from .minimax import ideal_gmres
from .reporting import format_real

__all__ = ["main", "parse_depths"]


def parse_depths(text: str) -> List[int]:
    """Parse ``"3"``, ``"1,2,4"``, or ``"1..5"`` (ranges are inclusive)."""
    depths = []
    for token in text.split(","):
        token = token.strip()
        try:
            if ".." in token:
                lo_text, hi_text = token.split("..", 1)
                lo, hi = int(lo_text), int(hi_text)
            else:
                lo = hi = int(token)
        except ValueError:
            raise InvalidSpec(f"cannot parse depth token {token!r}") from None
        if hi < lo:
            raise InvalidSpec(f"empty depth range {token!r}")
        check_depth(hi)
        depths.extend(range(lo, hi + 1))
    return sorted(set(depths))


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trials", type=int, default=None, help="r0 samples per depth")
    sub.add_argument("--seed", type=int, default=None, help="master RNG seed")
    sub.add_argument("--out-dir", default=None, help="output directory")
    sub.add_argument(
        "--strict",
        action="store_true",
        default=None,
        help="exit 3 when a minimization is not certified",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="GMRES bound verification laboratory",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("config", help="path to the config JSON file")
    run.add_argument("--matrix", default=None, help="Matrix Market file override")
    run.add_argument("--depths", default=None, help='e.g. "1..5" or "1,2,3"')
    _add_common_flags(run)
    run.set_defaults(func=_cmd_run)

    bounds_cmd = subs.add_parser("bounds", help="run the bound checks on one matrix")
    bounds_cmd.add_argument("--matrix", required=True, help="Matrix Market file")
    bounds_cmd.add_argument("--depths", default="1..3", help='e.g. "1..5"')
    _add_common_flags(bounds_cmd)
    bounds_cmd.set_defaults(func=_cmd_bounds)

    fov_cmd = subs.add_parser("fov", help="scan the field-of-values boundary")
    fov_cmd.add_argument("--matrix", required=True, help="Matrix Market file")
    fov_cmd.add_argument("--samples", type=int, default=720, help="scan angles")
    fov_cmd.add_argument("--out", default=None, help="CSV path (default: stdout)")
    fov_cmd.set_defaults(func=_cmd_fov)

    ideal_cmd = subs.add_parser("ideal", help="one ideal-GMRES minimization")
    ideal_cmd.add_argument("--matrix", required=True, help="Matrix Market file")
    ideal_cmd.add_argument("-k", "--depth", type=int, required=True, dest="k")
    ideal_cmd.add_argument("--strict", action="store_true")
    ideal_cmd.set_defaults(func=_cmd_ideal)

    return parser


def _overrides_from(args: argparse.Namespace) -> dict:
    overrides = {
        "trials": args.trials,
        "seed": args.seed,
        "out_dir": args.out_dir,
        "strict": args.strict,
    }
    if getattr(args, "matrix", None):
        overrides["matrix"] = {"family": "file", "path": args.matrix}
    if getattr(args, "depths", None):
        overrides["depths"] = parse_depths(args.depths)
    return overrides


def _run_and_summarize(cfg: experiment.ExperimentConfig) -> int:
    code = experiment.run_experiment(cfg)
    if code in (EXIT_IO, EXIT_SOLVER_FAILED):
        return code
    plot = ", plot.svg" if cfg.plot else ""
    print(f"wrote report.json, curves.csv{plot} to {cfg.out_dir}")
    if code == EXIT_OK:
        print("all checks passed")
    elif code == experiment.EXIT_BOUND_FAILED:
        print("FAILED: an inequality exceeded its slack (see report.json)")
    elif code == EXIT_NOT_CERTIFIED:
        print("non-certified minimization under --strict (see report.json)")
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = experiment.load_config(args.config, overrides=_overrides_from(args))
    return _run_and_summarize(cfg)


def _cmd_bounds(args: argparse.Namespace) -> int:
    raw = {k: v for k, v in _overrides_from(args).items() if v is not None}
    return _run_and_summarize(experiment.ExperimentConfig.from_dict(raw))


def _cmd_fov(args: argparse.Namespace) -> int:
    a = mmio.read_matrix_market(args.matrix)
    b = fov.fov_boundary(a, args.samples)
    rows = zip(b.angles, b.points.real, b.points.imag, b.support_min, b.support_max)
    lines = ["theta,point_re,point_im,support_min,support_max"]
    lines.extend(",".join(map(format_real, row)) for row in rows)
    text = "\n".join(lines) + "\n"

    data = fov.fov_summary(a)
    summary = (
        f"nu(F(A)) = {format_real(data.nu_a)}\n"
        f"nu(F(inv(A))) = {format_real(data.nu_ainv)}\n"
    )
    if args.out is None:
        sys.stdout.write(text)
        sys.stderr.write(summary)
    else:
        write_text(args.out, text)
        sys.stdout.write(summary)
        print(f"wrote {len(b.angles)} boundary samples to {args.out}")
    return EXIT_OK


def _cmd_ideal(args: argparse.Namespace) -> int:
    a = mmio.read_matrix_market(args.matrix)
    check_depth(args.k, a.shape[0])
    result = ideal_gmres(a, args.k)
    print(f"ideal(k={args.k}) = {format_real(result.value)}")
    print(f"certified lower bound = {format_real(result.lower_bound)}")
    print(f"gap = {format_real(result.upper_bound - result.lower_bound)}")
    print(f"certified = {'yes' if result.certified else 'no'}")
    factors = " * ".join(f"(1 - z/t{j})" for j in range(1, result.roots.size + 1))
    print(f"residual polynomial p(z) = {factors or 1}")
    for j, t in enumerate(result.roots, start=1):
        print(f"  t{j} = {format_real(t.real)} + {format_real(t.imag)}j")
    if args.strict and not result.certified:
        return EXIT_NOT_CERTIFIED
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return experiment.guarded(args.func, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
