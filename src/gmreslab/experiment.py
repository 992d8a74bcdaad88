"""Experiment orchestration: one config in, three report files out.

A config is a single JSON document.  Example::

    {
      "matrix": {"family": "diagonal", "entries": [1.0, 2.0]},
      "depths": [1, 2],
      "trials": 20,
      "seed": 7,
      "solver": {"starts": 16, "tolerance": 1e-4},
      "out_dir": "out",
      "plot": true,
      "strict": false
    }

The top-level ``seed`` feeds every sampling and solver stream, so a config
fully determines the outputs.  Depths run on a thread pool; results are
sorted by depth before serialization, which makes ``report.json`` and
``curves.csv`` byte-identical across worker counts.

Exit codes returned by :func:`run_experiment`:

0
    every recorded inequality verdict passed.
1
    some inequality failed beyond its slack.
2
    configuration, I/O, or parse problem.
3
    strict mode and at least one minimization came back non-certified.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Tuple

from . import bounds, fov, matrices, reporting
from .errors import (
    FileError,
    InvalidSpec,
    LabError,
    ParseError,
    SingularMatrix,
    UnsupportedFormat,
    is_int,
)
from .matrices import MatrixSpec
from .minimax import MAX_DEPTH, SolverOptions

__all__ = [
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "resolve_workers",
]

EXIT_OK = 0
EXIT_BOUND_FAILED = 1
EXIT_IO = 2
EXIT_NOT_CERTIFIED = 3

_SOLVER_KEYS = frozenset(f.name for f in dataclasses.fields(SolverOptions))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    matrix: MatrixSpec
    depths: Tuple[int, ...]
    trials: int = 20
    seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)
    out_dir: str = "out"
    plot: bool = True
    strict: bool = False
    threads: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.depths:
            raise InvalidSpec("depths must be a non-empty list")
        for k in self.depths:
            if not is_int(k) or not 1 <= k <= MAX_DEPTH:
                raise InvalidSpec(
                    f"invalid depth {k!r}: need integer in 1..{MAX_DEPTH}"
                )
        if not is_int(self.trials) or self.trials < 1:
            raise InvalidSpec(f"trials must be an integer >= 1, got {self.trials!r}")
        if self.threads is not None and (not is_int(self.threads) or self.threads < 1):
            raise InvalidSpec(f"threads must be an integer >= 1, got {self.threads!r}")
        try:
            dataclasses.replace(self.solver, seed=self.seed)
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(f"invalid seed: {exc}") from None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise InvalidSpec("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise InvalidSpec(f"unknown config keys: {sorted(unknown)}")
        if "matrix" not in raw:
            raise InvalidSpec("config requires a 'matrix' entry")
        data = dict(raw)
        data["matrix"] = MatrixSpec.from_dict(data["matrix"])
        depths = data.get("depths", (1, 2, 3))
        if not isinstance(depths, (list, tuple)):
            raise InvalidSpec(f"depths must be a list, got {depths!r}")
        data["depths"] = tuple(depths)
        solver_raw = data.get("solver", {})
        if not isinstance(solver_raw, dict):
            raise InvalidSpec("'solver' must be an object")
        bad = set(solver_raw) - _SOLVER_KEYS
        if bad:
            raise InvalidSpec(f"unknown solver options: {sorted(bad)}")
        try:
            data["solver"] = SolverOptions(**solver_raw)
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(f"invalid solver options: {exc}") from None
        return cls(**data)


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read a JSON config file and apply CLI overrides on top."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", lineno=exc.lineno)
    if overrides:
        raw = dict(raw) if isinstance(raw, dict) else raw
        for key, value in overrides.items():
            if value is not None:
                raw[key] = value
    return ExperimentConfig.from_dict(raw)


def resolve_workers(requested: Optional[int], tasks: int) -> int:
    """Worker count after applying the LAB_THREADS environment cap."""
    count = requested if requested is not None else (os.cpu_count() or 1)
    cap = os.environ.get("LAB_THREADS")
    if cap is not None:
        try:
            cap_value = int(cap)
        except ValueError as exc:
            raise InvalidSpec(f"LAB_THREADS must be an integer, got {cap!r}") from exc
        if cap_value < 1:
            raise InvalidSpec(f"LAB_THREADS must be >= 1, got {cap_value}")
        count = min(count, cap_value)
    return max(1, min(count, tasks))


def _run_validated(cfg: ExperimentConfig) -> int:
    a = matrices.generate_matrix(cfg.matrix)
    n = a.shape[0]
    for k in cfg.depths:
        if k > n:
            raise InvalidSpec(f"depth {k} exceeds matrix dimension {n}")

    opts = dataclasses.replace(cfg.solver, seed=cfg.seed)
    fov_data = fov.fov_summary(a)

    def one_depth(k: int) -> bounds.BoundsReport:
        return bounds.verify_chain(a, k, cfg.trials, opts=opts, fov_data=fov_data)

    workers = resolve_workers(cfg.threads, len(cfg.depths))
    if workers == 1:
        reports = [one_depth(k) for k in cfg.depths]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(one_depth, cfg.depths))
    reports.sort(key=lambda r: r.k)

    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FileError(f"cannot create {out}: {exc}") from exc
    reporting.write_report_json(out / "report.json", cfg.matrix.to_dict(), reports)
    reporting.write_curves_csv(out / "curves.csv", reports)
    if cfg.plot:
        reporting.write_plot_svg(
            out / "plot.svg", reports, title=cfg.matrix.family
        )

    if any(not report.all_passed for report in reports):
        return EXIT_BOUND_FAILED
    if cfg.strict and any(not report.ideal_certified for report in reports):
        return EXIT_NOT_CERTIFIED
    return EXIT_OK


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the experiment, write outputs, return a process exit code."""
    try:
        return _run_validated(cfg)
    except (FileError, ParseError, UnsupportedFormat, InvalidSpec, SingularMatrix) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LabError as exc:
        # Anything else escaping the kernels means a solver bug, which is
        # what a failed inequality would indicate as well.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND_FAILED
