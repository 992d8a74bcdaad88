"""Experiment orchestration: one config in, three report files out.

A config is a single JSON document.  Example::

    {
      "matrix": {"family": "diagonal", "entries": [1.0, 2.0]},
      "depths": [1, 2],
      "trials": 20,
      "seed": 7,
      "out_dir": "out",
      "plot": true,
      "strict": false
    }

The top-level ``seed`` feeds every sampling and solver stream, and depths
run in ascending order, so a config fully determines the bytes of
``report.json`` and ``curves.csv``.

Exit codes returned by :func:`run_experiment` (codes 2 and 4 come from
:func:`guarded`, which the command line shares):

0
    every recorded inequality verdict passed.
1
    some inequality failed beyond its slack.
2
    configuration, I/O, or parse problem.
3
    strict mode and at least one minimization came back non-certified.
4
    a solver or kernel failed (any other :class:`LabError`, such as
    ``NoConvergence``, or a LAPACK failure, ``np.linalg.LinAlgError``); no
    report is written.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import bounds, fov, matrices, reporting
from .errors import (
    FileError,
    InvalidSpec,
    LabError,
    ParseError,
    UnsupportedFormat,
    check_int,
)
from .matrices import MatrixSpec
from .minimax import _check_depth

__all__ = [
    "ExperimentConfig",
    "load_config",
    "run_experiment",
]

EXIT_OK = 0
EXIT_BOUND_FAILED = 1
EXIT_IO = 2
EXIT_NOT_CERTIFIED = 3
EXIT_SOLVER_FAILED = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    matrix: MatrixSpec
    depths: Tuple[int, ...]
    trials: int = 20
    seed: int = 0
    out_dir: str = "out"
    plot: bool = True
    strict: bool = False

    def __post_init__(self) -> None:
        if not self.depths:
            raise InvalidSpec("depths must be a non-empty list")
        for k in self.depths:
            _check_depth(k)
        check_int(self.trials, "trials", 1)
        check_int(self.seed, "seed", 0)
        if not isinstance(self.out_dir, str):
            raise InvalidSpec(f"out_dir must be a string, got {self.out_dir!r}")
        for name in ("plot", "strict"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidSpec(f"{name} must be true or false")

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


def _run_validated(cfg: ExperimentConfig) -> int:
    a = matrices.generate_matrix(cfg.matrix)
    n = a.shape[0]
    for k in cfg.depths:
        if k > n:
            raise InvalidSpec(f"depth {k} exceeds matrix dimension {n}")

    fov_data = fov.fov_summary(a)
    reports = [
        bounds.verify_chain(a, k, cfg.trials, cfg.seed, fov_data=fov_data)
        for k in sorted(cfg.depths)
    ]

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


def guarded(action, *args) -> int:
    """``action(*args)``, or the exit code of the error it raised.

    The one place that maps errors to exit codes: input trouble exits 2,
    any other :class:`LabError` or a LAPACK failure exits 4, each after an
    ``error:`` line on stderr.
    """
    try:
        return action(*args)
    except (LabError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (FileError, InvalidSpec, ParseError, UnsupportedFormat)):
            return EXIT_IO
        return EXIT_SOLVER_FAILED


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the experiment, write outputs, return a process exit code."""
    return guarded(_run_validated, cfg)
