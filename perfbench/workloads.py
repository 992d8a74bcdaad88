"""The three benchmark workloads: inputs, one timed op each, references and
the per-op correctness gate.

Everything is derived from the workload seed.  The package is called only
through public functions, looked up on their modules at call time so that
the tracer's wrappers take effect.  Inputs are never filtered: the known
defects of the package stay visible in the reference errors and the
certification share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import jsonschema
import numpy as np

from gmreslab import bounds, experiment, fov, matrices, minimax, mmio

DEPTHS = (1, 2, 3)
# Slacks of the verdicts, as in the package's acceptance gate.
BOUND_SLACK = 1e-8
# |nu(F(A)) - lambda_min(M)| allowed for real A with M positive definite,
# as in the acceptance gate's real-matrix FoV check.
NU_TOL = 1e-7
# scalar_minimax_oracle overestimates the exact value by less than 1e-7
# (absolute, on values in [0, 1]); soundness checks allow ten times that.
ORACLE_TOL = 1e-6

# The gallery of scripts/run_gallery.py, copied so that edits to the script
# cannot change the benchmark's inputs.
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
}
# Normal gallery matrices: wc = ideal = the scalar minimax value on the
# spectrum (Greenbaum-Gurvits; Joubert), which scalar_minimax_oracle gives.
NORMAL_GALLERY = ("diag_real", "diag_complex", "normal_random")
# lab_run op order.  Interleaved so that the first TRACE_OPS["lab_run"] ops
# (the traced pass) hold a normal matrix with a reference, Toh's matrix,
# a random matrix and the depth sweep.
LAB_ORDER = (
    "diag_real", "toh_0.1", "random_pd_part", "depth_sweep",
    "normal_random", "diag_complex", "toh_0.5", "jordan_block", "bidiagonal",
)

GENERAL_COUNT = 200       # matrices per seed in the gate's general_suite
IDEAL_GENERAL_OPS = 20    # general matrices in one ideal_sweep pass
IDEAL_DIAG_EVERY = 5      # every fifth ideal_sweep op is a diagonal matrix
DIAG_COUNT = 30           # diagonal matrices per seed in the gate's check

FOV_SAMPLES = 720
# fov_scan op order: (n, kind); kinds alternate complex and real.
FOV_ORDER = (
    (16, "complex"), (128, "real"), (32, "complex"), (64, "real"),
    (16, "real"), (128, "complex"), (32, "real"), (64, "complex"),
    (48, "complex"), (96, "real"), (48, "real"), (96, "complex"),
)

# Ops per traced pass (fixed, so that counts repeat exactly).
TRACE_OPS = {"lab_run": 4, "ideal_sweep": 10, "fov_scan": 8}


@dataclass
class Outcome:
    """What the correctness gate found for one finished op."""

    ok: bool = True
    reason: str = ""
    verdicts_passed: int = 0
    verdicts_total: int = 0
    ideal_solves: int = 0
    certified: int = 0
    gap_max: float = 0.0
    ref_errs: dict = field(default_factory=dict)  # layer -> max |got - ref|

    def fail(self, reason: str) -> None:
        if self.ok:
            self.ok, self.reason = False, reason

    def ref(self, layer: str, err: float) -> None:
        self.ref_errs[layer] = max(self.ref_errs.get(layer, 0.0), err)


@dataclass
class Op:
    """One timed operation: ``call`` is timed, ``check`` is not."""

    name: str
    problems: int
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _random_complex(rng, n, spread, shift=1.0):
    """As tests/conftest.random_complex."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return shift * np.eye(n, dtype=np.complex128) + spread * g / np.sqrt(2 * n)


def _random_nonsingular(rng, n, spread):
    """As tests/conftest.random_nonsingular."""
    for _ in range(64):
        a = _random_complex(rng, n, spread=spread)
        if np.linalg.svd(a, compute_uv=False)[-1] > 1e-3:
            return a
    raise RuntimeError("could not draw a nonsingular matrix")


def _toh(eps: float) -> np.ndarray:
    """Toh's 4x4 example (SIMAX 1997), where wc < ideal strictly at k = 3."""
    return np.array(
        [[1, eps, 0, 0], [0, -1, 1 / eps, 0], [0, 0, 1, eps], [0, 0, 0, -1]],
        dtype=np.complex128,
    )


def _oracle(eigenvalues) -> dict:
    return {k: minimax.scalar_minimax_oracle(eigenvalues, k) for k in DEPTHS}


def _check_ideal_against(outcome: Outcome, got: float, ref: float) -> None:
    """ideal is the norm of a feasible polynomial, so it cannot undercut
    the true value; the oracle is within ORACLE_TOL above the true value."""
    outcome.ref("minimax.ideal_gmres", abs(got - ref))
    if got < ref - ORACLE_TOL:
        outcome.fail(f"ideal {got!r} below the reference {ref!r}")


def _check_worst_against(outcome: Outcome, got: float, ref: float) -> None:
    """The worst-case value is a lower bound; it cannot exceed the true
    value, which the oracle bounds from above."""
    outcome.ref("minimax.worst_case_gmres", abs(got - ref))
    if got > ref + ORACLE_TOL:
        outcome.fail(f"worst case {got!r} above the reference {ref!r}")


# ---------------------------------------------------------------------------
# lab_run: one run_experiment config per op
# ---------------------------------------------------------------------------

def build_lab_run(seed: int, workdir: Path, schema: dict):
    validator = jsonschema.Draft7Validator(schema)
    specs = dict(GALLERY)
    depths = {name: list(DEPTHS) for name in GALLERY}
    # The default config of scripts/depth_sweep.py.  Its matrix keeps the
    # script's default seed, as the gallery's random matrices keep theirs;
    # the workload seed drives every config's sampling and solver streams.
    specs["depth_sweep"] = {"family": "random_pd_part", "n": 7, "seed": 0}
    depths["depth_sweep"] = [1, 2, 3, 4, 5]
    for eps in (0.5, 0.1):
        path = workdir / f"toh_{eps}.mtx"
        mmio.write_matrix_market(path, _toh(eps))
        specs[f"toh_{eps}"] = {"family": "file", "path": str(path)}
        depths[f"toh_{eps}"] = list(DEPTHS)

    references = {}
    for name in NORMAL_GALLERY:
        a = matrices.generate_matrix(matrices.MatrixSpec.from_dict(specs[name]))
        references[name] = _oracle(np.linalg.eigvals(a))

    ops = []
    for name in LAB_ORDER:
        out_dir = workdir / name
        cfg = experiment.ExperimentConfig.from_dict({
            "matrix": specs[name],
            "depths": depths[name],
            "trials": 20,
            "seed": seed,
            "out_dir": str(out_dir),
        })

        def call(cfg=cfg, report=out_dir / "report.json"):
            # A stale report from the previous pass must not pass the gate.
            report.unlink(missing_ok=True)
            code = experiment.run_experiment(cfg)
            return code, report.read_bytes() if report.exists() else None

        def check(result, ref=references.get(name)):
            return _check_lab_report(result, validator, ref)

        ops.append(Op(name, len(depths[name]), call, check))
    return ops


def _check_lab_report(result, validator, ref: Optional[dict]) -> Outcome:
    outcome = Outcome()
    code, payload = result
    if code != 0:
        outcome.fail(f"exit code {code}")
    if payload is None:
        outcome.fail("no report.json")
        return outcome
    doc = json.loads(payload)
    errors = list(validator.iter_errors(doc))
    if errors:
        outcome.fail(f"report.json fails the schema: {errors[0].message}")
        return outcome
    for report in doc["reports"]:
        for verdict in report["verdicts"].values():
            outcome.verdicts_total += 1
            outcome.verdicts_passed += bool(verdict["passed"])
        outcome.ideal_solves += 1
        outcome.certified += bool(report["ideal_certified"])
        outcome.gap_max = max(outcome.gap_max, report["ideal"] - report["ideal_lower"])
        if ref is not None and report["k"] in ref:
            _check_ideal_against(outcome, report["ideal"], ref[report["k"]])
            _check_worst_against(outcome, report["worst_case"], ref[report["k"]])
    return outcome


# ---------------------------------------------------------------------------
# ideal_sweep: fov_summary, ideal_gmres at k = 1..3, one_step_ideal and
# starke_bound on one matrix per op
# ---------------------------------------------------------------------------

def build_ideal_sweep(seed: int, workdir: Path, schema: dict):
    ops = []
    general = 0
    diagonal = 0
    while general < IDEAL_GENERAL_OPS:
        if (len(ops) + 1) % IDEAL_DIAG_EVERY == 0:
            # As the gate's equioscillation check, matrices 13000 + i.
            rng = np.random.default_rng(13000 + DIAG_COUNT * seed + diagonal)
            m = int(rng.integers(2, 9))
            lam = rng.uniform(0.5, 3.0, size=m) + 1j * rng.uniform(-1.0, 1.0, size=m)
            a = np.diag(lam)
            ref = _oracle(lam)
            name = f"diag{diagonal}"
            diagonal += 1
        else:
            # As the gate's general_suite, matrices 1000 + i with n = 2 + i % 9.
            rng = np.random.default_rng(1000 + GENERAL_COUNT * seed + general)
            n = 2 + general % 9
            a = _random_nonsingular(rng, n, spread=float(rng.uniform(0.3, 1.0)))
            ref = None
            name = f"general{general}"
            general += 1

        def call(a=a):
            data = fov.fov_summary(a)
            ideal = {k: minimax.ideal_gmres(a, k) for k in DEPTHS}
            one_step = minimax.one_step_ideal(a)
            starke = {k: bounds.starke_bound(a, k, data) for k in DEPTHS}
            return ideal, one_step, starke

        def check(result, ref=ref):
            ideal, _one_step, starke = result
            outcome = Outcome()
            for k in DEPTHS:
                res = ideal[k]
                outcome.verdicts_total += 1
                if res.value <= starke[k] + BOUND_SLACK:
                    outcome.verdicts_passed += 1
                else:
                    outcome.fail(f"ideal > starke at k={k}")
                if res.lower_bound > res.upper_bound:
                    outcome.fail(f"ideal bracket inverted at k={k}")
                outcome.ideal_solves += 1
                outcome.certified += bool(res.certified)
                outcome.gap_max = max(outcome.gap_max, res.upper_bound - res.lower_bound)
                if ref is not None:
                    _check_ideal_against(outcome, res.value, ref[k])
            return outcome

        ops.append(Op(name, 1, call, check))
    return ops


# ---------------------------------------------------------------------------
# fov_scan: read_matrix_market, fov_boundary(a, 720), fov_summary,
# elman_bound and starke_bound on one matrix per op
# ---------------------------------------------------------------------------

def build_fov_scan(seed: int, workdir: Path, schema: dict):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    ops = []
    for index, (n, kind) in enumerate(FOV_ORDER):
        if kind == "complex":
            a = _random_complex(rng, n, spread=float(rng.uniform(0.3, 1.5)))
            ref = None
        else:
            # Real with positive definite symmetric part M, as the gate's
            # real-matrix check; then nu(F(A)) = lambda_min(M) exactly.
            g = rng.standard_normal((n, n))
            a = (1.0 + float(rng.uniform(0.0, 1.0))) * np.eye(n) + 0.5 * g / np.sqrt(n)
            lam_min = float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])
            if lam_min <= 1e-6:
                a += (1e-3 - lam_min) * np.eye(n)
                lam_min = float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])
            ref = lam_min
        path = workdir / f"fov{index}_{kind}_{n}.mtx"
        mmio.write_matrix_market(path, a)

        def call(path=path):
            a = mmio.read_matrix_market(path)
            boundary = fov.fov_boundary(a, FOV_SAMPLES)
            data = fov.fov_summary(a)
            elman = {k: bounds.elman_bound(a, k) for k in DEPTHS}
            starke = {k: bounds.starke_bound(a, k, data) for k in DEPTHS}
            return boundary, data, elman, starke

        def check(result, ref=ref):
            boundary, data, elman, starke = result
            outcome = Outcome()
            if not np.all(boundary.support_min <= boundary.support_max + 1e-12):
                outcome.fail("support_min > support_max on the boundary scan")
            for k in DEPTHS:
                if elman[k] is None:
                    continue
                outcome.verdicts_total += 1
                if starke[k] <= elman[k] + BOUND_SLACK:
                    outcome.verdicts_passed += 1
                else:
                    outcome.fail(f"starke > elman at k={k}")
            if ref is not None:
                err = abs(data.nu_a - ref)
                outcome.ref("fov.nu_fov", err)
                if err > NU_TOL:
                    outcome.fail(f"nu(F(A)) off by {err:.3e}")
            return outcome

        ops.append(Op(f"{kind}{n}", 1, call, check))
    return ops


BUILDERS = {
    "lab_run": build_lab_run,
    "ideal_sweep": build_ideal_sweep,
    "fov_scan": build_fov_scan,
}
