"""Acceptance gate: ten checks, one test (one pass/fail line) per check.

The expensive sweeps are cached at module scope so the ordering, chain,
and relaxation checks reuse the same solver outputs instead of recomputing
them.  Every tolerance is pinned here as a named constant.
"""

import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

import gmreslab
from gmreslab import (
    elman_bound,
    fov_boundary,
    fov_summary,
    generate_matrix,
    ideal_gmres,
    MatrixSpec,
    nu_fov,
    one_step_ideal,
    scalar_minimax_oracle,
    starke_bound,
    verify_chain,
    worst_case_gmres,
)
from conftest import random_complex, random_nonsingular, random_starts, random_unit
import oracles

BOUND_SLACK = 1e-8
GMRES_VS_WORST_SLACK = 1e-6
WORST_VS_IDEAL_SLACK = 2e-6
DEPTH_ONE_TOL = 1e-5
ALPHA_SLACK = 1e-10
ALPHA_IDENTITY_RTOL = 1e-10
HULL_TOL = 1e-5
REAL_PD_TOL = 1e-7
DIAG_ORACLE_TOL = 1e-4
PINNED_TOL = 1e-6
RELAXATION_SLACK = 1e-6
TIME_BUDGET_SECONDS = 300.0

DEPTHS = (1, 2, 3)
GENERAL_COUNT = 200
PD_COUNT = 100
CHAIN_COUNT = 50
DEPTH_ONE_COUNT = 100
ALPHA_COUNT = 1000
ALPHA_SAMPLES = 10_000
FOV_COUNT = 100
FOV_BOUNDARY_SAMPLES = 2000
DIAG_COUNT = 30


@lru_cache(maxsize=1)
def general_suite():
    """Seeded nonsingular matrices with ideal, one-step, and bound data."""
    entries = []
    for i in range(GENERAL_COUNT):
        rng = np.random.default_rng(1000 + i)
        n = 2 + (i % 9)
        a = random_nonsingular(rng, n, spread=float(rng.uniform(0.3, 1.0)))
        data = fov_summary(a)
        ideal = {k: ideal_gmres(a, k).value for k in DEPTHS}
        one_step = one_step_ideal(a).value
        starke = {k: starke_bound(a, k, data) for k in DEPTHS}
        entries.append((ideal, one_step, starke))
    return entries


@lru_cache(maxsize=1)
def pd_suite():
    """Matrices with positive definite Hermitian part, plus both bounds."""
    entries = []
    for i in range(PD_COUNT):
        n = 2 + (i % 9)
        a = generate_matrix(MatrixSpec("random_pd_part", {"n": n, "seed": i}))
        ideal = {k: ideal_gmres(a, k).value for k in DEPTHS}
        elman = {k: elman_bound(a, k) for k in DEPTHS}
        starke = {k: starke_bound(a, k) for k in DEPTHS}
        entries.append((ideal, elman, starke))
    return entries


@lru_cache(maxsize=1)
def chain_reports():
    reports = []
    for i in range(CHAIN_COUNT):
        rng = np.random.default_rng(5000 + i)
        n = 2 + (i % 7)
        a = random_nonsingular(rng, n, spread=float(rng.uniform(0.3, 1.0)))
        for k in DEPTHS:
            reports.append(verify_chain(a, k, trials=20))
    return reports


def test_ideal_bounded_by_fov_product():
    elapsed = time.perf_counter()
    suite = general_suite()
    elapsed = time.perf_counter() - elapsed
    for ideal, _, starke in suite:
        for k in DEPTHS:
            assert ideal[k] <= starke[k] + BOUND_SLACK
    assert elapsed < TIME_BUDGET_SECONDS


def test_ideal_bounded_by_hermitian_part_gap():
    for ideal, elman, _ in pd_suite():
        for k in DEPTHS:
            assert elman[k] is not None
            assert ideal[k] <= elman[k] + BOUND_SLACK


def test_fov_bound_no_weaker_than_hermitian_bound():
    for _, elman, starke in pd_suite():
        for k in DEPTHS:
            assert starke[k] <= elman[k] + BOUND_SLACK


def test_gmres_within_worst_case_within_ideal():
    for report in chain_reports():
        assert max(report.gmres_ratios) <= report.worst_case + GMRES_VS_WORST_SLACK
        assert (
            report.worst_case + GMRES_VS_WORST_SLACK
            <= report.ideal + WORST_VS_IDEAL_SLACK
        )


def test_depth_one_quantities_coincide():
    for i in range(DEPTH_ONE_COUNT):
        rng = np.random.default_rng(7000 + i)
        n = 2 + (i % 9)
        a = random_complex(rng, n, spread=float(rng.uniform(0.3, 1.2)))
        ideal = ideal_gmres(a, 1).value
        worst = worst_case_gmres(a, 1, random_starts(n)).value
        one_step = one_step_ideal(a).value
        assert abs(ideal - worst) <= DEPTH_ONE_TOL
        assert abs(ideal - one_step) <= DEPTH_ONE_TOL
        assert abs(worst - one_step) <= DEPTH_ONE_TOL


def test_one_step_alpha_beats_random_sampling():
    rng = np.random.default_rng(82)
    for _ in range(ALPHA_COUNT):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v = random_unit(rng, n)
        result = oracles.optimal_alpha(a, v)
        w = a @ v
        # closed form through w: the step is the Rayleigh-type quotient
        alpha_direct = np.vdot(w, v) / np.vdot(w, w)
        assert abs(result.alpha_star - alpha_direct) <= ALPHA_IDENTITY_RTOL * (
            1.0 + abs(alpha_direct)
        )
        # vectorized sweep of random steps, none may do better
        alphas = alpha_direct + (1.0 + abs(alpha_direct)) * (
            rng.standard_normal(ALPHA_SAMPLES)
            + 1j * rng.standard_normal(ALPHA_SAMPLES)
        )
        vw = np.vdot(v, w)
        norms_sq = (
            1.0
            - 2.0 * (alphas * np.conj(vw)).real
            + np.abs(alphas) ** 2 * np.vdot(w, w).real
        )
        best_sample = float(np.sqrt(max(norms_sq.min(), 0.0)))
        achieved = float(np.linalg.norm(v - result.alpha_star * w))
        assert achieved <= best_sample + ALPHA_SLACK


def test_fov_distance_matches_hull_oracle():
    for i in range(FOV_COUNT):
        rng = np.random.default_rng(9000 + i)
        n = 2 + (i % 7)
        a = random_complex(rng, n, spread=float(rng.uniform(0.3, 1.5)))
        boundary = fov_boundary(a, FOV_BOUNDARY_SAMPLES)
        hull = oracles.hull_distance(boundary.points)
        assert abs(nu_fov(a).value - hull) <= HULL_TOL
    for i in range(50):
        rng = np.random.default_rng(11000 + i)
        n = 2 + (i % 7)
        g = rng.standard_normal((n, n))
        a = (1.0 + float(rng.uniform(0.0, 1.0))) * np.eye(n) + 0.5 * g
        m_part = 0.5 * (a + a.T)
        lam_min = float(np.linalg.eigvalsh(m_part)[0])
        if lam_min <= 1e-6:
            a += (1e-3 - lam_min) * np.eye(n)
            lam_min = float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])
        assert abs(nu_fov(a).value - lam_min) <= REAL_PD_TOL


def test_diagonal_ideal_matches_equioscillation_oracle():
    for i in range(DIAG_COUNT):
        rng = np.random.default_rng(13000 + i)
        m = int(rng.integers(2, 9))
        lam = rng.uniform(0.5, 3.0, size=m) + 1j * rng.uniform(-1.0, 1.0, size=m)
        for k in (1, 2):
            got = ideal_gmres(np.diag(lam), k).value
            want = scalar_minimax_oracle(lam, k)
            assert abs(got - want) <= DIAG_ORACLE_TOL
    third, _ = oracles.equioscillation_two_points()
    assert abs(third - 1.0 / 3.0) < 1e-15
    assert abs(ideal_gmres(np.diag([1.0, 2.0]), 1).value - third) <= PINNED_TOL
    seventh, _ = oracles.equioscillation_three_points()
    assert abs(seventh - 1.0 / 7.0) < 1e-15
    assert (
        abs(ideal_gmres(np.diag([1.0, 2.0, 3.0]), 2).value - seventh) <= PINNED_TOL
    )


def test_ideal_below_one_step_power():
    for ideal, one_step, _ in general_suite():
        for k in DEPTHS:
            assert ideal[k] <= one_step**k + RELAXATION_SLACK


def test_report_bytes_identical_across_runs(tmp_path):
    config_text = json.dumps(
        {
            "matrix": {"family": "bidiagonal", "diag": [1.0, 2.0, 3.0], "superdiag": 0.4},
            "depths": [1, 2, 3],
            "trials": 10,
            "seed": 5,
            "out_dir": "out",
        }
    )
    payloads = []
    for run in ("a", "b"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        (run_dir / "config.json").write_text(config_text)
        # the run happens in a tmp cwd, where a relative PYTHONPATH misses
        package_root = str(Path(gmreslab.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])
        )
        env = dict(os.environ, PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "gmreslab", "run", "config.json"],
            cwd=run_dir,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append((run_dir / "out" / "report.json").read_bytes())
    assert payloads[0] == payloads[1]
