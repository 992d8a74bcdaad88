import os

# Hundreds of small BLAS calls per test pay for thread hand-off under
# OpenBLAS's default thread count; one thread is several times faster.  Set
# before numpy loads, and inherited by the subprocess tests.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("lab", deadline=None, max_examples=30)
settings.load_profile("lab")


def random_complex(rng, n, spread=0.5, shift=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return shift * np.eye(n, dtype=np.complex128) + spread * g / np.sqrt(2 * n)


def random_nonsingular(rng, n, spread=0.8):
    """Shifted random matrix, resampled until safely invertible."""
    for _ in range(64):
        a = random_complex(rng, n, spread=spread)
        if np.linalg.svd(a, compute_uv=False)[-1] > 1e-3:
            return a
    raise AssertionError("could not draw a nonsingular matrix")


def deep_matrices():
    """Two inputs for depths up to 16, where a kernel built on the power
    directions A v, .., A^k v drifts from Arnoldi/Givens on ``triu24``."""
    return {
        "triu24": np.triu(np.random.default_rng(5).standard_normal((24, 24)))
        + 2.0 * np.eye(24),
        "rand16": np.random.default_rng(3).standard_normal((16, 16)) / 4
        + 1.5 * np.eye(16),
    }


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_starts(n, count=16):
    """An n x count block of random unit vectors for ``worst_case_gmres``,
    from one fixed stream: the block its tests ascend from."""
    rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
    return np.column_stack([random_unit(rng, n) for _ in range(count)])


@pytest.fixture(scope="session")
def jordan_block():
    return np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
