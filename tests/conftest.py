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


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="session")
def jordan_block():
    return np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
