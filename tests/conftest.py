import numpy as np
import pytest


def assert_close(actual, expected, rel=1e-9, abs_floor=1e-12):
    """Relative comparison with an absolute floor near zero."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    tol = np.maximum(abs_floor, rel * np.abs(e))
    if not np.all(np.abs(a - e) <= tol):
        worst = np.max(np.abs(a - e) - tol)
        raise AssertionError(
            f"mismatch beyond tolerance (worst excess {worst:.3e}):\n"
            f"actual   {a}\nexpected {e}"
        )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_points(rng, n, low=0.1, high=10.0):
    """Uniform points; coordinate ties / exact degeneracies have
    probability ~0 at double precision."""
    return rng.uniform(low, high, size=(n, 2))


def random_plane_points(rng, n, span=10.0):
    return rng.uniform(-span, span, size=(n, 2))


def on_circle(angles, radius=5.0):
    """Points at the given angles on a circle about the origin."""
    return [(radius * np.cos(t), radius * np.sin(t)) for t in angles]
