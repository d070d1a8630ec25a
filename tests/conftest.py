import tracemalloc

import numpy as np
import pytest

from cuspforge.profile import build_cutoff, solve_psi


@pytest.fixture(scope="session")
def default_profile():
    return build_cutoff(6.0, (1.0, 5.0))


@pytest.fixture(scope="session")
def default_psi(default_profile):
    return solve_psi(default_profile, t_min=0.05)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def traced_peak():
    """peak(fn): the peak bytes tracemalloc sees while fn() runs.  numpy
    reports its buffers to tracemalloc, so the reading repeats exactly."""

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
