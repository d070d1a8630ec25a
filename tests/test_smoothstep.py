"""Tests for the normalized bump integral S."""

import numpy as np

from cuspforge import _smoothstep as sm


def test_step_batch_matches_scalar_bitwise():
    # about 5000 points: several panel blocks, both flat regions and the
    # endpoints themselves, in shuffled order
    rng = np.random.default_rng(7)
    x = np.concatenate(
        [rng.uniform(-0.5, 1.5, 4990), [-1.0, -0.0, 0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0, 2.0]]
    )
    rng.shuffle(x)
    assert x.size > 2 * sm.STEP_BLOCK
    batch = sm.step(x)
    for i, xi in enumerate(x):
        assert batch[i] == sm.step(xi)
    assert np.all(batch[x <= 0.0] == 0.0)
    assert np.all(batch[x >= 1.0] == 1.0)
