"""Tests for the normalized bump integral S and its integral."""

import math
import warnings

import numpy as np
import pytest

from cuspforge import _smoothstep as sm
from cuspforge.psh import _smoothed_hinge


def _reference_integral(fn, b):
    # composite 20-node Gauss-Legendre on 40 equal panels of [0, b], summed
    # exactly: a different order, panel count and summation from the module
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, b, 41)
    half = 0.5 * np.diff(edges)
    pts = edges[:-1, None] + half[:, None] * (nodes + 1.0)
    return math.fsum((half[:, None] * weights * fn(pts)).ravel())


def _bump(t):
    return np.exp(-1.0 / (t * (1.0 - t)))


def _edge_points():
    # every panel edge of [0, 1] and its two neighbouring floats
    edges = np.arange(1, 2 * sm.PANELS) / (2 * sm.PANELS)
    return np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)])


def test_step_batch_matches_scalar_bitwise():
    # about 5000 points: both flat regions, both halves, panel edges and the
    # endpoints themselves, in shuffled order
    rng = np.random.default_rng(7)
    x = np.concatenate(
        [
            rng.uniform(-0.5, 1.5, 4990),
            [-1.0, -0.0, 0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0, 2.0],
            _edge_points(),
        ]
    )
    rng.shuffle(x)
    batch = sm.step(x)
    for i, xi in enumerate(x):
        assert batch[i] == sm.step(xi)
    assert np.all(batch[x <= 0.0] == 0.0)
    assert np.all(batch[x >= 1.0] == 1.0)


def test_step_at_midpoint_is_exact():
    assert sm.step(0.5) == 0.5


def test_step_symmetry_is_bitwise():
    x = np.concatenate([np.random.default_rng(3).uniform(0.5, 1.0, 2000), _edge_points()])
    x = x[(x > 0.5) & (x < 1.0)]
    assert np.array_equal(sm.step(x), 1.0 - sm.step(1.0 - x))


def test_step_matches_independent_rule():
    x = np.concatenate([np.random.default_rng(5).uniform(0.0, 1.0, 200), _edge_points()])
    mass = _reference_integral(_bump, 1.0)
    ref = np.array([_reference_integral(_bump, b) / mass for b in x])
    assert np.max(np.abs(sm.step(x) - ref)) <= 4.5e-16


def test_step_integral_endpoints_are_exact():
    assert sm.step_integral(1.0) == 0.5
    assert sm.step_integral(0.0) == 0.0
    assert np.array_equal(sm.step_integral([-2.0, -0.5]), [0.0, 0.0])
    assert np.array_equal(sm.step_integral([1.5, 3.0]), [1.0, 2.5])


def test_step_integral_matches_integration_by_parts():
    # int_0^x S = x S(x) - int_0^x t S'(t) dt, the second term by the
    # independent rule
    x = np.concatenate([np.random.default_rng(11).uniform(0.0, 1.0, 100), _edge_points()[::5]])
    mass = _reference_integral(_bump, 1.0)
    moment = np.array([_reference_integral(lambda t: t * _bump(t), b) / mass for b in x])
    ref = x * sm.step(x) - moment
    assert np.max(np.abs(sm.step_integral(x) - ref)) <= 4.5e-16


def test_node_kernel_matches_bump_bitwise():
    # every node of the 64 panels, the nodes of partial panels up to random
    # x and to x = 1/2, and the node 0 that a folded x <= 0 makes, which
    # must not warn: RuntimeWarning is an error under the test settings
    u, _ = sm._rule()
    x = np.concatenate([np.random.default_rng(17).uniform(0.0, 0.5, 500), [0.5]])
    lo = sm._WIDTH * (x // sm._WIDTH)
    edges = sm._WIDTH * np.arange(sm.PANELS)
    nodes = np.concatenate(
        [(edges[:, None] + sm._WIDTH * u).ravel(), (lo[:, None] + (x - lo)[:, None] * u).ravel()]
    )
    assert nodes.min() > 0.0 and nodes.max() <= 0.5
    assert np.array_equal(sm._node_bump(nodes), sm.bump(nodes))
    zero = sm._node_bump(np.zeros((2, sm.ORDER)))
    assert np.array_equal(zero, sm.bump(np.zeros((2, sm.ORDER))))
    assert not np.signbit(zero).any()


def test_zero_where_the_bump_underflows():
    # below about 1e-3 the bump is 0 to rounding, and so are its two
    # derivatives; their factors in 1/r overflow there and must not meet
    # that 0, and the quadrature's nodes must not warn
    x = np.array([1e-100, 1e-200, 1e-308, 5e-324, 1.0 - 1e-16])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jets, steps = sm.step_jet(x), sm.step(x)
        assert np.array_equal(sm.step_jet(1e-308), np.zeros(3))
    assert np.array_equal(jets, np.zeros((5, 3)))
    assert np.array_equal(steps, [0.0, 0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("r", [0.05, 0.2, 1.0 / 3.0, 2.5])
def test_smoothed_hinge_continuous_at_band_edges(r):
    for edge in (-r, r):
        x = np.array([np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)])
        assert np.max(np.abs(_smoothed_hinge(x, r) - np.maximum(x, 0.0))) <= 4.0 * np.spacing(r)


def _unmasked_step(x):
    # S evaluated through the half-step rule at every point, flat regions
    # included: the formula step now applies only inside (0, 1)
    x = np.asarray(x, dtype=float)
    half = sm._half_step(sm._fold(x))
    return np.where(x > 0.5, 1.0 - half, half)


def test_masked_step_matches_unmasked_formula_bitwise():
    special = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan, 1e-300, 1.0 - 1e-16]
    x = np.concatenate(
        [np.random.default_rng(13).uniform(-1.0, 2.0, 3000), special, _edge_points()]
    )
    batch, ref = sm.step(x), _unmasked_step(x)
    assert batch.dtype == ref.dtype and batch.shape == ref.shape
    assert np.array_equal(batch, ref)
    assert np.array_equal(sm.step(x.reshape(-1, 4)[:, ::-1]), ref.reshape(-1, 4)[:, ::-1])
    for xi in special:
        got, want = sm.step(xi), _unmasked_step(xi)
        assert got.shape == want.shape == ()
        assert got == want
