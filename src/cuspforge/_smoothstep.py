"""Normalized bump integral shared by the cutoff profile and the gluing code.

The step S is the antiderivative of the bump x -> exp(-1/(x(1-x))) on (0,1),
normalized so that S(0) = 0 and S(1) = 1.  It is C-infinity, identically 0
for x <= 0 and identically 1 for x >= 1, which is what makes the endpoint
jets of everything built on top of it exact.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def bump(x: np.ndarray | float) -> np.ndarray:
    """exp(-1/(x(1-x))) on (0,1), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (xi * (1.0 - xi)))
    return out


def bump_d1(x: np.ndarray | float) -> np.ndarray:
    """First derivative of the bump."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    r = xi * (1.0 - xi)
    q1 = (1.0 - 2.0 * xi) / r**2
    out[inside] = q1 * np.exp(-1.0 / r)
    return out


def bump_d2(x: np.ndarray | float) -> np.ndarray:
    """Second derivative of the bump."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    r = xi * (1.0 - xi)
    rp = 1.0 - 2.0 * xi
    q1 = rp / r**2
    q2 = (-2.0 * r - 2.0 * rp**2) / r**3
    out[inside] = (q2 + q1**2) * np.exp(-1.0 / r)
    return out


@lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=None)
def _bump_mass() -> float:
    # integral of the bump over (0,1); the integrand is smooth and flat at
    # both endpoints, so a single high-order panel is accurate to rounding
    x, w = _gl_nodes(400)
    xs = 0.5 * (x + 1.0)
    return float(0.5 * np.sum(w * bump(xs)))


# rows of the (rows, 96) quadrature panel evaluated at a time; each row's
# sum is independent of the block, so only the temporaries' size changes
STEP_BLOCK = 2048


def step(x: np.ndarray | float) -> np.ndarray:
    """S(x): 0 for x <= 0, 1 for x >= 1, normalized bump integral between."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    inside = (x > 0.0) & (x < 1.0)
    if np.any(inside):
        xi = x[inside]
        nodes, w = _gl_nodes(96)
        vals = np.empty_like(xi)
        for lo in range(0, xi.size, STEP_BLOCK):
            # map the 96-node panel onto [0, xi] for each sample
            half = 0.5 * xi[lo : lo + STEP_BLOCK]
            pts = half[:, None] * (nodes[None, :] + 1.0)
            vals[lo : lo + STEP_BLOCK] = half * np.sum(w[None, :] * bump(pts), axis=1)
        out[inside] = vals / _bump_mass()
    return out


def step_d1(x: np.ndarray | float) -> np.ndarray:
    return bump(x) / _bump_mass()


def step_d2(x: np.ndarray | float) -> np.ndarray:
    return bump_d1(x) / _bump_mass()


def step_d3(x: np.ndarray | float) -> np.ndarray:
    return bump_d2(x) / _bump_mass()
