"""Normalized bump integral shared by the cutoff profile and the gluing code.

The step S is the antiderivative of the bump x -> exp(-1/(x(1-x))) on (0,1),
normalized so that S(0) = 0 and S(1) = 1.  It is C-infinity, identically 0
for x <= 0 and identically 1 for x >= 1, which is what makes the endpoint
jets of everything built on top of it exact.

Every integral here comes from one rule: ORDER Gauss-Legendre nodes on each
of PANELS equal panels of [0, 1/2], with the cumulative panel sums tabulated
once per integrand.  The integral from 0 to x <= 1/2 is the prefix sum up to
the panel holding x plus one panel from that panel's edge to x.  The bump is
symmetric about 1/2, so the mass is twice the half-interval sum, and

    S(1 - x) = 1 - S(x),    int_0^x S = x - 1/2 + int_0^(1-x) S,

which make S(1/2) = 1/2, S in {0, 1} outside (0, 1) and int_0^1 S = 1/2
exact by construction.  S, its mass and int_0^x S are accurate to rounding.

The rule evaluates the bump only at its nodes, lo + (x - lo) u with lo a
panel edge in [0, 1/2], x in [lo, 1/2] and u in (0, 1), so every node lies
in [0, 1/2] and the bare formula applies without the mask of `bump`.  A
node is 0 only when x is, as for the x <= 0 that step_integral folds to
0; there x (1 - x) = 0 divides -1 by zero, and exp(-inf) = 0 = bump(0),
so the kernel only silences that division.  An edge lo is +0.0 or
positive, so a node is never -0.0, where the quotient would be +inf.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

ORDER = 12  # Gauss-Legendre nodes per panel
PANELS = 64  # equal panels on [0, 1/2]
_WIDTH = 0.5 / PANELS  # a power of two, so panel edges are exact


def bump(x: np.ndarray | float) -> np.ndarray:
    """exp(-1/(x(1-x))) on (0,1), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (xi * (1.0 - xi)))
    return out


def _node_bump(x: np.ndarray) -> np.ndarray:
    # bump at quadrature nodes, which lie in [0, 1/2]; see the module notes.
    # One temporary, updated in place: a node array holds ORDER values per
    # point, and allocating one per step cost more than the arithmetic
    r = 1.0 - x
    r *= x
    with np.errstate(divide="ignore"):
        np.divide(-1.0, r, out=r)
    return np.exp(r, out=r)


@lru_cache(maxsize=None)
def _rule() -> tuple[np.ndarray, np.ndarray]:
    # the Gauss-Legendre nodes and weights mapped to [0, 1]
    nodes, weights = np.polynomial.legendre.leggauss(ORDER)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _panel(fn, lo: np.ndarray, x: np.ndarray) -> np.ndarray:
    # one rule application on [lo, x], elementwise; the sum runs along the
    # last axis so that a batch row rounds exactly like a single point
    u, w = _rule()
    width = x - lo
    nodes = width[..., None] * u
    nodes += lo[..., None]
    values = fn(nodes)
    values *= w
    return width * np.sum(values, axis=-1)


@lru_cache(maxsize=None)
def _prefix(fn) -> np.ndarray:
    # integral of fn from 0 to each of the PANELS + 1 panel edges
    edges = _WIDTH * np.arange(PANELS + 1)
    return np.concatenate([[0.0], np.cumsum(_panel(fn, edges[:-1], edges[1:]))])


def _integral(fn, x: np.ndarray) -> np.ndarray:
    # integral of fn from 0 to x, for x in [0, 1/2]
    k = (x // _WIDTH).astype(np.intp)
    return _prefix(fn)[k] + _panel(fn, _WIDTH * k, x)


def _half_step(x: np.ndarray) -> np.ndarray:
    # S on [0, 1/2]; the mass is twice the half-interval sum
    return _integral(_node_bump, x) / (2.0 * _prefix(_node_bump)[-1])


def _fold(x: np.ndarray) -> np.ndarray:
    # min(x, 1 - x) clipped at 0, in [0, 1/2]; 1 - x is exact for x >= 1/2,
    # and fmax sends nan to 0
    return np.fmax(np.minimum(x, 1.0 - x), 0.0)


def step(x: np.ndarray | float) -> np.ndarray:
    """S(x): 0 for x <= 0, 1 for x >= 1, normalized bump integral between."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0.5, 1.0, 0.0)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    half = _half_step(_fold(xi))
    out[inside] = np.where(xi > 0.5, 1.0 - half, half)
    return out


def step_integral(x: np.ndarray | float) -> np.ndarray:
    """int_0^x S: 0 for x <= 0 and x - 1/2 for x >= 1."""
    x = np.asarray(x, dtype=float)
    part = _integral(_half_step, _fold(x))
    return np.where(x > 0.5, x - 0.5 + part, part)


def step_jet(x: np.ndarray | float) -> np.ndarray:
    """(S', S'', S''') at x, shape (..., 3): the bump and its first two
    derivatives over the mass, all zero outside (0, 1)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape + (3,))
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    r = xi * (1.0 - xi)
    rp = 1.0 - 2.0 * xi
    e = np.exp(-1.0 / r)
    q1 = rp / r**2
    q2 = (-2.0 * r - 2.0 * rp**2) / r**3
    out[inside] = np.stack([e, q1 * e, (q2 + q1**2) * e], axis=-1)
    return out / (2.0 * _prefix(_node_bump)[-1])
