"""Cutoff profile f interpolating cosh and exp, and the model-change ODE.

The warped metrics on a compactified cusp are built from a smooth function
f on [0, A] which coincides with cosh near 0, with exp near A, and keeps
f, f', f'', f''' positive on (0, A].  We realize it as

    f = cosh + w sinh,

where w is a C-infinity step that is identically 0 on [0, d_lo] and
identically 1 on [d_hi, A].  Since cosh + sinh = exp, both endpoint jets
are exact by construction, and the whole question is positivity of the
third derivative across the transition window, which is certified on a
dense grid.

The second half of the module solves, backward from A,

    psi'(t) = e^(2 psi(t)) / g(t),   psi(A) = A,   g = f f',

the coordinate change that pulls the model metric back to the hyperbolic
one.  The equation separates: E = e^(-2 psi) has E' = -2/g, so

    e^(-2 psi(t)) = e^(-2A) + 2 int_t^A ds/g(s),

and psi is one cumulative Simpson sum of 1/g over the grid nodes and the
cell midpoints.  The grid step is capped so that the five-point residual
check next to t_min stays accurate for every A.  Where f = exp we have
g = e^(2t) and psi = id is the exact solution; the quadrature preserves
this to rounding.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import _smoothstep as sm

__all__ = [
    "ProfileError",
    "CutoffProfile",
    "PsiSolution",
    "build_cutoff",
    "solve_psi",
    "blocks",
]

GRID_POINTS = 10_001
# float64 elements per block of a batched evaluation; see blocks
BLOCK_ELEMENTS = 2**15


def blocks(count: int, width: int) -> Iterator[slice]:
    """The contiguous slices of range(count) that a batched evaluation takes
    at a time when each of its rows holds `width` float64 elements:
    max(1, BLOCK_ELEMENTS // width) rows each, the last one possibly short."""
    rows = max(1, BLOCK_ELEMENTS // width)
    return (slice(lo, lo + rows) for lo in range(0, count, rows))


class ProfileError(ValueError):
    """Raised when a requested profile violates a positivity constraint."""


@dataclass(frozen=True, eq=False)
class CutoffProfile:
    """Sampled jet of f on [0, A] plus the analytic evaluator data.

    grid and jets are a snapshot for certificates and serialization; jet_at
    evaluates the closed formulas, so the cosh and exp regions are exact
    evaluations, never interpolations.
    """

    A: float
    window: tuple[float, float]
    grid: np.ndarray
    jets: np.ndarray  # shape (len(grid), 4): f, f', f'', f'''

    def step_data(self, t: np.ndarray) -> tuple[np.ndarray, ...]:
        d_lo, d_hi = self.window
        width = d_hi - d_lo
        x = (np.asarray(t, dtype=float) - d_lo) / width
        d = sm.step_jet(x)
        return sm.step(x), d[..., 0] / width, d[..., 1] / width**2, d[..., 2] / width**3

    def jet_at(self, t: np.ndarray | float) -> np.ndarray:
        """Jet (f, f', f'', f''') at t, shape (..., 4).

        The points go through in blocks of rows of width ORDER, since the
        smoothstep's quadrature holds ORDER nodes per point, and each
        block fills its rows of the output; so the temporaries stay those of
        one block.  Every operation is elementwise and each node sum runs
        along its own row, so a point gets the same bits in any block as it
        does alone.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > self.A):
            raise ValueError("profile evaluated outside [0, A]")
        flat = t.reshape(-1)
        out = np.empty((flat.size, 4))
        for rows in blocks(flat.size, sm.ORDER):
            x, jet = flat[rows], out[rows]
            w, w1, w2, w3 = self.step_data(x)
            ch, sh = np.cosh(x), np.sinh(x)
            jet[:, 0] = ch + w * sh
            jet[:, 1] = sh + w1 * sh + w * ch
            jet[:, 2] = ch + w2 * sh + 2.0 * w1 * ch + w * sh
            jet[:, 3] = sh + w3 * sh + 3.0 * w2 * ch + 3.0 * w1 * sh + w * ch
        return out.reshape(t.shape + (4,))

    def g_jet_at(self, t: np.ndarray | float) -> np.ndarray:
        """Jet (g, g', g'') of g = f f', shape (..., 3)."""
        j = self.jet_at(t)
        f0, f1, f2, f3 = j[..., 0], j[..., 1], j[..., 2], j[..., 3]
        return np.stack(
            [f0 * f1, f1**2 + f0 * f2, 3.0 * f1 * f2 + f0 * f3], axis=-1
        )

    def positivity_margins(self) -> np.ndarray:
        """Min over the grid restricted to t > 0 of each of f, f', f'', f'''."""
        interior = self.grid > 0.0
        return self.jets[interior].min(axis=0)


def build_cutoff(A: float, window: tuple[float, float]) -> CutoffProfile:
    """Construct f = cosh + w sinh and certify positivity on a dense grid.

    Raises ProfileError naming the first derivative and location that fail
    when the window is too tight for the requested A, or when A is so large
    that a jet overflows (a non-finite jet fails like a nonpositive one).
    """
    d_lo, d_hi = window
    if not 0.0 < d_lo < d_hi < A:
        raise ValueError("window must satisfy 0 < d_lo < d_hi < A")
    grid = np.linspace(0.0, A, GRID_POINTS)
    prof = CutoffProfile(A=A, window=(d_lo, d_hi), grid=grid, jets=np.zeros((1, 4)))
    with np.errstate(over="ignore", invalid="ignore"):
        jets = prof.jet_at(grid)
    object.__setattr__(prof, "jets", jets)
    interior = grid > 0.0
    names = ("f", "f'", "f''", "f'''")
    for k, name in enumerate(names):
        vals = jets[interior, k]
        # a nan fails no comparison, so non-finite values rank lowest
        worst = int(np.argmin(np.where(np.isfinite(vals), vals, -np.inf)))
        if not 0.0 < vals[worst] < np.inf:
            t_bad = grid[interior][worst]
            nonpos = vals[worst] <= 0.0
            raise ProfileError(
                f"{name} is {'nonpositive' if nonpos else 'not finite'} at t = {t_bad:.6g} "
                f"({name} = {vals[worst]:.6g}); "
                + ("widen the window or increase A" if nonpos else "keep A below about 710")
            )
    return prof


@dataclass(frozen=True, eq=False)
class PsiSolution:
    """Backward solution of psi' = e^(2 psi) / g with psi(A) = A."""

    grid: np.ndarray  # increasing, last point is A
    values: np.ndarray
    residuals: np.ndarray  # |psi' - e^(2 psi)/g| at interior grid points

    def max_residual(self) -> float:
        return float(self.residuals.max())

    def identity_defect(self, t_lo: float) -> float:
        """Max |psi(t) - t| over grid points with t >= t_lo."""
        mask = self.grid >= t_lo
        return float(np.abs(self.values[mask] - self.grid[mask]).max())


def solve_psi(p: CutoffProfile, t_min: float) -> PsiSolution:
    """psi on [t_min, A] from its first integral.

    g is tabulated at the grid nodes and at the cell midpoints by two
    batched jet evaluations; Simpson's rule on each cell, summed backward
    from A, gives E = e^(-2 psi), and the node table is reused for the
    five-point residual of the ODE, an independent check of the quadrature.
    The step is at most 3e-4, so the grid grows with A past the default
    20,001 nodes.  g(0) = 0 makes the equation singular at the origin, so
    t_min must be positive.
    """
    if not 0.0 < t_min < p.A:
        raise ValueError("t_min must lie in (0, A)")
    try:
        math.exp(2.0 * p.A)  # the residual needs e^(2 psi) = 1/E up to psi(A) = A
    except OverflowError:
        raise OverflowError(
            f"psi solve: exp(2 psi) overflows near t = {p.A:.6g}, starting from psi(A) = A = {p.A:g}"
        ) from None
    num = max(20_001, math.ceil((p.A - t_min) / 3e-4) + 1)
    ts = np.linspace(t_min, p.A, num)
    mids = ts[1:] + 0.5 * (ts[:-1] - ts[1:])
    g_nodes, g_mids = (p.jet_at(x)[:, :2].prod(axis=-1) for x in (ts, mids))  # g = f f'
    inv_g = 1.0 / g_nodes
    cells = np.diff(ts) / 6.0 * (inv_g[:-1] + 4.0 / g_mids + inv_g[1:])
    tail = np.append(np.cumsum(cells[::-1])[::-1], 0.0)  # int_t^A ds/g at each node
    E = math.exp(-2.0 * p.A) + 2.0 * tail
    values = -0.5 * np.log(E)

    rhs = (1.0 / E) / g_nodes  # e^(2 psi) / g
    h = ts[1] - ts[0]
    # fourth-order five-point first derivative at interior points
    d = (
        values[:-4]
        - 8.0 * values[1:-3]
        + 8.0 * values[3:-1]
        - values[4:]
    ) / (12.0 * h)
    residuals = np.abs(d - rhs[2:-2])
    return PsiSolution(grid=ts, values=values, residuals=residuals)
