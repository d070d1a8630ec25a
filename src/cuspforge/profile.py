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
one.  The RK4 stage times are fixed by the grid, so g is tabulated once at
the grid nodes and once at the step midpoints, and the classical RK4
recursion then runs on those tables.  Where f = exp we have g = e^(2t) and
psi = id is the exact solution; the integrator preserves this to rounding.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import _smoothstep as sm

__all__ = [
    "ProfileError",
    "CutoffProfile",
    "PsiSolution",
    "build_cutoff",
    "exp_profile",
    "solve_psi",
    "write_profile_csv",
]

GRID_POINTS = 10_001


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
        """Jet (f, f', f'', f''') at t, shape (..., 4)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > self.A):
            raise ValueError("profile evaluated outside [0, A]")
        w, w1, w2, w3 = self.step_data(t)
        ch, sh = np.cosh(t), np.sinh(t)
        f0 = ch + w * sh
        f1 = sh + w1 * sh + w * ch
        f2 = ch + w2 * sh + 2.0 * w1 * ch + w * sh
        f3 = sh + w3 * sh + 3.0 * w2 * ch + 3.0 * w1 * sh + w * ch
        return np.stack([f0, f1, f2, f3], axis=-1)

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


def exp_profile(A: float) -> CutoffProfile:
    """Degenerate profile with f = exp on all of [0, A] (window collapsed).

    Used for the constant-curvature model; positivity is immediate.
    """
    grid = np.linspace(0.0, A, GRID_POINTS)
    e = np.exp(grid)
    jets = np.stack([e, e, e, e], axis=-1)
    prof = CutoffProfile(A=A, window=(-2.0, -1.0), grid=grid, jets=jets)
    return prof


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


def solve_psi(p: CutoffProfile, t_min: float, num: int = 20_001) -> PsiSolution:
    """Integrate the ODE backward from A to t_min with classical RK4.

    Every RK4 stage time is a grid node or a step midpoint, so g is
    tabulated at the nodes and at the midpoints by two batched jet
    evaluations; the recursion itself is unchanged, and the node table is
    reused for the residual.  g(0) = 0 makes the equation singular at the
    origin, so t_min must be positive.  On the exp region every RK4 stage
    slope is 1 to rounding and the identity solution is preserved.
    """
    if not 0.0 < t_min < p.A:
        raise ValueError("t_min must lie in (0, A)")
    ts = np.linspace(t_min, p.A, num)
    mids = ts[1:] + 0.5 * (ts[:-1] - ts[1:])
    # g = f f' overflows only past t = 355.2, where exp(2 psi) has already
    # raised OverflowError at the first RK4 stage (psi(A) = A)
    with np.errstate(over="ignore"):
        g_nodes = p.g_jet_at(ts)[:, 0]
        g_mids = p.g_jet_at(mids)[:, 0]
    t_n, t_m = ts.tolist(), mids.tolist()
    g_n, g_m = g_nodes.tolist(), g_mids.tolist()
    exp, isfinite = math.exp, math.isfinite

    def failed(t: float) -> ProfileError:
        return ProfileError(f"psi integration step failed near t = {t:.6g}")

    values = [0.0] * num
    y = values[-1] = p.A
    for k in range(num - 1, 0, -1):
        t1, t0, tm = t_n[k], t_n[k - 1], t_m[k - 1]
        h = t0 - t1  # negative
        k1 = exp(2.0 * y) / g_n[k]
        if not isfinite(k1):
            raise failed(t1)
        k2 = exp(2.0 * (y + 0.5 * h * k1)) / g_m[k - 1]
        if not isfinite(k2):
            raise failed(tm)
        k3 = exp(2.0 * (y + 0.5 * h * k2)) / g_m[k - 1]
        if not isfinite(k3):
            raise failed(tm)
        k4 = exp(2.0 * (y + h * k3)) / g_n[k - 1]
        if not isfinite(k4):
            raise failed(t0)
        y = values[k - 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    values = np.array(values)

    rhs = np.exp(2.0 * values) / g_nodes
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


def write_profile_csv(p: CutoffProfile, path: str) -> None:
    """Serialize the sampled jet with columns t, f, fp, fpp, fppp."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "f", "fp", "fpp", "fppp"])
        for t, jet in zip(p.grid, p.jets):
            writer.writerow([repr(float(t))] + [repr(float(x)) for x in jet])
