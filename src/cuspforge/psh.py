"""Plurisubharmonicity toolkit: regularized maximum, convex gluing
function, cusp exhaustion function, and a numeric complex-Hessian test.

The regularized maximum is a two-variable mollification of max with a
compactly supported kernel at scale eta; it dominates max, collapses to
the larger argument once the gap exceeds 2 eta, and is symmetric and
convex, which is what makes piecewise definitions of plurisubharmonic
functions glue.  The convex gluing function chi is built from level-set
data so that chi(psi) dominates phi sample by sample, with chi(0) = 0
exact and nondecreasing slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ._smoothstep import bump, step_integral
from .cusp_bundle import BundlePoint, CuspParams, h_norm


# ---------------------------------------------------------------------------
# Regularized maximum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegMaxParams:
    """Kernel scale eta and per-axis quadrature resolution."""

    eta: float
    nodes: int = 33

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.nodes < 3 or self.nodes % 2 == 0:
            raise ValueError("nodes must be odd and at least 3")


@lru_cache(maxsize=16)
def _kernel(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # symmetric interior nodes keep the kernel mean exactly zero
    half = (nodes - 1) // 2
    u = np.arange(-half, half + 1) / (half + 1.0)
    w = bump((u + 1.0) / 2.0)
    w = w / w.sum()
    return u, w


def reg_max(x: float, y: float, p: RegMaxParams) -> float:
    """Mollified maximum M(x, y) at kernel scale eta.

    Exceeds max(x, y); equals y whenever y >= x + 2 eta; symmetric,
    monotone, and convex as a mixture of shifted maxima.  Past the
    collapse threshold every kernel point selects the dominant argument
    and the kernel mean vanishes, so the identity M = max is returned
    directly there instead of through quadrature roundoff.  The
    quadrature takes its arguments in sorted order, so swapping them
    gives the same bits.
    """
    if x > y:
        x, y = y, x
    if y >= x + 2.0 * p.eta:
        return y
    u, w = _kernel(p.nodes)
    ax = x + p.eta * u
    ay = y + p.eta * u
    grid = np.maximum(ax[:, None], ay[None, :])
    # the kernel mean can round one ulp below y; M >= max(x, y) holds exactly
    return max(float(w @ grid @ w), y)


# ---------------------------------------------------------------------------
# Convex gluing function
# ---------------------------------------------------------------------------


def _smoothed_hinge(x: np.ndarray, r: float) -> np.ndarray:
    """Convex C^2 version of max(x, 0): zero for x <= -r, x for x >= r.

    Between, it is 2r int_0^w S with w = (x + r) / (2r), the integral of
    the smoothstep read from `_smoothstep.step_integral`.
    """
    out = np.where(x >= r, x, 0.0)
    mid = (x > -r) & (x < r)
    out[mid] = 2.0 * r * step_integral((x[mid] + r) / (2.0 * r))
    return out


@dataclass(frozen=True)
class ChiFunction:
    """Convex increasing smooth function with chi(0) = 0.

    Piecewise-linear data (breakpoints and slopes) smoothed by convex
    hinges of the given radius; the smoothing only ever increases the
    function, so sample dominations certified for the piecewise-linear
    core survive.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("smoothing radius must be positive")
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise ValueError("need one more slope than breakpoints")
        if any(s <= 0 for s in self.slopes):
            raise ValueError("slopes must be positive")
        if any(b <= a for a, b in zip(self.slopes, self.slopes[1:])):
            raise ValueError("slopes must increase across breakpoints")
        if any(t <= 0 for t in self.breakpoints):
            raise ValueError("breakpoints must be positive")
        if self.breakpoints and self.breakpoints[0] <= self.radius:
            raise ValueError("first breakpoint inside smoothing radius of 0")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.slopes[0] * t
        for bp, s_lo, s_hi in zip(self.breakpoints, self.slopes, self.slopes[1:]):
            out = out + (s_hi - s_lo) * _smoothed_hinge(t - bp, self.radius)
        return float(out) if out.ndim == 0 else out

    def piecewise_core(self, t):
        """The unsmoothed piecewise-linear minorant."""
        t = np.asarray(t, dtype=float)
        out = self.slopes[0] * t
        for bp, s_lo, s_hi in zip(self.breakpoints, self.slopes, self.slopes[1:]):
            out = out + (s_hi - s_lo) * np.maximum(t - bp, 0.0)
        return float(out) if out.ndim == 0 else out


def build_chi(
    phi_samples: Sequence[tuple[object, float]],
    psi_samples: Sequence[tuple[object, float]],
    safety: float = 0.5,
) -> ChiFunction:
    """Convex chi with chi(psi(x)) > phi(x) at every paired sample.

    Samples are paired by position and live on the region between the
    two neighbourhoods.  Writing m for the infimum of psi there, the
    level sets {p - 1 <= phi < p} have psi-minima a_p, and past the
    level index k_n all minima exceed n m.  Placing knots at t_n = n m
    with targets that clear the levels still reachable below t_{n+1}
    gives a staircase majorant; greedy nondecreasing slopes make it
    convex and hinge smoothing at radius m/4 keeps chi(0) = 0 exact.

    Raises ValueError when min psi <= 0 (the gluing construction needs
    m > 0) or phi samples are not positive.
    """
    if len(phi_samples) != len(psi_samples) or not phi_samples:
        raise ValueError("need matching nonempty sample lists")
    if safety <= 0:
        raise ValueError("safety margin must be positive")
    phis = np.array([v for _, v in phi_samples], dtype=float)
    psis = np.array([v for _, v in psi_samples], dtype=float)
    m = float(psis.min())
    if m <= 0:
        raise ValueError(f"inf psi = {m:.6g} is not positive")
    if phis.min() <= 0:
        raise ValueError("phi samples must be positive")

    levels = np.floor(phis).astype(int) + 1
    level_ids = sorted(set(levels.tolist()))
    minima = [float(psis[levels == p].min()) for p in level_ids]
    n_lvl = len(level_ids)

    # suffix minima: tail_min[k] = min(minima[k:]), +inf past the end
    tail_min = [math.inf] * (n_lvl + 1)
    for k in range(n_lvl - 1, -1, -1):
        tail_min[k] = min(minima[k], tail_min[k + 1])

    def first_covered(threshold: float) -> int:
        # smallest k with all minima[j] >= threshold for j >= k
        k = n_lvl
        while k > 0 and tail_min[k - 1] >= threshold:
            k -= 1
        return k

    cap_target = level_ids[-1] + 1 + safety
    knots: list[float] = []
    targets: list[float] = []
    n = 1
    while True:
        k_next = first_covered((n + 1) * m)
        target = cap_target if k_next >= n_lvl else level_ids[k_next] + safety
        knots.append(n * m)
        targets.append(target if not targets else max(target, targets[-1]))
        if k_next >= n_lvl:
            break
        n += 1

    slopes: list[float] = []
    value = 0.0
    prev_t = 0.0
    for t, v in zip(knots, targets):
        need = (v - value) / (t - prev_t)
        s = max(slopes[-1] if slopes else 0.0, need)
        value += s * (t - prev_t)
        slopes.append(s)
        prev_t = t

    # collapse equal-slope segments; breakpoints are where the slope grows
    breakpoints: list[float] = []
    kept: list[float] = [slopes[0]]
    for t, s in zip(knots, slopes[1:]):
        if s > kept[-1]:
            breakpoints.append(t)
            kept.append(s)
    return ChiFunction(tuple(breakpoints), tuple(kept), radius=m / 4.0)


# ---------------------------------------------------------------------------
# Numeric complex Hessian
# ---------------------------------------------------------------------------


@dataclass
class HessianReport:
    point: np.ndarray
    matrix: np.ndarray
    eigenvalues: np.ndarray
    min_eigenvalue: float
    hermiticity_defect: float

    def to_json_dict(self) -> dict:
        return {
            "point": [[z.real, z.imag] for z in self.point],
            "matrix": [
                [[z.real, z.imag] for z in row] for row in self.matrix
            ],
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "min_eigenvalue": self.min_eigenvalue,
            "hermiticity_defect": self.hermiticity_defect,
        }


def _raw_hessian(fn: Callable[[np.ndarray], float], z0: np.ndarray, h: float) -> np.ndarray:
    m = z0.size
    dirs = np.zeros((2 * m, m), dtype=complex)
    for j in range(m):
        dirs[2 * j, j] = 1.0
        dirs[2 * j + 1, j] = 1.0j

    def second(a: int, b: int) -> float:
        # d^2 fn / d r_a d r_b over the 2m real coordinates
        if a == b:
            return (fn(z0 + h * dirs[a]) - 2.0 * fn(z0) + fn(z0 - h * dirs[a])) / h**2
        return (
            fn(z0 + h * (dirs[a] + dirs[b]))
            - fn(z0 + h * (dirs[a] - dirs[b]))
            - fn(z0 - h * (dirs[a] - dirs[b]))
            + fn(z0 - h * (dirs[a] + dirs[b]))
        ) / (4.0 * h**2)

    H = np.zeros((m, m), dtype=complex)
    for j in range(m):
        for k in range(j, m):
            xx = second(2 * j, 2 * k)
            yy = second(2 * j + 1, 2 * k + 1)
            xy = second(2 * j, 2 * k + 1)
            yx = second(2 * j + 1, 2 * k)
            H[j, k] = 0.25 * (xx + yy) + 0.25j * (xy - yx)
            if k > j:
                H[k, j] = np.conj(H[j, k])
    return H


def complex_hessian(
    fn: Callable[[np.ndarray], float], z0: Sequence[complex], h: float | None = None
) -> HessianReport:
    """Mixed second derivatives d^2 fn / dz_j dzbar_k at z0.

    Central differences in the four real directions per index pair, one
    Richardson halving, then Hermitian symmetrization.  Raises on step
    underflow.
    """
    z0 = np.asarray(z0, dtype=complex).reshape(-1)
    if h is None:
        h = 1e-4 * (1.0 + float(np.linalg.norm(z0)))
    if h < 1e-12:
        raise ValueError("difference step underflow")
    coarse = _raw_hessian(fn, z0, h)
    fine = _raw_hessian(fn, z0, h / 2.0)
    H = (4.0 * fine - coarse) / 3.0
    defect = float(np.max(np.abs(H - H.conj().T)))
    H = 0.5 * (H + H.conj().T)
    eigs = np.linalg.eigvalsh(H)
    return HessianReport(
        point=z0.copy(),
        matrix=H,
        eigenvalues=eigs,
        min_eigenvalue=float(eigs[0]),
        hermiticity_defect=defect,
    )


# ---------------------------------------------------------------------------
# Cusp exhaustion function
# ---------------------------------------------------------------------------


def phi_cusp(a: complex, v: np.ndarray, cp: CuspParams) -> float:
    """|v|^2 plus the squared invariant fiber norm of (a, v).

    Equals |v|^2 + lambda(t0)^{-2} exp(2 pi |v|^2 / l) |a|^2; the second
    summand is the square of the lattice-invariant norm on the disk
    bundle, so the function descends to the quotient.
    """
    p = BundlePoint(a, np.asarray(v, dtype=complex))
    return float(np.vdot(p.v, p.v).real) + h_norm(p, cp) ** 2


def phi_cusp_ambient(z: np.ndarray, cp: CuspParams) -> float:
    """phi_cusp as a function of the joint vector (a, v1, .., v_{n-1})."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    return phi_cusp(complex(z[0]), z[1:], cp)


# ---------------------------------------------------------------------------
# Gluing two exhaustion candidates
# ---------------------------------------------------------------------------


@dataclass
class GlueBand:
    """Sample sets controlling a piecewise gluing.

    inner: points near the zero locus where the first function must
    dominate; outer: points on the outer rim of the gluing region where
    the second must dominate; in_region: membership test for the region
    where the regularized maximum branch applies.
    """

    inner: list = field(default_factory=list)
    outer: list = field(default_factory=list)
    in_region: Callable[[object], bool] = lambda _: True


class GlueError(ValueError):
    def __init__(self, message: str, witnesses: list):
        super().__init__(message)
        self.witnesses = witnesses


def glue_exhaustion(
    phi2: Callable[[object], float],
    psi2: Callable[[object], float],
    band_data: GlueBand,
    p: RegMaxParams,
) -> Callable[[object], float]:
    """Glue phi2 and psi2 into one function via the regularized maximum.

    Inside the gluing region the value is M_eta(phi2, psi2); outside it
    is psi2.  Consistency needs psi2 >= phi2 + 2 eta on the outer band
    (there the maximum collapses to psi2 exactly, so the two branches
    agree) and phi2 >= psi2 + 2 eta on the inner band (there the glued
    function rides phi2, unaffected by psi2 dipping near the zero
    locus).  Both margins are checked on the supplied samples; failures
    raise GlueError carrying the offending points.
    """
    witnesses = [
        ("outer", pt, phi2(pt), psi2(pt))
        for pt in band_data.outer
        if psi2(pt) < phi2(pt) + 2.0 * p.eta
    ]
    witnesses += [
        ("inner", pt, phi2(pt), psi2(pt))
        for pt in band_data.inner
        if phi2(pt) < psi2(pt) + 2.0 * p.eta
    ]
    if witnesses:
        raise GlueError(
            f"band margins violated at {len(witnesses)} sample(s)", witnesses[:10]
        )

    def glued(pt) -> float:
        if band_data.in_region(pt):
            return reg_max(phi2(pt), psi2(pt), p)
        return psi2(pt)

    return glued
