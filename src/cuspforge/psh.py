"""Plurisubharmonicity toolkit: regularized maximum, convex gluing
function, cusp exhaustion function, and a numeric complex-Hessian test.

The regularized maximum M = E max(x + eta U, y + eta V) mollifies max with
a compactly supported kernel at scale eta.  For lo <= hi the sorted
arguments it is hi + eta E((lo - hi) / eta + U - V)^+, a sum of hinges, so
it dominates max exactly and equals it once the gap reaches (32/17) eta; it
is symmetric and convex, which is what makes piecewise definitions of
plurisubharmonic functions glue.  The convex gluing function chi is built from level-set
data so that chi(psi) dominates phi sample by sample, with chi(0) = 0
exact and nondecreasing slopes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import profile
from ._smoothstep import bump, step_integral
from .cusp_bundle import BundlePoint, CuspParams, h_norm


# ---------------------------------------------------------------------------
# Regularized maximum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegMaxParams:
    """Kernel scale eta."""

    eta: float

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError("eta must be positive")


# the kernel on the 33 nodes k/17, |k| <= 16; symmetric interior nodes keep
# its mean exactly zero.  U - V, for U and V independent draws from it, takes
# the offsets d/17, |d| <= 32, with the autocorrelation of the weights
_KERNEL_W = bump((np.arange(-16, 17) / 17.0 + 1.0) / 2.0)
_KERNEL_W = _KERNEL_W / _KERNEL_W.sum()
_DIFF_U = np.arange(-32, 33) / 17.0
_DIFF_W = np.correlate(_KERNEL_W, _KERNEL_W, "full")


def reg_max(x, y, p: RegMaxParams):
    """Mollified maximum M(x, y) = E max(x + eta U, y + eta V) at kernel
    scale eta, elementwise over arrays; a float pair gives a float.

    With lo <= hi the sorted arguments and delta = (lo - hi) / eta, the
    kernel's zero mean makes M = hi + eta E(delta + U - V)^+, one sum of 65
    hinges along the last axis, so a batch entry keeps the bits of its pair
    alone.  The hinges are >= 0 and vanish once hi - lo >= (32/17) eta, so
    M >= max(x, y), and M = max(x, y) past that gap, hold exactly.  M is
    symmetric bit for bit, monotone and convex.
    """
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    hinges = np.maximum(((lo - hi) / p.eta)[..., None] + _DIFF_U, 0.0)
    M = hi + p.eta * (hinges * _DIFF_W).sum(axis=-1)
    return float(M) if M.ndim == 0 else M


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


_SAFETY = 0.5  # how far chi's knot targets clear the phi levels they cover


def build_chi(
    phi_samples: Sequence[tuple[object, float]],
    psi_samples: Sequence[tuple[object, float]],
) -> ChiFunction:
    """Convex chi with chi(psi(x)) > phi(x) at every paired sample.

    Samples are paired by position and live on the region between the
    two neighbourhoods.  Writing m for the infimum of psi there, the
    level sets {p - 1 <= phi < p} have psi-minima a_p, and past the
    level index k_n all minima exceed n m.  Placing knots at t_n = n m
    with targets that clear the levels still reachable below t_{n+1}
    gives a staircase majorant; greedy nondecreasing slopes make it
    convex and hinge smoothing at radius m/4 keeps chi(0) = 0 exact.

    Raises ValueError when a sample is not finite, min psi <= 0 (the
    gluing construction needs m > 0) or phi samples are not in (0, 2^53),
    where the levels floor(phi) + 1 are exact.
    """
    if len(phi_samples) != len(psi_samples) or not phi_samples:
        raise ValueError("need matching nonempty sample lists")
    phis = np.array([v for _, v in phi_samples], dtype=float)
    psis = np.array([v for _, v in psi_samples], dtype=float)
    for name, vals in (("phi", phis), ("psi", psis)):
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{name} samples must be finite")
    m = float(psis.min())
    if m <= 0:
        raise ValueError(f"inf psi = {m:.6g} is not positive")
    if phis.min() <= 0:
        raise ValueError("phi samples must be positive")
    if phis.max() >= 2.0**53:
        raise ValueError("phi samples must be below 2^53, where their levels are exact")

    # minima[k]: the psi-minimum of level level_ids[k]; tail_min[k]: the
    # minimum of minima[k:], which never decreases in k
    level_ids, level_of = np.unique(np.floor(phis).astype(int) + 1, return_inverse=True)
    minima = np.full(level_ids.size, np.inf)
    np.minimum.at(minima, level_of, psis)
    tail_min = np.minimum.accumulate(minima[::-1])[::-1]

    # knots t_n = n m for n = 1..N, N the least n >= 1 with (n + 1) m past
    # the last minimum: N <= q + 1 for the floor quotient q, and the
    # candidate q + 2 absorbs rounding in q
    last = tail_min[-1]
    ns = np.arange(1, int(last // m) + 3)
    ns = ns[: np.argmax((ns + 1) * m > last) + 1]
    # the first level covered below t_{n+1}; the last knot covers them all
    first_covered = np.searchsorted(tail_min, (ns + 1) * m)
    targets = np.append(level_ids, level_ids[-1] + 1)[first_covered] + _SAFETY
    knots = ns * m

    slopes: list[float] = []
    value = 0.0
    prev_t = 0.0
    for t, v in zip(knots.tolist(), np.maximum.accumulate(targets).tolist()):
        need = (v - value) / (t - prev_t)
        s = max(slopes[-1] if slopes else 0.0, need)
        value += s * (t - prev_t)
        slopes.append(s)
        prev_t = t

    # collapse equal-slope segments; breakpoints are where the slope grows
    grows = np.diff(slopes) > 0
    kept = np.array(slopes)[np.append(True, grows)]
    return ChiFunction(tuple(knots[:-1][grows].tolist()), tuple(kept.tolist()), radius=m / 4.0)


# ---------------------------------------------------------------------------
# Numeric complex Hessian
# ---------------------------------------------------------------------------


@dataclass
class HessianReport:
    """The Levi form at one centre; at a batch of centres every field
    gains a leading axis, and min_eigenvalue is an array."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    min_eigenvalue: float | np.ndarray


@lru_cache(maxsize=8)
def _stencil(m: int) -> tuple:
    """The directions of one stencil table in C^m and the pairs j < k.

    The m^2 complex lines are e_j, then e_j + e_k and e_j + i e_k for the
    pairs; each line w is stepped along w and along i w, so a table holds
    the centre and z0 +- h u for the 2 m^2 directions u: 4 m^2 + 1 rows,
    and 2 (4 m^2 + 1) fn calls per centre over the two step sizes of
    complex_hessian, which says why the step is 3e-4 (1 + |z0|)."""
    j, k = np.triu_indices(m, 1)
    eye = np.eye(m, dtype=complex)
    lines = np.concatenate([eye, eye[j] + eye[k], eye[j] + 1j * eye[k]])
    return np.concatenate([lines, 1j * lines]), j, k


def _raw_hessian(fn: Callable[[np.ndarray], float], z0: np.ndarray, h: list[float]) -> np.ndarray:
    """Unextrapolated Levi forms at the centres z0, shape (b, m), with steps h."""
    b_rows, m = z0.shape
    dirs, j, k = _stencil(m)
    c, s = z0[:, None], np.array(h)[:, None, None]
    table = np.concatenate([c, c + s * dirs, c - s * dirs], axis=1)
    f0, fp, fm = np.split(np.array([fn(p) for p in table.reshape(-1, m)]).reshape(b_rows, -1),
                          [1, 1 + len(dirs)], axis=1)
    # the Levi form on a line w is a quarter of fn's Laplacian there,
    # L(w) = sum_jk H_jk w_j conj(w_k); h**2 as Python floats, so that a
    # centre keeps the bits of a lone call
    h2 = np.array([x**2 for x in h])[:, None]
    along, across = np.split((fp - 2.0 * f0 + fm) / h2, 2, axis=1)
    diag, re, im = np.split(0.25 * (along + across), [m, m + j.size], axis=1)
    # L(e_j + e_k) and L(e_j + i e_k) are H_jj + H_kk + 2 Re H_jk and + 2 Im H_jk
    both = diag[:, j] + diag[:, k]
    H = np.zeros((b_rows, m, m), dtype=complex)
    H[:, range(m), range(m)] = diag
    H[:, j, k] = 0.5 * (re - both) + 0.5j * (im - both)
    H[:, k, j] = np.conj(H[:, j, k])
    return H


def complex_hessian(
    fn: Callable[[np.ndarray], float], z0: Sequence[complex] | np.ndarray
) -> HessianReport:
    """Mixed second derivatives d^2 fn / dz_j dzbar_k at one centre z0 of
    shape (m,), or at each of a batch of centres of shape (B, m).

    fn is plurisubharmonic exactly when it is subharmonic on every complex
    line, and the Levi form on a line w is a quarter of fn's Laplacian
    there.  The m^2 lines e_j, e_j + e_k and e_j + i e_k (j < k) give H_jj,
    Re H_jk and Im H_jk; each Laplacian is two central second differences,
    along w and along i w.  One stencil table per step size holds the centre
    and its 4 m^2 neighbours, each evaluated once, and one Richardson
    halving follows.  The step is 3e-4 (1 + |z0|) per centre: at 1e-4 the
    rounding of fn's values, amplified by 1/h^2, outweighs the truncation
    the halving leaves, and at 3e-4 the truncation shows only where fn's
    sixth derivatives are large.  fn takes one point of shape (m,) and is
    called once per table row: 2 (4 m^2 + 1) times per centre.  The centres
    go through in profile.blocks, a block's width being one centre's two
    tables in float64 elements, so a block's tables hold about
    BLOCK_ELEMENTS elements, or one centre's where those are more.  Every
    step is elementwise or per centre, so a centre keeps the bits of a lone
    call in any block.

    The matrix is exactly Hermitian by construction: the lower triangle is
    the conjugate of the upper one, the diagonal is real, and the Richardson
    step commutes with conjugation.  A single centre gives a float
    min_eigenvalue; a batch gives matrix (B, m, m), eigenvalues (B, m) and
    min_eigenvalue (B,).  Raises ValueError on a centre without coordinates,
    an empty batch or a centre that is not finite.
    """
    z = np.asarray(z0, dtype=complex)
    if z.ndim > 2:
        raise ValueError(f"z0 must be one centre (m,) or a batch (B, m), got shape {z.shape}")
    centres = z if z.ndim == 2 else z.reshape(1, -1)
    count, m = centres.shape
    if m == 0:
        raise ValueError("a centre needs at least one coordinate")
    if count == 0:
        raise ValueError("the batch holds no centres")
    finite = np.isfinite(centres).all(axis=1)
    if not finite.all():
        raise ValueError(f"centre {int(np.argmin(finite))} is not finite")
    steps = [3e-4 * (1.0 + float(np.linalg.norm(c))) for c in centres]
    width = 4 * m * (4 * m * m + 1)  # two tables of m complex values a row
    H = np.empty((count, m, m), dtype=complex)
    for rows in profile.blocks(count, width):
        h = steps[rows]
        coarse = _raw_hessian(fn, centres[rows], h)
        fine = _raw_hessian(fn, centres[rows], [x / 2.0 for x in h])
        H[rows] = (4.0 * fine - coarse) / 3.0
    eigs = np.linalg.eigvalsh(H)
    if z.ndim < 2:
        return HessianReport(matrix=H[0], eigenvalues=eigs[0], min_eigenvalue=float(eigs[0, 0]))
    return HessianReport(matrix=H, eigenvalues=eigs, min_eigenvalue=eigs[:, 0])


# ---------------------------------------------------------------------------
# Cusp exhaustion function
# ---------------------------------------------------------------------------


def phi_cusp_ambient(z: np.ndarray, cp: CuspParams) -> float:
    """|v|^2 plus the squared invariant fiber norm of the joint vector
    z = (a, v1, .., v_{n-1}).

    Equals |v|^2 + lambda(t0)^{-2} exp(2 pi |v|^2 / l) |a|^2; the second
    summand is the square of the lattice-invariant norm on the disk
    bundle, so the function descends to the quotient.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    p = BundlePoint(complex(z[0]), z[1:])
    return float(np.vdot(p.v, p.v).real) + h_norm(p, cp) ** 2


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
