"""Punctured-disk-bundle model of a cusp quotient.

A cusp of a complex hyperbolic manifold, cut along a horoball of depth t0
and quotiented by a lattice in the Heisenberg group, becomes an open subset
of a holomorphic punctured disk bundle over an abelian torus.  This module
implements the induced lattice action on the bundle coordinates (a, v),
the Hermitian bundle metric whose unit-disk sublevel recovers the horoball,
its Chern curvature (negative definite, which is the negativity of the
normal bundle of the compactifying torus), the d-fold fiber covers, and the
polar identification of the cusp with a punctured disk times C^(n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heisenberg_siegel import HeisenbergElement, hermitian_product, lambda_const

__all__ = [
    "BundlePoint",
    "CuspParams",
    "CoverDegree",
    "lattice_act",
    "h_norm",
    "in_punctured_disk_bundle",
    "bundle_curvature",
    "power_cover",
    "cusp_to_disk",
]


@dataclass(frozen=True, eq=False)
class BundlePoint:
    """Fiber coordinate a and base chart coordinate v."""

    a: complex
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", np.asarray(self.v, dtype=complex).reshape(-1))


@dataclass(frozen=True)
class CuspParams:
    """Center period l > 0, horoball depth t0, ambient dimension n."""

    l: float
    t0: float
    n: int

    def __post_init__(self) -> None:
        if self.l <= 0.0:
            raise ValueError("center period l must be positive")
        if self.n < 2:
            raise ValueError("dimension n must be at least 2")


@dataclass(frozen=True)
class CoverDegree:
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("cover degree must be a positive integer")


def lattice_act(g: HeisenbergElement, p: BundlePoint, cp: CuspParams) -> BundlePoint:
    """Action of n_(s,v) on the quotient coordinates.

    n_(s,w) . (a, v) = (exp((2 pi / l)(-|w|^2/2 - i s - <v, w>)) a, w + v).
    The central element n_(l,0) acts trivially since exp(-2 pi i) = 1.
    """
    pairing = hermitian_product(p.v, g.v)
    nw2 = float(np.vdot(g.v, g.v).real)
    expo = (2.0 * math.pi / cp.l) * (-0.5 * nw2 - 1j * g.s - pairing)
    return BundlePoint(complex(np.exp(expo)) * p.a, g.v + p.v)


def h_norm(p: BundlePoint, cp: CuspParams) -> float:
    """Bundle-metric norm lambda(t0)^(-1) exp(pi |v|^2 / l) |a|.

    Invariant under lattice_act: the |w|^2/2 and Re<v,w> terms in the
    action cancel against the expansion of |v + w|^2 in the weight.
    """
    nv2 = float(np.vdot(p.v, p.v).real)
    lam = lambda_const(cp.t0, cp.l)
    return math.exp(math.pi * nv2 / cp.l) * float(abs(p.a)) / lam


def in_punctured_disk_bundle(p: BundlePoint, cp: CuspParams) -> bool:
    """True iff 0 < h_norm(p) < 1, the image of the open horoball."""
    r = h_norm(p, cp)
    return 0.0 < r < 1.0


def bundle_curvature(cp: CuspParams) -> np.ndarray:
    """Chern curvature coefficients of the bundle metric: -(2 pi / l) Id.

    All eigenvalues are negative for every l > 0; this is the negativity
    of the normal bundle of the torus at infinity.
    """
    return -(2.0 * math.pi / cp.l) * np.eye(cp.n - 1)


def power_cover(p: BundlePoint, deg: CoverDegree) -> BundlePoint:
    """Fiberwise d-th power (a, v) -> (a^d, v).

    Maps the disk bundle of the l/d-periodic quotient into the l-periodic
    one: |a| < exp(-pi |v|^2 / (d l)) implies |a^d| < exp(-pi |v|^2 / l).
    """
    return BundlePoint(complex(p.a) ** deg.d, p.v.copy())


def cusp_to_disk(t: float, g: HeisenbergElement, A: float) -> tuple[complex, np.ndarray]:
    """Polar identification of (0, A) x N / center with D*(0, A) x C^(n-1).

    The central period is assumed normalized to 2 pi (apply rescale first
    otherwise); the pair (t, n_(s,v)) goes to (t e^(i s), v), so the radius
    is the transverse coordinate and the angle is the central one.
    """
    if not 0.0 < t < A:
        raise ValueError("transverse coordinate t must lie in (0, A)")
    return t * complex(np.exp(1j * g.s)), g.v.copy()
