"""Punctured-disk-bundle model of a cusp quotient.

A cusp of a complex hyperbolic manifold, cut along a horoball of depth t0
and quotiented by a lattice in the Heisenberg group, becomes an open subset
of a holomorphic punctured disk bundle over an abelian torus.  This module
implements the induced lattice action on the bundle coordinates (a, v),
the Hermitian bundle metric whose unit-disk sublevel recovers the horoball,
its Chern curvature (negative definite, which is the negativity of the
normal bundle of the compactifying torus), and the polar identification of
the cusp with a punctured disk times C^(n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .heisenberg_siegel import HeisenbergElement, hermitian_product, lambda_const

__all__ = [
    "BundlePoint",
    "CuspParams",
    "lattice_act",
    "h_norm",
    "bundle_curvature",
    "cusp_to_disk",
]


@dataclass(frozen=True, eq=False)
class BundlePoint:
    """Fiber coordinate a and base chart coordinate v, or a batch of them.

    For one point v is flattened, so any array of n - 1 entries makes
    one.  An a of shape (N,) makes a batch of N points, whose v has shape
    (N, n - 1): row i is the point (a[i], v[i]).
    """

    a: complex | np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.a, np.ndarray) and self.a.ndim:
            a = np.asarray(self.a, dtype=complex)
            v = np.asarray(self.v, dtype=complex)
            if a.ndim != 1 or v.ndim != 2 or v.shape[0] != a.shape[0]:
                raise ValueError(
                    f"a batch of a of shape {a.shape} needs v of shape (N, n - 1) with N = "
                    f"{a.shape[0]}, got {v.shape}"
                )
            object.__setattr__(self, "a", a)
        else:
            v = np.asarray(self.v, dtype=complex).reshape(-1)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class CuspParams:
    """Center period l > 0, horoball depth t0, ambient dimension n.

    The depth t0 must be finite with lambda(t0) = exp(-2 pi e^(-2 t0) / l)
    > 0, since h_norm divides by it (by lam, computed here); a t0 so
    negative that e^(-2 t0) overflows counts as lambda(t0) = 0.
    """

    l: float
    t0: float
    n: int
    lam: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.l > 0.0:
            raise ValueError("center period l must be positive")
        if self.n < 2:
            raise ValueError("dimension n must be at least 2")
        if not math.isfinite(self.t0):
            raise ValueError(f"horoball depth t0 must be finite, got {self.t0}")
        try:
            lam = lambda_const(self.t0, self.l)
        except OverflowError:
            lam = 0.0
        if not lam > 0.0:  # lambda(t0) <= 1 for l > 0
            raise ValueError(f"t0 = {self.t0} and l = {self.l} give lambda(t0) = {lam}, not > 0")
        object.__setattr__(self, "lam", lam)


def lattice_act(g: HeisenbergElement, p: BundlePoint, cp: CuspParams) -> BundlePoint:
    """Action of n_(s,v) on the quotient coordinates.

    n_(s,w) . (a, v) = (exp((2 pi / l)(-|w|^2/2 - i s - <v, w>)) a, w + v).
    The central element n_(l,0) acts trivially since exp(-2 pi i) = 1.

    g and p are each one point or a batch of N (see HeisenbergElement and
    BundlePoint), and a batch meets the other side row by row, or a lone
    point meets every row.  One np.exp serves both; two lone points give a
    Python complex a.  Row i has the lone action's v to the bit and its a
    to within an ulp: numpy's array product fuses a multiply-add.  Where
    the factor overflows to inf, exp(pi |v|^2 / l) overflows too, so
    h_norm of the base point, which the bundle check takes first, raises
    naming l.
    """
    pairing = hermitian_product(p.v, g.v)
    nw2 = hermitian_product(g.v, g.v).real
    expo = (2.0 * math.pi / cp.l) * (-0.5 * nw2 - 1j * g.s - pairing)
    a = np.exp(expo) * p.a
    return BundlePoint(complex(a) if a.ndim == 0 else a, g.v + p.v)


def h_norm(p: BundlePoint, cp: CuspParams) -> float | np.ndarray:
    """Bundle-metric norm lambda(t0)^(-1) exp(pi |v|^2 / l) |a|.

    Invariant under lattice_act: the |w|^2/2 and Re<v,w> terms in the
    action cancel against the expansion of |v + w|^2 in the weight.

    A batch of N points gives an (N,) array through hermitian_product and
    np.exp; one point, the layer's one scalar body, gives a float through
    np.vdot and math.exp, within an ulp or two of its batch row.  Either
    raises OverflowError, naming l and |v|^2 of the first such row, where
    the weight overflows.
    """
    v = p.v
    if v.ndim == 1:
        # 7,400 calls per verify all and 21,472 per psh_bundle iteration,
        # where numpy's cost on 0-d arrays would exceed the formula's
        nv2 = float(np.vdot(v, v).real)
        try:
            weight = math.exp(math.pi * nv2 / cp.l)
        except OverflowError:
            raise _weight_overflow(cp, nv2) from None
        return weight * float(abs(p.a)) / cp.lam
    nv2 = hermitian_product(v, v).real
    with np.errstate(over="ignore"):
        weight = np.exp(math.pi * nv2 / cp.l)
    over = np.isinf(weight)
    if over.any():
        raise _weight_overflow(cp, float(nv2[over.argmax()]))
    return weight * np.abs(p.a) / cp.lam


def _weight_overflow(cp: CuspParams, nv2: float) -> OverflowError:
    return OverflowError(
        f"h_norm: exp(pi |v|^2 / l) overflows at l = {cp.l:g} and |v|^2 = {nv2:.6g}"
    )


def bundle_curvature(cp: CuspParams) -> np.ndarray:
    """Chern curvature coefficients of the bundle metric: -(2 pi / l) Id.

    All eigenvalues are negative for every l > 0; this is the negativity
    of the normal bundle of the torus at infinity.
    """
    return -(2.0 * math.pi / cp.l) * np.eye(cp.n - 1)


def cusp_to_disk(t: float, g: HeisenbergElement, A: float) -> tuple[complex, np.ndarray]:
    """Polar identification of (0, A) x N / center with D*(0, A) x C^(n-1).

    The central period is assumed to be 2 pi, so that the central element
    n_(2 pi, 0) acts trivially on the angle; the pair (t, n_(s,v)) goes to
    (t e^(i s), v), so the radius is the transverse coordinate and the angle
    is the central one.
    """
    if not 0.0 < t < A:
        raise ValueError("transverse coordinate t must lie in (0, A)")
    return t * complex(np.exp(1j * g.s)), g.v.copy()
