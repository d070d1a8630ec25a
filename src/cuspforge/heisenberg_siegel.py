"""Heisenberg group algebra and the Siegel model of complex hyperbolic space.

The Heisenberg group N of dimension 2n-1 consists of elements n_(s,v) with
s real and v a complex (n-1)-vector.  It acts on the Siegel model

    Omega = { (a, v) in C x C^(n-1) : 2 Re(a) + |v|^2 < 0 },

the unbounded realization of complex hyperbolic n-space, as the unipotent
stabilizer of the boundary point at infinity.  This module implements the
group law, the matrix model acting on C^(n+1), the orbit coordinates, and
the quotient of a horoball by the center of N, which produces the
punctured-disk coordinates used by the cusp bundle module.

Conventions.  The Hermitian product on C^k is linear in the first argument
and conjugate-linear in the second.  All operations are pure; elements are
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HeisenbergElement",
    "SiegelPoint",
    "hermitian_product",
    "compose",
    "to_matrix",
    "orbit_coords",
    "quotient_to_omega",
    "lambda_const",
]


def hermitian_product(v: np.ndarray, w: np.ndarray) -> complex | np.ndarray:
    """Standard Hermitian product, linear in v, conjugate-linear in w.

    One np.vecdot along the last axis, broadcasting over the leading ones:
    two lone vectors give a Python complex, and an (N, k) batch on either
    side an (N,) array whose row i is bit-equal to the lone product of row
    i.  The layer's squared norms come from here, bar h_norm's one point.
    """
    z = np.vecdot(w, v)
    return complex(z) if z.ndim == 0 else z


@dataclass(frozen=True, eq=False)
class HeisenbergElement:
    """A point n_(s,v) of the Heisenberg group, or a batch of them.

    s is the central coordinate, v the horizontal complex (n-1)-vector.  A
    0-d s makes one point, stored as given, whose v is flattened, so any
    array of n - 1 entries will do.  An s of shape (N,), a list included,
    makes a batch of N elements with v of shape (N, n - 1): row i is the
    element (s[i], v[i]).  Every entry of every row must be finite.
    """

    s: float | np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float)
        v = np.asarray(self.v, dtype=complex)
        if s.ndim:
            if s.ndim != 1 or v.ndim != 2 or v.shape[0] != s.shape[0]:
                raise ValueError(
                    f"a batch of s of shape {s.shape} needs v of shape (N, n - 1) with N = "
                    f"{s.shape[0]}, got {v.shape}"
                )
            object.__setattr__(self, "s", s)
        else:
            v = v.reshape(-1)
        object.__setattr__(self, "v", v)
        if not (np.isfinite(s).all() and np.isfinite(v.view(float)).all()):
            raise ValueError("HeisenbergElement entries must be finite")


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """A point (a, v) of the Siegel domain coordinates."""

    a: complex
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", np.asarray(self.v, dtype=complex).reshape(-1))

    def defect(self) -> float:
        """2 Re(a) + |v|^2; negative exactly on the Siegel domain."""
        return 2.0 * self.a.real + hermitian_product(self.v, self.v).real

    def in_domain(self) -> bool:
        return self.defect() < 0.0


def compose(g: HeisenbergElement, h: HeisenbergElement) -> HeisenbergElement:
    """Group law n_(s,v) n_(s',v') = n_(s + s' + Im<v',v>, v + v')."""
    if g.v.shape != h.v.shape:
        raise ValueError("dimension mismatch in Heisenberg composition")
    twist = hermitian_product(h.v, g.v).imag
    return HeisenbergElement(g.s + h.s + twist, g.v + h.v)


def to_matrix(g: HeisenbergElement) -> np.ndarray:
    """Unipotent matrix of n_(s,v) acting on C^(n+1).

    In the basis (f1, ..., f_{n+1}) adapted to the isotropic flag, the
    matrix is the identity except for the first row and the second column:
    entry (1,2) is -|v|^2/2 - i s, entries (1, 2+j) are -conj(v_j) and
    entries (2+j, 2) are v_j.
    """
    m = np.eye(g.v.size + 2, dtype=complex)
    nv2 = hermitian_product(g.v, g.v).real
    m[0, 1] = -0.5 * nv2 - 1j * g.s
    m[0, 2:] = -np.conj(g.v)
    m[2:, 1] = g.v
    return m


def orbit_coords(s: float, v: np.ndarray, t: float) -> SiegelPoint:
    """Coordinates of n_(s,v) a_t applied to the base point.

    The orbit map lands at (-|v|^2/2 - i s - e^(-2t), v), which always
    satisfies 2 Re(a) + |v|^2 = -2 e^(-2t) < 0.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    nv2 = hermitian_product(v, v).real
    a = -0.5 * nv2 - 1j * s - math.exp(-2.0 * t)
    return SiegelPoint(a, v)


def quotient_to_omega(p: SiegelPoint, l: float) -> tuple[complex, np.ndarray]:
    """Quotient by the center <n_(l,0)>, acting as a -> a - i l.

    The map (a, v) -> (exp(2 pi a / l), v) is invariant under the center and
    sends the Siegel domain onto { 0 < |first| < exp(-pi |v|^2 / l) }.
    """
    if not l > 0.0:
        raise ValueError("central translation length l must be positive")
    if not p.in_domain():
        raise ValueError("point outside the Siegel domain")
    first = np.exp(2.0 * math.pi * complex(p.a) / l)
    return complex(first), p.v.copy()


def lambda_const(t0: float, l: float) -> float:
    """lambda(t0) = exp(-2 pi e^(-2 t0) / l), the horoball radius constant."""
    if not l > 0.0:
        raise ValueError("central translation length l must be positive")
    return math.exp(-2.0 * math.pi * math.exp(-2.0 * t0) / l)
