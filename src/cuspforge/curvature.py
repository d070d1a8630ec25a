"""Curvature of the warped Heisenberg metrics mu_{f,g} on a cusp.

The cusp (0, A] x N carries the left-invariant complex structure J with
J Z = g(t) d/dt and J = i on the horizontal space r, and the Hermitian
metric

    mu_{f,g} = dt^2  +  f(t)^2 mu on r  +  g(t)^2 mu on R Z,

which is Kahler exactly when g = f f'.  Curvature convention:

    R(X, Y) = nabla_[X,Y] - [nabla_X, nabla_Y],
    R(X, Y, Z, T) = mu(R(X, Y) Z, T),

so R(X, Y, X, Y) carries the sign of the sectional curvature; the model
f = exp has constant holomorphic sectional curvature -4 and sectional
curvature pinched in [-4, -1].

Two independent curvature routes are implemented and cross-checked.

* Closed forms: the 2x2 blocks G and F of the curvature operator on the
  wedges spanned by a horizontal unit X and Z, the full holomorphic
  bisectional curvature R(Y ^ JY, Xi ^ JXi) expanded through the splitting
  Xtilde = d X + e JX + W, and the Ricci quadratic form.

* An oracle: the Koszul formula evaluated on the frame
  (d/dt, X_1, JX_1, ..., X_{n-1}, JX_{n-1}, Z) with the Heisenberg bracket
  [X, JX] = 2 Z.  The Koszul sum is linear in the metric coefficients and
  their t-derivatives, so the t-derivatives of the Christoffel symbols are
  the same sum over f and g's higher derivatives, taken symbolically and
  not by finite differences.

The oracle is the arbiter for every orientation-dependent sign in the
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .profile import CutoffProfile

__all__ = [
    "MetricPoint",
    "FrameVector",
    "CurvatureBlocks",
    "CertificateReport",
    "hs_blocks",
    "bisectional",
    "ricci",
    "ricci_coefficients",
    "rz_plane_curvature",
    "bianchi_check",
    "poly_P",
    "discriminant_inequality",
    "CurvatureOracle",
    "oracle_for",
    "hbc_certificate",
    "random_frame_vector",
]


# ---------------------------------------------------------------------------
# Metric data and frame vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricPoint:
    """Profile jet at t together with the dimension n.

    The jet fields are floats for one point or arrays of one batch shape,
    such as (S,) for S times; the formulas broadcast them against the
    leading axes of the frame vectors.  g = f f' and its derivatives are
    derived from the jet, so the Kahler relation holds by construction.
    """

    t: float
    f: float
    fp: float
    fpp: float
    fppp: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("dimension n must be at least 2")
        if not np.all((self.f > 0.0) & (self.fp > 0.0) & (self.fpp > 0.0) & (self.fppp > 0.0)):
            raise ValueError("metric point requires f, f', f'', f''' > 0")

    def __hash__(self) -> int:
        # oracle_for caches by point: a batch raises the oracle's ValueError
        # here instead of numpy's TypeError for an unhashable array
        _require_point(self)
        return hash((self.t, self.f, self.fp, self.fpp, self.fppp, self.n))

    @property
    def g(self) -> float:
        return self.f * self.fp

    @property
    def gp(self) -> float:
        return self.fp * self.fp + self.f * self.fpp

    @property
    def gpp(self) -> float:
        return 3.0 * self.fp * self.fpp + self.f * self.fppp

    @classmethod
    def from_jet(cls, t, jet: np.ndarray, n: int) -> "MetricPoint":
        """Metric point from the profile jet (f, f', f'', f''') at t: a
        float t with a (4,) jet, or (S,) times with (S, 4) jets."""
        f0, f1, f2, f3 = np.moveaxis(np.asarray(jet, dtype=float), -1, 0)
        return cls(t=t, f=f0, fp=f1, fpp=f2, fppp=f3, n=n)

    @classmethod
    def from_profile(cls, p: CutoffProfile, t: float, n: int) -> "MetricPoint":
        return cls.from_jet(t, p.jet_at(float(t)), n)

    @classmethod
    def exp_model(cls, t: float, n: int) -> "MetricPoint":
        """Constant-curvature model f = e^t, g = e^(2t)."""
        e = math.exp(t)
        return cls(t=t, f=e, fp=e, fpp=e, fppp=e, n=n)

    @classmethod
    def cosh_model(cls, t: float, n: int) -> "MetricPoint":
        """Near-boundary model f = cosh t (t > 0 so that f', f''' > 0)."""
        if t <= 0.0:
            raise ValueError("cosh model needs t > 0")
        ch, sh = math.cosh(t), math.sinh(t)
        return cls(t=t, f=ch, fp=sh, fpp=ch, fppp=sh, n=n)


@dataclass(frozen=True, eq=False)
class FrameVector:
    """Tangent vector u + beta Z + gamma JZ in the invariant frame.

    u is the horizontal complex part, of shape (..., n-1); beta and gamma
    are floats or arrays of the leading shape (...), so one FrameVector
    holds a single vector or a batch.  J acts as
    (u, beta, gamma) -> (i u, -gamma, beta).
    """

    u: np.ndarray
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", np.asarray(self.u, dtype=complex))

    def __getitem__(self, k) -> "FrameVector":
        """The sub-batch at index k of the leading axes."""
        return FrameVector(self.u[k], self.beta[k], self.gamma[k])

    def J(self) -> "FrameVector":
        return FrameVector(1j * self.u, -self.gamma, self.beta)

    def __add__(self, other: "FrameVector") -> "FrameVector":
        return FrameVector(self.u + other.u, self.beta + other.beta, self.gamma + other.gamma)

    def __sub__(self, other: "FrameVector") -> "FrameVector":
        return FrameVector(self.u - other.u, self.beta - other.beta, self.gamma - other.gamma)

    def __rmul__(self, c: float) -> "FrameVector":
        return FrameVector(c * self.u, c * self.beta, c * self.gamma)

    def norm_sq(self, mp: MetricPoint):
        return self.inner(self, mp)

    def inner(self, other: "FrameVector", mp: MetricPoint):
        uu = _hdot(self.u, other.u)[0]
        return mp.f * mp.f * uu + mp.g * mp.g * (
            self.beta * other.beta + self.gamma * other.gamma
        )


def _hdot(v: np.ndarray, w: np.ndarray):
    """Real and imaginary part of sum(conj(w) v) over the last axis, in real
    products, so that a batch row rounds exactly like a single vector."""
    return (
        np.sum(w.real * v.real + w.imag * v.imag, axis=-1),
        np.sum(w.real * v.imag - w.imag * v.real, axis=-1),
    )


def random_frame_vector(rng: np.random.Generator, n: int, shape: tuple = ()) -> FrameVector:
    """Standard normal frame vectors of batch shape `shape`, () for one.

    One rng.standard_normal(shape + (2n,)) block: in each row the first
    n-1 entries are Re u, the next n-1 are Im u, and the last two are beta
    and gamma.  The generator fills the block row by row, so a batch draws
    the same stream as the same vectors drawn one at a time.
    """
    z = rng.standard_normal(tuple(shape) + (2 * n,))
    u = z[..., : n - 1] + 1j * z[..., n - 1 : 2 * n - 2]
    return FrameVector(u, z[..., -2][()], z[..., -1][()])


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureBlocks:
    """Curvature operator blocks on the unit wedges built from X and Z.

    G acts on span(X ^ JX, Z ^ JZ), F on span(X ^ Z, JX ^ JZ) and on
    span(JX ^ Z, X ^ JZ).
    """

    G: np.ndarray
    F: np.ndarray


def _warp_squares(mp: MetricPoint):
    """(h1^2, h2^2, h3^2) = (4 (f'/f)^2, 3 f''/f + f'''/f', f''/f)."""
    r = mp.fp / mp.f
    k = mp.fpp / mp.f
    return 4.0 * (r * r), 3.0 * k + mp.fppp / mp.fp, k


def hs_blocks(mp: MetricPoint) -> CurvatureBlocks:
    """Blocks of the curvature operator in the normalized wedge basis.

    G = [[-4 (f'/f)^2, -2 f''/f], [-2 f''/f, -3 f''/f - f'''/f']] and F has
    all four entries equal to -f''/f.  With f = exp both collapse to the
    constant-curvature values G = [[-4, -2], [-2, -4]], F = -ones.
    """
    h1sq, h2sq, k = _warp_squares(mp)
    G = np.array([[-h1sq, -2.0 * k], [-2.0 * k, -h2sq]])
    F = np.full((2, 2), -k)
    return CurvatureBlocks(G=G, F=F)


def _pair_data(Y: FrameVector, Xi: FrameVector):
    """a^2, alpha^2, b^2 + c^2, beta^2 + gamma^2, the mixed term
    2 a alpha ((b beta + c gamma) x + (c beta - b gamma) y) and
    a^2 alpha^2 (d^2 + e^2) of the bisectional formula.  With
    <u_Y, u_Xi> = a alpha (x + i y) none of them needs the unit vectors X
    and Xtilde, so all of them vanish with the horizontal parts."""
    b, c, beta, gamma = Y.beta, Y.gamma, Xi.beta, Xi.gamma
    re, im = _hdot(Y.u, Xi.u)
    cross = 2.0 * ((b * beta + c * gamma) * re + (c * beta - b * gamma) * im)
    a_sq, alpha_sq = _hdot(Y.u, Y.u)[0], _hdot(Xi.u, Xi.u)[0]
    return a_sq, alpha_sq, b * b + c * c, beta * beta + gamma * gamma, cross, re * re + im * im


def bisectional(Y: FrameVector, Xi: FrameVector, mp: MetricPoint):
    """Holomorphic bisectional curvature R(Y ^ JY, Xi ^ JXi).

    Writing Y = a X + b Z + c JZ and Xi = alpha Xtilde + beta Z + gamma JZ
    with X, Xtilde horizontal unit vectors, and Xtilde = d X + e JX + W,

      -R = a^2 alpha^2 ((d^2 + e^2) f^4 h1^2 + 2 g^2 |W|^2)
           + h2^2 g^4 (b^2 + c^2)(beta^2 + gamma^2)
           + 2 f^2 g^2 h3^2 (a^2 (beta^2 + gamma^2) + alpha^2 (b^2 + c^2)
              + 2 a alpha (b beta + c gamma) mu(X, Xtilde)
              + 2 a alpha (c beta - b gamma) mu(X, J Xtilde)),

    which is nonpositive, and zero only for Y = 0 or Xi = 0.  Here |W| is
    measured in the fixed inner product mu (so d^2 + e^2 + |W|^2 = 1); the
    W coefficient is pinned against the Koszul oracle, which also fixes the
    constant-curvature limit f = exp to the space-form values.
    """
    f2, g2 = mp.f * mp.f, mp.g * mp.g
    h1sq, h2sq, h3sq = _warp_squares(mp)
    a_sq, alpha_sq, bc_sq, bg_sq, cross, dde = _pair_data(Y, Xi)
    # a^2 alpha^2 |W|^2 = a^2 alpha^2 - a^2 alpha^2 (d^2 + e^2)
    horiz = dde * (f2 * f2) * h1sq + 2.0 * g2 * np.maximum(0.0, a_sq * alpha_sq - dde)
    central = h2sq * (g2 * g2) * bc_sq * bg_sq
    mixed = 2.0 * f2 * g2 * h3sq * (a_sq * bg_sq + alpha_sq * bc_sq + cross)
    return -(horiz + central + mixed)


def cauchy_schwarz_defect(Y: FrameVector, Xi: FrameVector):
    """Slack of |2 a alpha ((b beta + c gamma) x + (c beta - b gamma) y)|
    <= a^2 (beta^2 + gamma^2) + alpha^2 (b^2 + c^2); nonnegative slack
    means the inequality holds for this pair."""
    a_sq, alpha_sq, bc_sq, bg_sq, cross, _ = _pair_data(Y, Xi)
    return a_sq * bg_sq + alpha_sq * bc_sq - np.abs(cross)


def ricci(Xi: FrameVector, mp: MetricPoint):
    """Ricci quadratic form of mu_{f,g}.

    Ricci(Xi, Xi) = -(2 f f'' + 4 f'^2 + 2 (n-2) f'^2) alpha^2
                    - ((2n+1) f f'^2 f'' + f^2 f' f''') (beta^2 + gamma^2)
    with alpha^2 the squared Euclidean norm of the horizontal part.  With
    f = exp this is the Einstein identity Ricci = -(2n+2) |Xi|^2.
    """
    alpha_sq = _hdot(Xi.u, Xi.u)[0]
    coef_h, coef_z = ricci_coefficients(mp)
    return -coef_h * alpha_sq - coef_z * (Xi.beta * Xi.beta + Xi.gamma * Xi.gamma)


def ricci_coefficients(mp: MetricPoint):
    """(coef_h, coef_z) with Ricci = -coef_h alpha^2 - coef_z (beta^2 + gamma^2).

    Horizontal and central vectors are Ricci eigenvectors with eigenvalues
    -coef_h / f^2 and -coef_z / g^2 per unit metric norm.
    """
    n = mp.n
    fp_sq = mp.fp * mp.fp
    coef_h = 2.0 * mp.f * mp.fpp + 4.0 * fp_sq + 2.0 * (n - 2) * fp_sq
    coef_z = (2 * n + 1) * mp.f * fp_sq * mp.fpp + mp.f * mp.f * mp.fp * mp.fppp
    return coef_h, coef_z


def rz_plane_curvature(U: np.ndarray, Ut: np.ndarray, mp: MetricPoint):
    """R(U ^ Z, Ut ^ Z) = -f^2 g^2 (f''/f) mu(U, Ut) for horizontal U, Ut."""
    mu = _hdot(np.asarray(U, dtype=complex), np.asarray(Ut, dtype=complex))[0]
    return -mp.f * (mp.g * mp.g) * mp.fpp * mu


# ---------------------------------------------------------------------------
# Kahler identities usable with any curvature evaluator
# ---------------------------------------------------------------------------


def bianchi_check(Rt, X: FrameVector, Y: FrameVector) -> float:
    """Defect of R(X, JX, Y, JY) = R(X, Y, X, Y) + R(X, JY, X, JY)."""
    lhs = Rt(X, X.J(), Y, Y.J())
    rhs = Rt(X, Y, X, Y) + Rt(X, Y.J(), X, Y.J())
    return abs(lhs - rhs)


def poly_P(v: FrameVector, w: FrameVector, a: float, Rt) -> tuple[float, float]:
    """Both sides of the quartic identity behind the discriminant bound.

    With p = a v + w and q = J(a v - w),
    R(p, q, p, q) = R(v,Jv,v,Jv) a^4 - 2 R(v,Jv,w,Jw) a^2 + R(w,Jw,w,Jw)
    for any Kahler curvature evaluator Rt.
    """
    p = a * v + w
    q = (a * v - w).J()
    lhs = Rt(p, q, p, q)
    rhs = (
        Rt(v, v.J(), v, v.J()) * a**4
        - 2.0 * Rt(v, v.J(), w, w.J()) * a**2
        + Rt(w, w.J(), w, w.J())
    )
    return lhs, rhs


def discriminant_inequality(v: FrameVector, w: FrameVector, Rt) -> bool:
    """R(v,Jv,w,Jw)^2 <= R(v,Jv,v,Jv) R(w,Jw,w,Jw), up to 1e-10.

    Valid whenever Rt has nonpositive sectional curvature on the sampled
    planes (caller-asserted), e.g. in the f = exp regime.
    """
    cross = Rt(v, v.J(), w, w.J())
    return cross**2 <= Rt(v, v.J(), v, v.J()) * Rt(w, w.J(), w, w.J()) + 1e-10


# ---------------------------------------------------------------------------
# Koszul-formula oracle
# ---------------------------------------------------------------------------


def _koszul(c: np.ndarray, M: np.ndarray, Mp: np.ndarray) -> np.ndarray:
    """2 M_k Gamma_ij^k = 2 mu(nabla_{b_i} b_j, b_k) from the Koszul formula.

    The frame B has the diagonal metric M, with t-derivative Mp, and the
    brackets [b_i, b_j] = c_ij^k b_k; only b_0 = d/dt differentiates the
    metric.  The sum is linear in (M, Mp), so _koszul(c, Mp, Mpp) is its
    t-derivative.
    """
    idx = np.arange(M.size)
    K = c * M - np.swapaxes(c, 1, 2) * M[:, None] - np.transpose(c, (2, 0, 1)) * M[:, None, None]
    K[0, idx, idx] += Mp
    K[idx, 0, idx] += Mp
    K[idx, idx, 0] -= Mp
    return K


@lru_cache(maxsize=8)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(I, J) with the pairs i < j of range(m) in row-major order, and the
    gathers IJ = (I, J) and JI = (J, I), so that x[IJ] * y[JI] holds both
    products of every wedge.  Read-only, because every oracle shares them."""
    I, J = np.triu_indices(m, 1)
    arrays = (I, J, np.concatenate([I, J]), np.concatenate([J, I]))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _quadratic_form(p: np.ndarray, A: np.ndarray, q: np.ndarray):
    """p^T A q per row of the broadcast leading axes of p and q.

    The stacked product p[..., None, :] @ A is one BLAS matrix-vector
    product per row; a flat 2-D p @ A (one GEMM) or an optimized einsum
    would round a batch row differently from the same row alone.
    """
    return np.sum((p[..., None, :] @ A)[..., 0, :] * q, axis=-1)[()]


class CurvatureOracle:
    """Curvature operator of mu_{f,g} on 2-vectors, from the Koszul formula.

    Frame B = (d/dt, X_1, JX_1, ..., X_{n-1}, JX_{n-1}, Z), metric
    diag(1, f^2, ..., f^2, g^2), brackets [X_k, JX_k] = 2 Z and Z central.
    The Christoffel symbols G0[i, j, k] = Gamma_ij^k come from the Koszul
    sum, and their t-derivatives G1 from the same sum over the metric's
    first and second derivatives and the quotient rule, so the terms of

        R(B_i, B_j) B_k = nabla_[B_i,B_j] B_k - [nabla_i, nabla_j] B_k

    are exact up to rounding.  Each term is antisymmetric in (i, j) as
    built (the bracket c, the commutator of G0 and the G1 rows), so
    R_jikl = -R_ijkl holds exactly and only the p = m(m-1)/2 rows i < j are
    formed.  The oracle keeps the (p, p) operator on pairs,

        RL[ij, kl] = (R_ijkl - R_ijlk) / 2    for i < j and k < l,

    so that R(Y, Z, W, V) = (y ^ z)^T RL (w ^ v) with
    (y ^ z)_ij = y_i z_j - y_j z_i, and the Ricci matrix Ric.  Each
    evaluation runs one matrix-vector product per row, which keeps a batch
    row bitwise equal to the same row evaluated alone.
    """

    def __init__(self, mp: MetricPoint) -> None:
        _require_point(mp)
        self.mp = mp
        n = mp.n
        m = 2 * n
        self.m = m
        f, fp, fpp = mp.f, mp.fp, mp.fpp
        g, gp, gpp = mp.g, mp.gp, mp.gpp

        # 1, f^2 and g^2 with their first and second t-derivatives
        coef = [
            (1.0, 0.0, 0.0),
            (f * f, 2.0 * f * fp, 2.0 * fp * fp + 2.0 * f * fpp),
            (g * g, 2.0 * g * gp, 2.0 * gp * gp + 2.0 * g * gpp),
        ]
        M, Mp, Mpp = np.repeat(coef, [1, m - 2, 1], axis=0).T

        c = np.zeros((m, m, m))
        h = np.arange(1, m - 1, 2)
        c[h, h + 1, m - 1] = 2.0
        c[h + 1, h, m - 1] = -2.0

        G0 = _koszul(c, M, Mp) / (2.0 * M)
        G1 = (_koszul(c, Mp, Mpp) - 2.0 * Mp * G0) / (2.0 * M)

        # R_up[r, k, l] = R_ijk^l for the r-th pair i < j; only b_0 = d/dt
        # differentiates, so G1 enters the rows with i = 0.  The steps run
        # in place: at n = 16 each (p, m, m) temporary is 4 MiB.
        I, J, IJ, JI = _pairs(m)
        p = I.size
        A, B = G0[I], G0[J]
        R_up = A @ B
        R_up -= B @ A
        del A, B
        R_up += (c[I, J] @ G0.reshape(m, m * m)).reshape(p, m, m)
        R_up[: m - 1] -= G1[1:]  # the pairs (0, j) come first
        # Ric[i, k] = sum_j R_ijkj / |b_j|^2, where the row (j, i) is -(i, j)
        rows = np.arange(p)
        trace = np.zeros((m, m, m))
        trace[I, J] = R_up[rows, :, J]
        trace[J, I] = -R_up[rows, :, I]
        self.Ric = trace.sum(axis=1)
        R_up *= M
        # columns kl, then lk, of every row
        R = np.take(R_up.reshape(p, m * m), IJ * m + JI, axis=1)
        self.RL = 0.5 * (R[:, :p] - R[:, p:])

    def frame_coords(self, fv: FrameVector) -> np.ndarray:
        """Coordinates in the frame B, of shape (..., 2n) for a batch (...)."""
        m = self.m
        x = np.zeros(fv.u.shape[:-1] + (m,))
        x[..., 0] = fv.gamma * self.mp.g
        x[..., 1 : m - 1 : 2] = fv.u.real
        x[..., 2 : m - 1 : 2] = fv.u.imag
        x[..., m - 1] = fv.beta
        return x

    def evaluate(self, Y: FrameVector, Z: FrameVector, W: FrameVector, V: FrameVector):
        """R(Y, Z, W, V), broadcast over the leading axes of the frames."""
        y, z, w, v = (self.frame_coords(fv) for fv in (Y, Z, W, V))
        return _quadratic_form(self._wedge(y, z), self.RL, self._wedge(w, v))

    def _wedge(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(a ^ b)_ij = a_i b_j - a_j b_i over the pairs i < j, shape (..., p)."""
        _, _, IJ, JI = _pairs(self.m)
        ab = a[..., IJ] * b[..., JI]
        p = ab.shape[-1] // 2
        return ab[..., :p] - ab[..., p:]

    def __call__(self, Y, Z, W, V):
        return self.evaluate(Y, Z, W, V)

    def bisectional(self, Y: FrameVector, Xi: FrameVector):
        return self.evaluate(Y, Y.J(), Xi, Xi.J())

    def sectional(self, X: FrameVector, Y: FrameVector):
        """R(X, Y, X, Y) / |X ^ Y|^2."""
        mp = self.mp
        xy = X.inner(Y, mp)
        area_sq = X.norm_sq(mp) * Y.norm_sq(mp) - xy * xy
        if np.any(area_sq <= 0.0):
            raise ValueError("degenerate plane")
        return self.evaluate(X, Y, X, Y) / area_sq

    def holomorphic_sectional(self, X: FrameVector):
        """R(X, JX, X, JX) / |X|^4 (X and JX are orthogonal)."""
        nsq = X.norm_sq(self.mp)
        if np.any(nsq <= 0.0):
            raise ValueError("zero vector")
        return self.evaluate(X, X.J(), X, X.J()) / (nsq * nsq)

    def ricci(self, Xi: FrameVector):
        """Sum of R(Xi, b, Xi, b) over the 2n orthonormal frame directions."""
        x = self.frame_coords(Xi)
        return _quadratic_form(x, self.Ric, x)


def _require_point(mp: MetricPoint) -> None:
    shape = np.broadcast(mp.f, mp.fp, mp.fpp, mp.fppp).shape
    if shape:
        raise ValueError(f"the oracle takes one metric point, got jets of shape {shape + (4,)}")


# callers reuse only the oracle of the point they just asked for, and at
# n = 16 each oracle holds a 2 MiB operator
@lru_cache(maxsize=1)
def oracle_for(mp: MetricPoint) -> CurvatureOracle:
    return CurvatureOracle(mp)


# ---------------------------------------------------------------------------
# Nonpositivity certificate
# ---------------------------------------------------------------------------


@dataclass
class CertificateReport:
    passed: bool
    samples: int
    max_value: float
    min_value: float
    worst_interior_ratio: float
    min_cs_slack: float
    failures: list

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"hbc certificate: {status} on {self.samples} samples, "
            f"max R = {self.max_value:.3e}, "
            f"worst interior ratio = {self.worst_interior_ratio:.3e}, "
            f"min CS slack = {self.min_cs_slack:.3e}"
        )


STRICT_RATIO = 1e-10


def hbc_certificate(
    p: CutoffProfile, samples: int, n: int = 3, seed: int = 0
) -> CertificateReport:
    """Sample (t, Y, Xi) triples with t in [0.05, A] and certify
    nonpositivity of the bisectional curvature, strict negativity relative
    to |Y|^2 |Xi|^2 (a ratio below -STRICT_RATIO) for unit vectors at
    interior t, and the Cauchy-Schwarz step used to absorb the mixed terms.
    """
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.05, p.A, samples)
    F = random_frame_vector(rng, n, (samples, 2))
    Y, Xi = F[:, 0], F[:, 1]
    # degenerate corners: pure central and pure horizontal vectors
    Y.u[::97], Y.beta[::97], Y.gamma[::97] = 0.0, 1.0, 0.0
    mp = MetricPoint.from_jet(ts, p.jet_at(ts), n)

    val = bisectional(Y, Xi, mp)
    denom = Y.norm_sq(mp) * Xi.norm_sq(mp)
    interior = denom > 0.0
    ratio = np.where(interior, val / np.where(interior, denom, 1.0), -math.inf)
    slack = cauchy_schwarz_defect(Y, Xi)
    kinds = ("nonpositivity", "strict negativity", "cauchy-schwarz")
    values = np.stack([val, ratio, slack], axis=-1)
    failed = np.stack(
        [val > 1e-12, interior & (ratio >= -STRICT_RATIO), slack < -1e-12], axis=-1
    )
    rows, cols = np.nonzero(failed)
    failures = [
        (kinds[j], float(ts[k]), float(values[k, j])) for k, j in zip(rows[:10], cols[:10])
    ]
    return CertificateReport(
        passed=not rows.size,
        samples=samples,
        max_value=float(val.max(initial=-math.inf)),
        min_value=float(val.min(initial=math.inf)),
        worst_interior_ratio=float(ratio.max(initial=-math.inf)),
        min_cs_slack=float(slack.min(initial=math.inf)),
        failures=failures,
    )
