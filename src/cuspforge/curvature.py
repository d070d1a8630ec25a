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
  [X, JX] = 2 Z, carrying f and g as exact second-order jets in t so that
  the frame derivatives entering the curvature are differentiated
  symbolically, not by finite differences.

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
    "ricci_trace",
    "rz_plane_curvature",
    "bianchi_check",
    "poly_P",
    "discriminant_inequality",
    "CurvatureOracle",
    "oracle_for",
    "oracle_curvature",
    "hbc_certificate",
    "random_frame_vector",
]


# ---------------------------------------------------------------------------
# Metric data and frame vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricPoint:
    """Profile jet at a single t together with the dimension n.

    g and gp are redundant (g = f f') but stored so that a metric point is
    self-contained; construction validates the Kahler relation.
    """

    t: float
    f: float
    fp: float
    fpp: float
    fppp: float
    g: float
    gp: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("dimension n must be at least 2")
        if min(self.f, self.fp, self.fpp, self.fppp) <= 0.0:
            raise ValueError("metric point requires f, f', f'', f''' > 0")
        if abs(self.g - self.f * self.fp) > 1e-9 * max(1.0, abs(self.g)):
            raise ValueError("Kahler relation g = f f' violated")

    @property
    def gpp(self) -> float:
        return 3.0 * self.fp * self.fpp + self.f * self.fppp

    @classmethod
    def from_jet(cls, t: float, jet: np.ndarray, n: int) -> "MetricPoint":
        """Metric point from the profile jet (f, f', f'', f''') at t."""
        f0, f1, f2, f3 = (float(x) for x in jet)
        return cls(
            t=float(t), f=f0, fp=f1, fpp=f2, fppp=f3,
            g=f0 * f1, gp=f1 * f1 + f0 * f2, n=n,
        )

    @classmethod
    def from_profile(cls, p: CutoffProfile, t: float, n: int) -> "MetricPoint":
        return cls.from_jet(t, p.jet_at(float(t)), n)

    @classmethod
    def exp_model(cls, t: float, n: int) -> "MetricPoint":
        """Constant-curvature model f = e^t, g = e^(2t)."""
        e = math.exp(t)
        return cls(t=t, f=e, fp=e, fpp=e, fppp=e, g=e * e, gp=2.0 * e * e, n=n)

    @classmethod
    def cosh_model(cls, t: float, n: int) -> "MetricPoint":
        """Near-boundary model f = cosh t (t > 0 so that f', f''' > 0)."""
        if t <= 0.0:
            raise ValueError("cosh model needs t > 0")
        ch, sh = math.cosh(t), math.sinh(t)
        return cls(
            t=t, f=ch, fp=sh, fpp=ch, fppp=sh,
            g=ch * sh, gp=sh * sh + ch * ch, n=n,
        )


@dataclass(frozen=True, eq=False)
class FrameVector:
    """Tangent vector u + beta Z + gamma JZ in the invariant frame.

    u is the horizontal complex (n-1)-vector; J acts as
    (u, beta, gamma) -> (i u, -gamma, beta).
    """

    u: np.ndarray
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", np.asarray(self.u, dtype=complex).reshape(-1))

    def J(self) -> "FrameVector":
        return FrameVector(1j * self.u, -self.gamma, self.beta)

    def __add__(self, other: "FrameVector") -> "FrameVector":
        return FrameVector(self.u + other.u, self.beta + other.beta, self.gamma + other.gamma)

    def __sub__(self, other: "FrameVector") -> "FrameVector":
        return FrameVector(self.u - other.u, self.beta - other.beta, self.gamma - other.gamma)

    def __rmul__(self, c: float) -> "FrameVector":
        return FrameVector(c * self.u, c * self.beta, c * self.gamma)

    def norm_sq(self, mp: MetricPoint) -> float:
        uu = float(np.vdot(self.u, self.u).real)
        return mp.f**2 * uu + mp.g**2 * (self.beta**2 + self.gamma**2)

    def inner(self, other: "FrameVector", mp: MetricPoint) -> float:
        uu = float(np.vdot(other.u, self.u).real)
        return mp.f**2 * uu + mp.g**2 * (
            self.beta * other.beta + self.gamma * other.gamma
        )

    def is_zero(self) -> bool:
        return self.beta == 0.0 and self.gamma == 0.0 and not np.any(self.u)


def random_frame_vector(rng: np.random.Generator, n: int, scale: float = 1.0) -> FrameVector:
    u = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    beta, gamma = rng.standard_normal(2)
    return FrameVector(scale * u, scale * float(beta), scale * float(gamma))


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


def hs_blocks(mp: MetricPoint) -> CurvatureBlocks:
    """Blocks of the curvature operator in the normalized wedge basis.

    G = [[-4 (f'/f)^2, -2 f''/f], [-2 f''/f, -3 f''/f - f'''/f']] and F has
    all four entries equal to -f''/f.  With f = exp both collapse to the
    constant-curvature values G = [[-4, -2], [-2, -4]], F = -ones.
    """
    k = mp.fpp / mp.f
    h1sq = 4.0 * (mp.fp / mp.f) ** 2
    h2sq = 3.0 * k + mp.fppp / mp.fp
    G = np.array([[-h1sq, -2.0 * k], [-2.0 * k, -h2sq]])
    F = np.full((2, 2), -k)
    return CurvatureBlocks(G=G, F=F)


def _unit_split(Y: FrameVector, Xi: FrameVector):
    """Norms and horizontal correlation data for the bisectional formula."""
    a = float(np.linalg.norm(Y.u))
    alpha = float(np.linalg.norm(Xi.u))
    if a > 0.0 and alpha > 0.0:
        z = complex(np.vdot(Xi.u, Y.u)) / (a * alpha)  # <u_Y, u_Xi> normalized
        x = z.real          # mu(X, Xtilde)
        y = z.imag          # mu(X, J Xtilde); sign pinned against the oracle
        dde = abs(z) ** 2   # d^2 + e^2
    else:
        x = y = dde = 0.0
    return a, alpha, x, y, dde


def bisectional(Y: FrameVector, Xi: FrameVector, mp: MetricPoint) -> float:
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
    f, g = mp.f, mp.g
    h1sq = 4.0 * (mp.fp / mp.f) ** 2
    h2sq = 3.0 * mp.fpp / mp.f + mp.fppp / mp.fp
    h3sq = mp.fpp / mp.f
    a, alpha, x, y, dde = _unit_split(Y, Xi)
    b, c = Y.beta, Y.gamma
    beta, gamma = Xi.beta, Xi.gamma
    w_sq = max(0.0, 1.0 - dde)
    horiz = a**2 * alpha**2 * (dde * f**4 * h1sq + 2.0 * g**2 * w_sq)
    central = h2sq * g**4 * (b**2 + c**2) * (beta**2 + gamma**2)
    mixed = 2.0 * f**2 * g**2 * h3sq * (
        a**2 * (beta**2 + gamma**2)
        + alpha**2 * (b**2 + c**2)
        + 2.0 * a * alpha * (b * beta + c * gamma) * x
        + 2.0 * a * alpha * (c * beta - b * gamma) * y
    )
    return -(horiz + central + mixed)


def cauchy_schwarz_defect(Y: FrameVector, Xi: FrameVector) -> float:
    """Slack of |2 a alpha ((b beta + c gamma) x + (c beta - b gamma) y)|
    <= a^2 (beta^2 + gamma^2) + alpha^2 (b^2 + c^2); nonnegative slack
    means the inequality holds for this pair."""
    a, alpha, x, y, _ = _unit_split(Y, Xi)
    b, c = Y.beta, Y.gamma
    beta, gamma = Xi.beta, Xi.gamma
    lhs = abs(2.0 * a * alpha * ((b * beta + c * gamma) * x + (c * beta - b * gamma) * y))
    rhs = a**2 * (beta**2 + gamma**2) + alpha**2 * (b**2 + c**2)
    return rhs - lhs


def ricci(Xi: FrameVector, mp: MetricPoint) -> float:
    """Ricci quadratic form of mu_{f,g}.

    Ricci(Xi, Xi) = -(2 f f'' + 4 f'^2 + 2 (n-2) f'^2) alpha^2
                    - ((2n+1) f f'^2 f'' + f^2 f' f''') (beta^2 + gamma^2)
    with alpha^2 the squared Euclidean norm of the horizontal part.  With
    f = exp this is the Einstein identity Ricci = -(2n+2) |Xi|^2.
    """
    alpha_sq = float(np.vdot(Xi.u, Xi.u).real)
    coef_h, coef_z = ricci_coefficients(mp)
    return -coef_h * alpha_sq - coef_z * (Xi.beta**2 + Xi.gamma**2)


def ricci_coefficients(mp: MetricPoint) -> tuple[float, float]:
    """(coef_h, coef_z) with Ricci = -coef_h alpha^2 - coef_z (beta^2 + gamma^2).

    Horizontal and central vectors are Ricci eigenvectors with eigenvalues
    -coef_h / f^2 and -coef_z / g^2 per unit metric norm.
    """
    n = mp.n
    coef_h = 2.0 * mp.f * mp.fpp + 4.0 * mp.fp**2 + 2.0 * (n - 2) * mp.fp**2
    coef_z = (2 * n + 1) * mp.f * mp.fp**2 * mp.fpp + mp.f**2 * mp.fp * mp.fppp
    return coef_h, coef_z


def rz_plane_curvature(U: np.ndarray, Ut: np.ndarray, mp: MetricPoint) -> float:
    """R(U ^ Z, Ut ^ Z) = -f^2 g^2 (f''/f) mu(U, Ut) for horizontal U, Ut."""
    U = np.asarray(U, dtype=complex).reshape(-1)
    Ut = np.asarray(Ut, dtype=complex).reshape(-1)
    mu = float(np.vdot(Ut, U).real)
    return -mp.f * mp.g**2 * mp.fpp * mu


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


def discriminant_inequality(v: FrameVector, w: FrameVector, Rt, tol: float = 1e-10) -> bool:
    """R(v,Jv,w,Jw)^2 <= R(v,Jv,v,Jv) R(w,Jw,w,Jw), up to tol.

    Valid whenever Rt has nonpositive sectional curvature on the sampled
    planes (caller-asserted), e.g. in the f = exp regime.
    """
    cross = Rt(v, v.J(), w, w.J())
    return cross**2 <= Rt(v, v.J(), v, v.J()) * Rt(w, w.J(), w, w.J()) + tol


# ---------------------------------------------------------------------------
# Koszul-formula oracle on second-order jets
# ---------------------------------------------------------------------------


def _jet_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    a0, a1, a2 = A[..., 0], A[..., 1], A[..., 2]
    b0, b1, b2 = B[..., 0], B[..., 1], B[..., 2]
    return np.stack(
        [a0 * b0, a1 * b0 + a0 * b1, a2 * b0 + 2.0 * a1 * b1 + a0 * b2], axis=-1
    )


def _jet_inv(A: np.ndarray) -> np.ndarray:
    a0, a1, a2 = A[..., 0], A[..., 1], A[..., 2]
    v = 1.0 / a0
    return np.stack([v, -a1 * v**2, (2.0 * a1**2 - a0 * a2) * v**3], axis=-1)


class CurvatureOracle:
    """Full curvature tensor of mu_{f,g} from the Koszul formula.

    Frame B = (d/dt, X_1, JX_1, ..., X_{n-1}, JX_{n-1}, Z), metric
    diag(1, f^2, ..., f^2, g^2), brackets [X_k, JX_k] = 2 Z and Z central.
    The metric coefficients are carried as jets (value, d/dt, d2/dt2), so
    the connection coefficients and their t-derivatives entering

        R(B_i, B_j) B_k = nabla_[B_i,B_j] B_k - [nabla_i, nabla_j] B_k

    are exact up to rounding.  The tensor R_{ijkl} is assembled once per
    metric point; evaluations are contractions.
    """

    def __init__(self, mp: MetricPoint) -> None:
        self.mp = mp
        n = mp.n
        m = 2 * n
        self.m = m
        f, fp, fpp = mp.f, mp.fp, mp.fpp
        g, gp, gpp = mp.g, mp.gp, mp.gpp

        M = np.zeros((m, 3))
        M[0] = (1.0, 0.0, 0.0)
        M[1 : m - 1] = (f * f, 2.0 * f * fp, 2.0 * fp * fp + 2.0 * f * fpp)
        M[m - 1] = (g * g, 2.0 * g * gp, 2.0 * gp * gp + 2.0 * g * gpp)
        Mp = np.stack([M[:, 1], M[:, 2], np.zeros(m)], axis=-1)

        c = np.zeros((m, m, m))
        for k in range(n - 1):
            i, j = 1 + 2 * k, 2 + 2 * k
            c[i, j, m - 1] = 2.0
            c[j, i, m - 1] = -2.0

        idx = np.arange(m)
        K = np.zeros((m, m, m, 3))
        K[0, idx, idx] += Mp
        K[idx, 0, idx] += Mp
        K[idx, idx, 0] -= Mp
        K += np.einsum("ijk,kx->ijkx", c, M)
        K -= np.einsum("ikj,jx->ijkx", c, M)
        K -= np.einsum("jki,ix->ijkx", c, M)

        gamma = _jet_mul(K, _jet_inv(2.0 * M)[None, None, :, :])
        G0, G1 = gamma[..., 0], gamma[..., 1]

        e0 = np.zeros(m)
        e0[0] = 1.0
        t_deriv = np.einsum("i,jkl->ijkl", e0, G1)
        R_up = (
            np.einsum("ijm,mkl->ijkl", c, G0)
            - t_deriv
            + np.transpose(t_deriv, (1, 0, 2, 3))
            - np.einsum("jkm,iml->ijkl", G0, G0)
            + np.einsum("ikm,jml->ijkl", G0, G0)
        )
        self.R = R_up * M[:, 0][None, None, None, :]
        self.M0 = M[:, 0]
        self.christoffel = gamma
        self.c = c

    def frame_coords(self, fv: FrameVector) -> np.ndarray:
        m = self.m
        x = np.zeros(m)
        x[0] = fv.gamma * self.mp.g
        x[1 : m - 1 : 2] = fv.u.real
        x[2 : m - 1 : 2] = fv.u.imag
        x[m - 1] = fv.beta
        return x

    def evaluate(self, Y: FrameVector, Z: FrameVector, W: FrameVector, V: FrameVector) -> float:
        return float(
            np.einsum(
                "ijkl,i,j,k,l->",
                self.R,
                self.frame_coords(Y),
                self.frame_coords(Z),
                self.frame_coords(W),
                self.frame_coords(V),
            )
        )

    def __call__(self, Y, Z, W, V) -> float:
        return self.evaluate(Y, Z, W, V)

    def bisectional(self, Y: FrameVector, Xi: FrameVector) -> float:
        return self.evaluate(Y, Y.J(), Xi, Xi.J())

    def sectional(self, X: FrameVector, Y: FrameVector) -> float:
        """R(X, Y, X, Y) / |X ^ Y|^2."""
        mp = self.mp
        area_sq = X.norm_sq(mp) * Y.norm_sq(mp) - X.inner(Y, mp) ** 2
        if area_sq <= 0.0:
            raise ValueError("degenerate plane")
        return self.evaluate(X, Y, X, Y) / area_sq

    def holomorphic_sectional(self, X: FrameVector) -> float:
        """R(X, JX, X, JX) / |X|^4 (X and JX are orthogonal)."""
        nsq = X.norm_sq(self.mp)
        if nsq <= 0.0:
            raise ValueError("zero vector")
        return self.evaluate(X, X.J(), X, X.J()) / nsq**2

    def ricci(self, Xi: FrameVector) -> float:
        """Sum of R(Xi, b, Xi, b) over the 2n orthonormal frame directions."""
        x = self.frame_coords(Xi)
        scaled = self.M0  # frame direction b_i has norm^2 M0[i]
        vals = np.einsum("ijkj,i,k->j", self.R, x, x) / scaled
        return float(vals.sum())


@lru_cache(maxsize=256)
def oracle_for(mp: MetricPoint) -> CurvatureOracle:
    return CurvatureOracle(mp)


def oracle_curvature(
    Y: FrameVector, Z: FrameVector, W: FrameVector, V: FrameVector, mp: MetricPoint
) -> float:
    """R(Y, Z, W, V) computed independently of the closed forms."""
    return oracle_for(mp).evaluate(Y, Z, W, V)


def ricci_trace(Xi: FrameVector, mp: MetricPoint) -> float:
    """Oracle Ricci, for cross-checking the closed-form ricci."""
    return oracle_for(mp).ricci(Xi)


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


def hbc_certificate(
    p: CutoffProfile,
    samples: int,
    n: int = 3,
    seed: int = 0,
    t_lo: float = 0.05,
    strict_ratio: float = 1e-10,
) -> CertificateReport:
    """Sample (t, Y, Xi) triples and certify nonpositivity of the
    bisectional curvature, strict negativity relative to |Y|^2 |Xi|^2 for
    unit vectors at interior t, and the Cauchy-Schwarz step used to absorb
    the mixed terms.
    """
    rng = np.random.default_rng(seed)
    # draws in the per-sample order (t, Y, Xi), so the seed fixes the stream
    ts = np.empty(samples)
    u = np.empty((samples, 2, n - 1), dtype=complex)
    beta = np.empty((samples, 2))
    gamma = np.empty((samples, 2))
    for k in range(samples):
        ts[k] = rng.uniform(t_lo, p.A)
        for j in range(2):
            v = random_frame_vector(rng, n)
            u[k, j], beta[k, j], gamma[k, j] = v.u, v.beta, v.gamma
    # degenerate corners: pure central and pure horizontal vectors
    u[::97, 0], beta[::97, 0], gamma[::97, 0] = 0.0, 1.0, 0.0
    jets = p.jet_at(ts)

    failures: list = []
    max_val = -math.inf
    min_val = math.inf
    worst_ratio = -math.inf
    min_slack = math.inf
    for k in range(samples):
        t = float(ts[k])
        mp = MetricPoint.from_jet(t, jets[k], n)
        Y = FrameVector(u[k, 0], float(beta[k, 0]), float(gamma[k, 0]))
        Xi = FrameVector(u[k, 1], float(beta[k, 1]), float(gamma[k, 1]))
        val = bisectional(Y, Xi, mp)
        max_val = max(max_val, val)
        min_val = min(min_val, val)
        if val > 1e-12:
            failures.append(("nonpositivity", t, val))
        denom = Y.norm_sq(mp) * Xi.norm_sq(mp)
        if denom > 0.0:
            ratio = val / denom
            worst_ratio = max(worst_ratio, ratio)
            if ratio >= -strict_ratio:
                failures.append(("strict negativity", t, ratio))
        slack = cauchy_schwarz_defect(Y, Xi)
        min_slack = min(min_slack, slack)
        if slack < -1e-12:
            failures.append(("cauchy-schwarz", t, slack))
    return CertificateReport(
        passed=not failures,
        samples=samples,
        max_value=max_val,
        min_value=min_val,
        worst_interior_ratio=worst_ratio,
        min_cs_slack=min_slack,
        failures=failures[:10],
    )
