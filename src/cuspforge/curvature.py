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
  bisectional curvature R(Y ^ JY, Xi ^ JXi) and its trace, the Ricci form,
  all in the coefficients h = 2 (f'/f)^2, m = f''/f, z = 3 f''/f + f'''/f'.

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
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import profile
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
    "bianchi_check",
    "poly_P",
    "discriminant_inequality",
    "CurvatureOracle",
    "oracle_for",
    "hbc_certificate",
    "random_frame_vector",
    "sweep_summary",
]


# ---------------------------------------------------------------------------
# Metric data and frame vectors
# ---------------------------------------------------------------------------


# g^4 = (f f')^4, the scale of the curvature terms, overflows past this log g:
# t of about 88.7 where f = exp
_LOG_G_MAX = np.log(np.finfo(float).max) / 4.0


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
        log_g = np.log(self.f) + np.log(self.fp)  # log g overflows nothing
        over = log_g >= _LOG_G_MAX
        if np.any(over):
            t = float(np.min(np.where(over, self.t, math.inf)))
            raise OverflowError(
                f"curvature at t = {t:.6g}: g^4 = (f f')^4 overflows; keep A below about 88.7"
            )
        # below the least normal float g^2 loses its digits, and the
        # curvature terms read NaN: t below about 1.5e-154 where f = cosh
        under = 2.0 * log_g < np.log(np.finfo(float).tiny)
        if np.any(under):
            t = float(np.min(np.where(under, self.t, math.inf)))
            raise ValueError(
                f"curvature at t = {t:.6g}: g^2 = (f f')^2 underflows; keep t above about 1.5e-154"
            )

    def __getitem__(self, k) -> "MetricPoint":
        """The sub-batch at index k of the leading axes; mp[None] makes a
        point a batch of one."""
        fields = (self.t, self.f, self.fp, self.fpp, self.fppp)
        return MetricPoint(*(np.asarray(v)[k] for v in fields), n=self.n)

    def __hash__(self) -> int:
        # only a point is hashable, and oracle_for caches by point: a batch
        # raises this ValueError instead of numpy's TypeError for an array
        shape = np.broadcast(self.f, self.fp, self.fpp, self.fppp).shape
        if shape:
            raise ValueError(
                f"oracle_for caches one metric point, got jets of shape {shape + (4,)}"
            )
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
    def from_profile(cls, p: CutoffProfile, t, n: int) -> "MetricPoint":
        """Metric point of p at a float t, or at an array of times."""
        return cls.from_jet(t, p.jet_at(t), n)

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
        uu = _hdot(self.u, other.u)
        return mp.f * mp.f * uu + mp.g * mp.g * (
            self.beta * other.beta + self.gamma * other.gamma
        )


def _hdot(v: np.ndarray, w: np.ndarray):
    """Real part of sum(conj(w) v) over the last axis, in real products
    added column by column, in index order from 0.0, so that a batch row
    rounds exactly like a single vector.

    Below 8 terms that is np.sum's order, so its bits; from 8 terms np.sum
    adds in eight interleaved partial sums instead.  A row holds the n - 1
    horizontal terms, and on rows that short numpy's cost per row, in a
    sum or a product over them, outweighs the arithmetic: a column is a
    whole batch."""
    total = 0.0
    for k in range(v.shape[-1]):
        vk, wk = v[..., k], w[..., k]
        total = total + (wk.real * vk.real + wk.imag * vk.imag)
    return total


def random_frame_vector(rng: np.random.Generator, n: int, shape: tuple = ()) -> FrameVector:
    """Standard normal frame vectors of batch shape `shape`, () for one.

    One rng.standard_normal(shape + (2n,)) block: in each row the first
    n-1 entries are Re u, the next n-1 are Im u, and the last two are beta
    and gamma.  The generator fills the block row by row, so a batch draws
    the same stream as the same vectors drawn one at a time.
    """
    z = rng.standard_normal(tuple(shape) + (2 * n,))
    u = np.empty(z.shape[:-1] + (n - 1,), dtype=complex)
    u.real, u.imag = z[..., : n - 1], z[..., n - 1 : 2 * n - 2]
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


def _curvature_coefficients(mp: MetricPoint):
    """(h, m, z) = (2 (f'/f)^2, f''/f, 3 f''/f + f'''/f'): every closed
    form below is built from these three.  With f = exp they are (2, 1, 4)."""
    r = mp.fp / mp.f
    m = mp.fpp / mp.f
    return 2.0 * (r * r), m, 3.0 * m + mp.fppp / mp.fp


def hs_blocks(mp: MetricPoint) -> CurvatureBlocks:
    """Blocks of the curvature operator in the normalized wedge basis.

    G = [[-2h, -2m], [-2m, -z]] and F = -m ones, in the coefficients
    h = 2 (f'/f)^2, m = f''/f, z = 3 f''/f + f'''/f'.  With f = exp they
    are the constant-curvature values G = [[-4, -2], [-2, -4]], F = -ones.
    For a batch mp the two block axes come first.
    """
    h, m, z = _curvature_coefficients(mp)
    G = np.array([[-2.0 * h, -2.0 * m], [-2.0 * m, -z]])
    F = np.array([[-m, -m], [-m, -m]])
    return CurvatureBlocks(G=G, F=F)


def _pair_data(Y: FrameVector, Xi: FrameVector):
    """a^2, alpha^2, b^2 + c^2, beta^2 + gamma^2, the mixed term
    2 a alpha ((b beta + c gamma) x + (c beta - b gamma) y) and
    a^2 alpha^2 (d^2 + e^2) of the bisectional formula.  With
    <u_Y, u_Xi> = a alpha (x + i y) none of them needs the unit vectors X
    and Xtilde, so all of them vanish with the horizontal parts."""
    b, c, beta, gamma = Y.beta, Y.gamma, Xi.beta, Xi.gamma
    v, w = Y.u, Xi.u
    re, im = _hdot(v, w), 0.0
    for k in range(v.shape[-1]):  # by column, as in _hdot
        vk, wk = v[..., k], w[..., k]
        im = im + (wk.real * vk.imag - wk.imag * vk.real)
    cross = 2.0 * ((b * beta + c * gamma) * re + (c * beta - b * gamma) * im)
    a_sq, alpha_sq = _hdot(v, v), _hdot(w, w)
    return a_sq, alpha_sq, b * b + c * c, beta * beta + gamma * gamma, cross, re * re + im * im


def _norm_product(pair_data: tuple, mp: MetricPoint):
    """|Y|^2 |Xi|^2 from the _pair_data of (Y, Xi): the expression of
    Y.norm_sq(mp) * Xi.norm_sq(mp) in the same order, so the same bits."""
    f2, g2 = mp.f * mp.f, mp.g * mp.g
    a_sq, alpha_sq, bc_sq, bg_sq, _, _ = pair_data
    return (f2 * a_sq + g2 * bc_sq) * (f2 * alpha_sq + g2 * bg_sq)


def bisectional(Y: FrameVector, Xi: FrameVector, mp: MetricPoint):
    """Holomorphic bisectional curvature R(Y ^ JY, Xi ^ JXi).

    Writing Y = a X + b Z + c JZ and Xi = alpha Xtilde + beta Z + gamma JZ
    with X, Xtilde horizontal unit vectors, and d + i e = mu(X, Xtilde),

      -R = h f^4 a^2 alpha^2 (1 + d^2 + e^2)
           + z g^4 (b^2 + c^2)(beta^2 + gamma^2)
           + 2 m f^2 g^2 (a^2 (beta^2 + gamma^2) + alpha^2 (b^2 + c^2)
              + 2 a alpha (b beta + c gamma) d + 2 a alpha (c beta - b gamma) e)

    in the coefficients (h, m, z) of hs_blocks, with a^2 alpha^2 (d^2 + e^2)
    = |<u_Y, u_Xi>|^2 in mu.  For m, z >= 0 each term is nonnegative, the
    last by Cauchy-Schwarz, so R <= 0, and R = 0 only for Y = 0 or Xi = 0.
    The Koszul oracle pins every sign.
    """
    return _bisectional(_pair_data(Y, Xi), mp)


def _bisectional(pair_data: tuple, mp: MetricPoint):
    """bisectional from the _pair_data of (Y, Xi)."""
    f2, g2 = mp.f * mp.f, mp.g * mp.g
    h, m, z = _curvature_coefficients(mp)
    a_sq, alpha_sq, bc_sq, bg_sq, cross, dde = pair_data
    horiz = h * (f2 * f2) * (a_sq * alpha_sq + dde)
    central = z * (g2 * g2) * bc_sq * bg_sq
    mixed = 2.0 * f2 * g2 * m * (a_sq * bg_sq + alpha_sq * bc_sq + cross)
    return -(horiz + central + mixed)


def _bisectional_ratio(pair_data: tuple, mp: MetricPoint):
    """R = R(Y ^ JY, Xi ^ JXi) and R / (|Y|^2 |Xi|^2) from the _pair_data of
    (Y, Xi), the ratio -inf where |Y|^2 |Xi|^2 is 0.  The norms come from
    the pair data, not from a second pass over the frames."""
    val = _bisectional(pair_data, mp)
    denom = _norm_product(pair_data, mp)
    interior = denom > 0.0
    return val, np.where(interior, val / np.where(interior, denom, 1.0), -math.inf)


def _cauchy_schwarz_defect(pair_data: tuple):
    """Slack of |2 a alpha ((b beta + c gamma) x + (c beta - b gamma) y)|
    <= a^2 (beta^2 + gamma^2) + alpha^2 (b^2 + c^2), from the _pair_data
    of (Y, Xi); nonnegative slack means the inequality holds for the pair."""
    a_sq, alpha_sq, bc_sq, bg_sq, cross, _ = pair_data
    return a_sq * bg_sq + alpha_sq * bc_sq - np.abs(cross)


def ricci(Xi: FrameVector, mp: MetricPoint):
    """Ricci quadratic form of mu_{f,g}.

    Ricci(Xi, Xi) = -f^2 (n h + 2 m) alpha^2 - g^2 (z + 2 (n-1) m) (beta^2 + gamma^2)
    with alpha^2 the squared Euclidean norm of the horizontal part, (h, m, z)
    those of hs_blocks: the trace sum_i R(Xi ^ JXi, e_i ^ J e_i) over a
    unitary frame.  With f = exp it is Einstein, Ricci = -(2n+2) |Xi|^2.
    """
    alpha_sq = _hdot(Xi.u, Xi.u)
    coef_h, coef_z = ricci_coefficients(mp)
    return -coef_h * alpha_sq - coef_z * (Xi.beta * Xi.beta + Xi.gamma * Xi.gamma)


def ricci_coefficients(mp: MetricPoint):
    """(coef_h, coef_z) = (f^2 (n h + 2 m), g^2 (z + 2 (n-1) m)), so that
    Ricci = -coef_h alpha^2 - coef_z (beta^2 + gamma^2).

    The trace of bisectional over the unitary frame e_j / f (j < n), Z / g:
    horizontal and central vectors are Ricci eigenvectors with eigenvalues
    -coef_h / f^2 and -coef_z / g^2 per unit metric norm.
    """
    h, m, z = _curvature_coefficients(mp)
    n = mp.n
    return mp.f * mp.f * (n * h + 2.0 * m), mp.g * mp.g * (z + 2.0 * (n - 1) * m)


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


class _Pattern(NamedTuple):
    """The oracle's structural nonzeros for one frame size m; see _pattern."""

    koszul: tuple  # jets slots of 2 M_k Gamma_ij^k, then of its t-derivative; coefficients
    upper: np.ndarray  # jets index of M_k, then of M'_k, per Gamma entry
    ab: tuple  # G slots of the two factors of G0[I] @ G0[J], per R_up entry
    ba: tuple  # the same for G0[J] @ G0[I]
    bracket: tuple  # G slots and coefficients of c[I, J] @ G0
    dt: np.ndarray  # G slot of G1
    scale: np.ndarray  # jets index of M_l
    ric: tuple  # RL slots of R_ijij and jets index of M_j, per diagonal entry Ric[i, i]
    kl: np.ndarray  # R slot of R_ijkl, per RL entry
    lk: np.ndarray  # R slot of R_ijlk
    rows: np.ndarray  # pair index ij
    cols: np.ndarray  # pair index kl
    dt_pairs: np.ndarray  # how many of (ij, kl) are pairs (0, j): the power of g in RLg


def _unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct keys.  np.unique would import numpy.ma on first
    use, about 15 ms and 1 MiB in a process that needs nothing else of it."""
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


def _slots(entries: np.ndarray, keys: np.ndarray, fields: tuple, fill: tuple) -> list[np.ndarray]:
    """Scatter the terms, one per key, over the slots of the sorted keys
    `entries`: one array per field, where an entry with no term holds
    `fill`, one value per field.  Raises if a key repeats, since the build
    gathers one term per entry and does not sum (no key repeats at
    n = 2 to 32)."""
    slot = np.searchsorted(entries, keys)
    if np.bincount(slot, minlength=entries.size).max(initial=0) > 1:
        raise ValueError("a structural entry has more than one term")
    out = []
    for field, empty in zip(fields, fill):
        a = np.full(entries.size, empty, dtype=field.dtype)
        a[slot] = field
        out.append(a)
    return out


@lru_cache(maxsize=8)
def _pattern(m: int) -> _Pattern:
    """The oracle's structural nonzeros on the frame of size m, in
    coordinate form, from the bracket table and the diagonal metric alone.

    A term is kept unless one of its factors is structurally zero; no value
    is ever compared with 0.  Each sum of the build (the Koszul sum, the
    products of Christoffel symbols, the bracket term) has at most one term
    per nonzero (checked at n = 2 to 32), so it is a one-term gather, one
    slot per nonzero; _slots raises if a second term ever appears.  A
    one-term sum is its term, so RL equals a dense build's bit for bit:
    only a Christoffel symbol of -0.0 keeps the sign that numpy's sum from
    +0.0 would drop, and R_up, accumulated from +0.0, cannot see it.  The
    Ricci trace adds its m - 1 entries of RL's diagonal in the order of the
    summed index, the order in which a dense contraction adds them.  Slots
    point into the value vectors of CurvatureOracle.__init__: jets[3 d + q]
    is the d-th t-derivative of the metric coefficient q (1, f^2 or g^2),
    G holds G0, then G1, then one 0, R the entries of R_up, then one 0,
    and RL the operator.  Read-only, because every oracle of this m shares
    them.
    """
    I, J, _, _ = _pairs(m)
    p = I.size
    pair = np.zeros((m, m), dtype=np.intp)
    pair[I, J] = np.arange(p)
    # brackets c_ab^d: [X_k, JX_k] = 2 Z = -[JX_k, X_k], in row-major order
    h = np.arange(1, m - 1, 2)
    ca, cb = np.stack([h, h + 1], axis=1).ravel(), np.stack([h + 1, h], axis=1).ravel()
    cd, cv = np.full(ca.size, m - 1), np.tile([2.0, -2.0], h.size)
    # metric coefficient of each frame vector; only d/dt's 1 is constant
    kind = np.repeat([0, 1, 2], [1, m - 2, 1])
    var = np.arange(1, m)
    zero, one = np.zeros_like(var), np.ones(var.size)

    # 2 M_k Gamma_ij^k = c_ij^k M_k - c_ik^j M_j - c_jk^i M_i
    #                    + [i = 0, j = k] M'_j + [j = 0, i = k] M'_i - [i = j, k = 0] M'_i
    i = np.concatenate([ca, ca, cd, zero, var, var])
    j = np.concatenate([cb, cd, ca, var, zero, var])
    k = np.concatenate([cd, cb, cb, var, var, zero])
    keys = (i * m + j) * m + k
    gamma = _unique(keys)
    src = np.concatenate([kind[cd]] * 3 + [3 + kind[var]] * 3)
    coef = np.concatenate([cv, -cv, -cv, one, one, -one])
    src, coef = _slots(gamma, keys, (src, coef), (0, 0.0))
    gi, gj, gk = np.unravel_index(gamma, (m, m, m))
    ng, zg = gamma.size, 2 * gamma.size

    # (G0[I] @ G0[J])[ij, k, l] sums Gamma_ik^s Gamma_js^l over s, and
    # G0[J] @ G0[I] the same with i and j swapped
    e1, e2 = np.nonzero((gk[:, None] == gj) & (gi[:, None] != gi))
    a, b = gi[e1], gi[e2]
    keys_ab = (pair[np.minimum(a, b), np.maximum(a, b)] * m + gj[e1]) * m + gk[e2]
    lo = a < b
    # c[I, J] @ G0 sums c_ij^q Gamma_qk^l over q
    up = ca < cb
    q, e = np.nonzero(cd[up][:, None] == gi)
    keys_c = (pair[ca[up][q], cb[up][q]] * m + gj[e]) * m + gk[e]
    # only b_0 = d/dt differentiates, so G1[j] enters the row of the pair (0, j)
    d = np.flatnonzero(gi > 0)
    keys_dt = (pair[0, gi[d]] * m + gj[d]) * m + gk[d]
    entries = _unique(np.concatenate([keys_ab, keys_c, keys_dt]))
    dt = np.full(entries.size, zg)
    dt[np.searchsorted(entries, keys_dt)] = ng + d

    # RL[ij, kl] = (R_ijkl - R_ijlk) / 2 over the pairs k < l
    r, k, l = np.unravel_index(entries, (p, m, m))
    zr = entries.size
    off = np.flatnonzero(k != l)
    keys_rl = r[off] * p + pair[np.minimum(k, l)[off], np.maximum(k, l)[off]]
    rl = _unique(keys_rl)
    kl, lk = np.full(rl.size, zr), np.full(rl.size, zr)
    ahead = k[off] < l[off]
    kl[np.searchsorted(rl, keys_rl[ahead])] = off[ahead]
    lk[np.searchsorted(rl, keys_rl[~ahead])] = off[~ahead]

    # Ric[i, i] sums RL[ij, ij] / M_j over j != i in order, the s-th such j
    # being s + (s >= i): RL holds R_ijij = R_jiji there for every pair
    s, ri = np.ogrid[: m - 1, :m]
    rj = s + (s >= ri)
    diagonal = pair[np.minimum(ri, rj), np.maximum(ri, rj)] * (p + 1)

    pattern = _Pattern(
        koszul=(np.stack([src, src + 3]), coef),  # the t-derivative reads one order up
        upper=np.stack([kind[gk], 3 + kind[gk]]),
        ab=tuple(_slots(entries, keys_ab[lo], (e1[lo], e2[lo]), (zg, zg))),
        ba=tuple(_slots(entries, keys_ab[~lo], (e1[~lo], e2[~lo]), (zg, zg))),
        bracket=tuple(_slots(entries, keys_c, (e, cv[up][q]), (zg, 0.0))),
        dt=dt,
        scale=kind[l],
        ric=(np.searchsorted(rl, diagonal), kind[rj]),
        kl=kl,
        lk=lk,
        rows=rl // p,
        cols=rl % p,
        # the pairs (0, j) come first in row-major order
        dt_pairs=(rl // p < m - 1).astype(np.intp) + (rl % p < m - 1),
    )
    for field in pattern:
        for array in field if isinstance(field, tuple) else (field,):
            array.flags.writeable = False
    return pattern


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
    formed.  The oracle keeps the operator on pairs,

        RL[ij, kl] = (R_ijkl - R_ijlk) / 2    for i < j and k < l,

    so that R(Y, Z, W, V) = (y ^ z)^T RL (w ^ v) with
    (y ^ z)_ij = y_i z_j - y_j z_i.  RL is the one operator it keeps; Ric,
    the diagonal of the Ricci matrix in the frame B, is read off RL's
    diagonal, Ric[i, i] = sum_{j != i} RL[ij, ij] / M_j, and is all of it:
    the trace puts no term off the diagonal.

    RL is held in coordinate form: RL[..., e] is the entry (rows[e],
    cols[e]), over the structural nonzeros that _pattern derives once per m
    (1,216 of the 246,016 entries at n = 16).  The values are computed only
    there, and equal those of a dense build bit for bit, which is exactly 0
    off the pattern.  Each sum of the build has one term per nonzero, so
    the build is one-term gathers and elementwise products; only the Ricci
    trace sums, over its m - 1 terms in index order.  The build holds the
    entries on its arrays' first axis and the batch after them, so a
    gather copies whole batch rows, and it moves the batch axes to the
    front once, at the end.  The norms of sectional and
    holomorphic_sectional come from FrameVector.inner, whose horizontal
    sums run by column, in index order (see _hdot).

    Of a frame's coordinates only the d/dt one, gamma g, depends on t.  So
    an evaluation takes the wedges of the t-free coordinates, with gamma in
    the d/dt slot, and each evaluation carries g on the operator instead:
    RLg[..., e] is RL[..., e] g^k_e, where k_e in {0, 1, 2} counts the pairs
    (0, j) among (rows[e], cols[e]).  Then

        R(Y, Z, W, V) = sum_e RLg_e (y ^ z)[rows_e] (w ^ v)[cols_e]

    with the wedges t-free: an evaluation forms the pair products
    (y ^ z)[rows_e] (w ^ v)[cols_e], which depend on the frames and m alone,
    and sums them against RLg along each row.

    mp is one point, or jets of one batch shape such as (T,) or (T, 1).
    RL and Ric then carry the batch axes first, and evaluations broadcast
    them against the frames' leading axes as the closed forms do, so a
    (T, 1) oracle evaluates the same frames at every t.  All work is
    elementwise in the batch, so a batch entry and a batch row give the
    bits of the same point and row alone.  Every gather is a take, whose
    result is C-ordered: x[..., idx] on a batch returns a transposed
    layout, over which numpy sums the last axis in another order than for
    one row.
    """

    def __init__(self, mp: MetricPoint) -> None:
        self.mp = mp
        pat = _pattern(2 * mp.n)
        f, fp, fpp = mp.f, mp.fp, mp.fpp
        g, gp, gpp = mp.g, mp.gp, mp.gpp
        # 1, f^2 and g^2, then their first and their second t-derivatives, on
        # the first axis, like every array of the build
        jets = np.stack(
            np.broadcast_arrays(
                1.0, f * f, g * g,
                0.0, 2.0 * f * fp, 2.0 * g * gp,
                0.0, 2.0 * fp * fp + 2.0 * f * fpp, 2.0 * gp * gp + 2.0 * g * gpp,
            )
        )
        batch = jets.shape[1:]
        per_entry = (...,) + (None,) * len(batch)  # a coefficient vector against the batch

        # 2 M_k Gamma_ij^k and its t-derivative, then 2 M_k and 2 M'_k
        src, coef = pat.koszul
        K = coef[per_entry] * jets.take(src, axis=0)
        two_m = 2.0 * jets.take(pat.upper, axis=0)
        ng = K.shape[1]
        G = np.zeros((2 * ng + 1,) + batch)
        G0 = np.divide(K[0], two_m[0], out=G[:ng])
        np.divide(K[1] - two_m[1] * G0, two_m[0], out=G[ng:-1])

        # R_up[ij, k, l] = R_ijk^l: G0[I] @ G0[J] - G0[J] @ G0[I] + c[I, J] @ G0,
        # minus G1 on the rows (0, j)
        R = np.zeros((pat.dt.size + 1,) + batch)
        R_up = R[:-1]
        a, b = pat.ab
        R_up += G.take(a, axis=0) * G.take(b, axis=0)
        a, b = pat.ba
        R_up -= G.take(a, axis=0) * G.take(b, axis=0)
        src, coef = pat.bracket
        R_up += coef[per_entry] * G.take(src, axis=0)
        R_up -= G.take(pat.dt, axis=0)
        # R_ijkl = R_ijk^l M_l
        R_up *= jets.take(pat.scale, axis=0)
        RL = 0.5 * (R.take(pat.kl, axis=0) - R.take(pat.lk, axis=0))
        # Ric[i, i] = sum_j R_ijij / M_j, read off RL's diagonal
        slots, metric = pat.ric
        Ric = (RL.take(slots, axis=0) / jets.take(metric, axis=0)).sum(axis=0)
        # the batch axes first, in C order, for evaluations' sums along a row
        self.RL = np.ascontiguousarray(np.moveaxis(RL, 0, -1))
        self.Ric = np.ascontiguousarray(np.moveaxis(Ric, 0, -1))
        self.rows, self.cols = pat.rows, pat.cols

    def frame_coords(self, fv: FrameVector) -> np.ndarray:
        """Coordinates in the frame B, of shape (..., 2n) for a batch (...)."""
        return _coords(fv, fv.gamma * self.mp.g)

    def evaluate(self, Y: FrameVector, Z: FrameVector, W: FrameVector, V: FrameVector):
        """R(Y, Z, W, V), broadcast over the leading axes of the frames.

        The batch goes through in profile.blocks along its first axis, a
        row holding the pair products of the other axes.  When no frame
        carries that axis, as when a (T, 1) oracle meets (S,) frames, the
        products are formed once and every block contracts them.  A
        block's rows are those of one call, and each row sums on its own,
        so they keep its bits."""
        pat = _pattern(2 * self.mp.n)
        powers = np.asarray(self.mp.g)[..., None] ** np.arange(3.0)  # 1, g, g^2
        RLg, frames = self.RL * powers.take(pat.dt_pairs, axis=-1), (Y, Z, W, V)
        shape = np.broadcast_shapes(RLg.shape[:-1], *(fv.u.shape[:-1] for fv in frames))
        if not shape:
            return (_pair_products(*frames) * RLg).sum(axis=-1)[()]

        def carries(batch):
            # the batch holds the first axis in full, so a block takes its rows
            return len(batch) == len(shape) and batch[0] != 1

        blocked = any(carries(fv.u.shape[:-1]) for fv in frames)
        products = None if blocked else _pair_products(*frames)
        out = np.empty(shape)
        for rows in profile.blocks(shape[0], RLg.shape[-1] * math.prod(shape[1:])):
            if blocked:  # one part per distinct frame keeps W is Y
                part = {id(fv): fv[rows] if carries(fv.u.shape[:-1]) else fv for fv in frames}
                products = _pair_products(*(part[id(fv)] for fv in frames))
            out[rows] = (products * (RLg[rows] if carries(RLg.shape[:-1]) else RLg)).sum(axis=-1)
        return out

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
        """sectional(X, JX): <X, JX> is exactly 0 and |JX|^2 = |X|^2 bit for
        bit, so this is R(X, JX, X, JX) / |X|^4."""
        return self.sectional(X, X.J())

    def ricci(self, Xi: FrameVector):
        """Sum of R(Xi, b, Xi, b) over the 2n orthonormal frame directions."""
        x = self.frame_coords(Xi)
        return (x * self.Ric * x).sum(axis=-1)[()]


def _coords(fv: FrameVector, dt) -> np.ndarray:
    """Coordinates (dt, Re u_1, Im u_1, ..., Re u_{n-1}, Im u_{n-1}, beta) of
    fv, of shape (..., 2n) for a batch (...)."""
    m = 2 * fv.u.shape[-1] + 2
    x = np.zeros(np.broadcast(fv.u[..., 0], dt).shape + (m,))
    x[..., 0] = dt
    x[..., 1 : m - 1 : 2] = fv.u.real
    x[..., 2 : m - 1 : 2] = fv.u.imag
    x[..., m - 1] = fv.beta
    return x


def _wedge(A: FrameVector, B: FrameVector) -> np.ndarray:
    """(a ^ b)_ij = a_i b_j - a_j b_i over the pairs i < j of the t-free
    coordinates a, b of A and B, shape (..., p)."""
    a, b = _coords(A, A.gamma), _coords(B, B.gamma)
    _, _, IJ, JI = _pairs(a.shape[-1])
    ab = a.take(IJ, axis=-1) * b.take(JI, axis=-1)
    p = ab.shape[-1] // 2
    return ab[..., :p] - ab[..., p:]


def _pair_products(Y: FrameVector, Z: FrameVector, W: FrameVector, V: FrameVector) -> np.ndarray:
    """(y ^ z)[rows_e] (w ^ v)[cols_e] over the oracle's structural entries e
    of the frame size of Y, from the t-free wedges, broadcast over the
    leading axes of the frames: shape (..., nnz).  They depend on no metric
    point, so one set serves every t (see CurvatureOracle)."""
    yz = _wedge(Y, Z)
    wv = yz if W is Y and V is Z else _wedge(W, V)  # R(X, Y, X, Y) needs one
    pat = _pattern(2 * Y.u.shape[-1] + 2)
    return yz.take(pat.rows, axis=-1) * wv.take(pat.cols, axis=-1)


# callers reuse only the oracle of the point they just asked for; each
# holds O(nnz) values, 1,216 at n = 16
@lru_cache(maxsize=1)
def oracle_for(mp: MetricPoint) -> CurvatureOracle:
    return CurvatureOracle(mp)


# ---------------------------------------------------------------------------
# Sweep summary
# ---------------------------------------------------------------------------


SUMMARY = ("min_hbc", "max_hbc", "min_ricci_eigenvalue", "sectional_min", "sectional_max")


def sweep_summary(mp: MetricPoint, seed: int) -> Iterator[tuple[float, ...]]:
    """Yield the SUMMARY row of mp: one for a single point, one per t of
    (T,) jets.  Every t sees the same 120 frame pairs, drawn from seed, and
    their pair data are formed once.  The t go through in profile.blocks of
    width max(120, nnz), one value per pair or per structural entry: a
    block takes its rows of mp as (B, 1) jets, and the closed-form ratio
    and one oracle build's sectional curvature run over them against the
    (120,) pairs.  All of it is elementwise in t, so each t gets the bits
    of the closed forms and of CurvatureOracle.sectional at that t alone."""
    pairs = 120
    F = random_frame_vector(np.random.default_rng(seed), mp.n, (pairs, 2))
    Y, Xi = F[:, 0], F[:, 1]
    pair_data = _pair_data(Y, Xi)
    points = mp if np.ndim(mp.f) else mp[None]
    for rows in profile.blocks(np.size(points.f), max(pairs, _pattern(2 * mp.n).rows.size)):
        grid = points[rows, None]
        _, hbc = _bisectional_ratio(pair_data, grid)
        coef_h, coef_z = ricci_coefficients(grid)
        ric_lo = np.minimum(-coef_h / grid.f**2, -coef_z / grid.g**2)[:, 0]
        sec = CurvatureOracle(grid).sectional(Y, Xi)
        columns = (hbc.min(axis=1), hbc.max(axis=1), ric_lo, sec.min(axis=1), sec.max(axis=1))
        yield from (tuple(map(float, row)) for row in zip(*columns))


# ---------------------------------------------------------------------------
# Nonpositivity certificate
# ---------------------------------------------------------------------------


NONPOSITIVE_TOL = 1e-12  # R <= NONPOSITIVE_TOL
STRICT_RATIO = 1e-10  # R / (|Y|^2 |Xi|^2) < -STRICT_RATIO at interior t
CS_TOL = 1e-12  # Cauchy-Schwarz slack >= -CS_TOL


@dataclass
class CertificateReport:
    samples: int
    max_value: float
    worst_interior_ratio: float
    min_cs_slack: float
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def margin(self) -> float:
        """Tolerance - error, the least over the three conditions, -0.0 at
        equality in the strict one: +0.0 or more exactly when no sample failed."""
        ratio = (-STRICT_RATIO - self.worst_interior_ratio) or -0.0
        terms = (NONPOSITIVE_TOL - self.max_value, ratio, self.min_cs_slack + CS_TOL)
        return float(np.min(terms))

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"hbc certificate: {status} on {self.samples} samples, "
            f"max R = {self.max_value:.3e}, "
            f"worst interior ratio = {self.worst_interior_ratio:.3e}, "
            f"min CS slack = {self.min_cs_slack:.3e}"
        )


def hbc_certificate(
    p: CutoffProfile, samples: int, n: int = 3, seed: int = 0
) -> CertificateReport:
    """Sample (t, Y, Xi) triples with t in [0.05, A] and certify
    nonpositivity of the bisectional curvature, strict negativity relative
    to |Y|^2 |Xi|^2 (a ratio below -STRICT_RATIO) for unit vectors at
    interior t, and the Cauchy-Schwarz step used to absorb the mixed terms.
    Each failure is (kind, sample index, t, value), the index counting
    draws from 0, so a sample can be replayed at its seed.

    All t are drawn first; the samples then go through in profile.blocks
    of rows of width 4n (a sample draws two frame vectors of 2n normals),
    each drawing its own frames, and the extremes and the first
    ten failures run on from block to block in sample order.  Consecutive
    draws fill the stream of one draw, every operation is elementwise per
    sample and each sum runs along a sample's own row, so the report has
    the bits of one batch over all samples, with temporaries of one block.
    """
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.05, p.A, samples)
    kinds = ("nonpositivity", "strict negativity", "cauchy-schwarz")
    max_value = worst_ratio = -math.inf
    min_slack, failures = math.inf, []
    for rows in profile.blocks(samples, 4 * n):
        t = ts[rows]
        F = random_frame_vector(rng, n, (t.size, 2))
        Y, Xi = F[:, 0], F[:, 1]
        # a degenerate corner at every 97th sample: a pure central Y
        corner = slice(-rows.start % 97, None, 97)
        Y.u[corner], Y.beta[corner], Y.gamma[corner] = 0.0, 1.0, 0.0
        mp = MetricPoint.from_profile(p, t, n)

        pair_data = _pair_data(Y, Xi)
        val, ratio = _bisectional_ratio(pair_data, mp)
        slack = _cauchy_schwarz_defect(pair_data)
        # np.maximum and np.minimum keep a nan, as one max over all samples does
        max_value = np.maximum(max_value, val.max())
        worst_ratio = np.maximum(worst_ratio, ratio.max())
        min_slack = np.minimum(min_slack, slack.min())
        # each test is the negation of its pass condition, so a NaN fails;
        # a ratio of -inf, where |Y|^2 |Xi|^2 = 0, never fails
        failed = np.stack(
            [~(val <= NONPOSITIVE_TOL), ~(ratio < -STRICT_RATIO), ~(slack >= -CS_TOL)], axis=-1
        )
        k, j = np.nonzero(failed)
        columns = (val, ratio, slack)
        failures += [
            (kinds[c], rows.start + int(r), float(t[r]), float(columns[c][r]))
            for r, c in zip(k[: 10 - len(failures)], j)
        ]
    return CertificateReport(
        samples=samples,
        max_value=float(max_value),
        worst_interior_ratio=float(worst_ratio),
        min_cs_slack=float(min_slack),
        failures=failures,
    )
