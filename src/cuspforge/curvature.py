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
    """Real part of sum(conj(w) v) over the last axis, in real products, so
    that a batch row rounds exactly like a single vector."""
    return np.sum(w.real * v.real + w.imag * v.imag, axis=-1)


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
    v, w = Y.u, Xi.u
    re, im = _hdot(v, w), np.sum(w.real * v.imag - w.imag * v.real, axis=-1)
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
    return _bisectional(_pair_data(Y, Xi), mp)


def _bisectional(pair_data: tuple, mp: MetricPoint):
    """bisectional from the _pair_data of (Y, Xi)."""
    f2, g2 = mp.f * mp.f, mp.g * mp.g
    h1sq, h2sq, h3sq = _warp_squares(mp)
    a_sq, alpha_sq, bc_sq, bg_sq, cross, dde = pair_data
    # a^2 alpha^2 |W|^2 = a^2 alpha^2 - a^2 alpha^2 (d^2 + e^2)
    horiz = dde * (f2 * f2) * h1sq + 2.0 * g2 * np.maximum(0.0, a_sq * alpha_sq - dde)
    central = h2sq * (g2 * g2) * bc_sq * bg_sq
    mixed = 2.0 * f2 * g2 * h3sq * (a_sq * bg_sq + alpha_sq * bc_sq + cross)
    return -(horiz + central + mixed)


def _cauchy_schwarz_defect(pair_data: tuple):
    """Slack of |2 a alpha ((b beta + c gamma) x + (c beta - b gamma) y)|
    <= a^2 (beta^2 + gamma^2) + alpha^2 (b^2 + c^2), from the _pair_data
    of (Y, Xi); nonnegative slack means the inequality holds for the pair."""
    a_sq, alpha_sq, bc_sq, bg_sq, cross, _ = pair_data
    return a_sq * bg_sq + alpha_sq * bc_sq - np.abs(cross)


def ricci(Xi: FrameVector, mp: MetricPoint):
    """Ricci quadratic form of mu_{f,g}.

    Ricci(Xi, Xi) = -(2 f f'' + 4 f'^2 + 2 (n-2) f'^2) alpha^2
                    - ((2n+1) f f'^2 f'' + f^2 f' f''') (beta^2 + gamma^2)
    with alpha^2 the squared Euclidean norm of the horizontal part.  With
    f = exp this is the Einstein identity Ricci = -(2n+2) |Xi|^2.
    """
    alpha_sq = _hdot(Xi.u, Xi.u)
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
    ric: tuple  # R slots and signs of the Ricci trace, per diagonal entry of Ric
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
    """Spread terms over the (w, entries.size) slots of the sorted keys
    `entries`, w the most terms of one entry: the terms of an entry fill its
    column in the order given, and an empty slot holds `fill`, one value per
    field."""
    col = np.searchsorted(entries, keys)
    order = np.argsort(col, kind="stable")
    col = col[order]
    counts = np.bincount(col, minlength=entries.size)
    row = np.arange(col.size) - (np.cumsum(counts) - counts)[col]
    out = []
    for field, empty in zip(fields, fill):
        a = np.full((counts.max(initial=0), entries.size), empty, dtype=field.dtype)
        a[row, col] = field[order]
        out.append(a)
    return out


@lru_cache(maxsize=8)
def _pattern(m: int) -> _Pattern:
    """The oracle's structural nonzeros on the frame of size m, in
    coordinate form, from the bracket table and the diagonal metric alone.

    A term is kept unless one of its factors is structurally zero; no value
    is ever compared with 0.  Each sum of the build (the Koszul sum, the
    products of Christoffel symbols, the bracket term, the Ricci trace) is a
    set of padded slots per nonzero that holds its terms in the order of the
    summed index, the order in which a dense contraction adds them, so the
    values equal a dense build's bit for bit.  Slots point into the value
    vectors of CurvatureOracle.__init__: jets[3 d + q] is the d-th
    t-derivative of the metric coefficient q (1, f^2 or g^2), G holds G0,
    then G1, then one 0, and R the entries of R_up, then one 0.  Read-only,
    because every oracle of this m shares them.
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

    # Ric[i, i] sums R_iji^j over j in order, where the row (j, i) is -(i, j);
    # only the diagonal is kept, where every term of the trace lands
    r, k, l = np.unravel_index(entries, (p, m, m))
    zr = entries.size
    top = np.flatnonzero((l == J[r]) & (k == I[r]))
    bottom = np.flatnonzero((l == I[r]) & (k == J[r]))
    dst = np.concatenate([I[r[top]], J[r[bottom]]])
    order = np.lexsort((np.concatenate([J[r[top]], I[r[bottom]]]), dst))
    sign = np.repeat([1.0, -1.0], [top.size, bottom.size])
    ric = _slots(
        np.arange(m), dst[order], (np.concatenate([top, bottom])[order], sign[order]), (zr, 1.0)
    )

    # RL[ij, kl] = (R_ijkl - R_ijlk) / 2 over the pairs k < l
    off = np.flatnonzero(k != l)
    keys_rl = r[off] * p + pair[np.minimum(k, l)[off], np.maximum(k, l)[off]]
    rl = _unique(keys_rl)
    kl, lk = np.full(rl.size, zr), np.full(rl.size, zr)
    ahead = k[off] < l[off]
    kl[np.searchsorted(rl, keys_rl[ahead])] = off[ahead]
    lk[np.searchsorted(rl, keys_rl[~ahead])] = off[~ahead]

    pattern = _Pattern(
        koszul=(np.stack([src, src + 3]), coef),  # the t-derivative reads one order up
        upper=np.stack([kind[gk], 3 + kind[gk]]),
        ab=tuple(_slots(entries, keys_ab[lo], (e1[lo], e2[lo]), (zg, zg))),
        ba=tuple(_slots(entries, keys_ab[~lo], (e1[~lo], e2[~lo]), (zg, zg))),
        bracket=tuple(_slots(entries, keys_c, (e, cv[up][q]), (zg, 0.0))),
        dt=dt,
        scale=kind[l],
        ric=tuple(ric),
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
    (y ^ z)_ij = y_i z_j - y_j z_i, and Ric, the diagonal of the Ricci
    matrix in the frame B, which is all of it: the trace puts no term off
    the diagonal.

    RL is held in coordinate form: RL[..., e] is the entry (rows[e],
    cols[e]), over the structural nonzeros that _pattern derives once per m
    (1,216 of the 246,016 entries at n = 16).  The values are computed only
    there, and equal those of a dense build bit for bit, which is exactly 0
    off the pattern.

    Of a frame's coordinates only the d/dt one, gamma g, depends on t.  So
    an evaluation takes the wedges of the t-free coordinates, with gamma in
    the d/dt slot, and the oracle carries g instead: RLg[..., e] is
    RL[..., e] g^k_e, where k_e in {0, 1, 2} counts the pairs (0, j) among
    (rows[e], cols[e]).  Then

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
        # 1, f^2 and g^2, then their first and their second t-derivatives
        jets = np.stack(
            np.broadcast_arrays(
                1.0, f * f, g * g,
                0.0, 2.0 * f * fp, 2.0 * g * gp,
                0.0, 2.0 * fp * fp + 2.0 * f * fpp, 2.0 * gp * gp + 2.0 * g * gpp,
            ),
            axis=-1,
        )
        batch = jets.shape[:-1]

        # 2 M_k Gamma_ij^k and its t-derivative, then 2 M_k and 2 M'_k
        src, coef = pat.koszul
        K = (coef * jets.take(src, axis=-1)).sum(axis=-2)
        two_m = 2.0 * jets.take(pat.upper, axis=-1)
        ng = K.shape[-1]
        G = np.zeros(batch + (2 * ng + 1,))
        G0 = np.divide(K[..., 0, :], two_m[..., 0, :], out=G[..., :ng])
        np.divide(K[..., 1, :] - two_m[..., 1, :] * G0, two_m[..., 0, :], out=G[..., ng:-1])

        # R_up[ij, k, l] = R_ijk^l: G0[I] @ G0[J] - G0[J] @ G0[I] + c[I, J] @ G0,
        # minus G1 on the rows (0, j)
        R = np.zeros(batch + (pat.dt.size + 1,))
        R_up = R[..., :-1]
        a, b = pat.ab
        R_up += (G.take(a, axis=-1) * G.take(b, axis=-1)).sum(axis=-2)
        a, b = pat.ba
        R_up -= (G.take(a, axis=-1) * G.take(b, axis=-1)).sum(axis=-2)
        src, coef = pat.bracket
        R_up += (coef * G.take(src, axis=-1)).sum(axis=-2)
        R_up -= G.take(pat.dt, axis=-1)
        # Ric[i, i] = sum_j R_iji^j, then R_ijkl = R_ijk^l M_l
        src, sign = pat.ric
        self.Ric = (sign * R.take(src, axis=-1)).sum(axis=-2)
        R_up *= jets.take(pat.scale, axis=-1)
        self.RL = 0.5 * (R.take(pat.kl, axis=-1) - R.take(pat.lk, axis=-1))
        self.rows, self.cols = pat.rows, pat.cols
        powers = np.asarray(g)[..., None] ** np.arange(3.0)  # 1, g, g^2
        self.RLg = self.RL * powers.take(pat.dt_pairs, axis=-1)

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
        RLg, frames = self.RLg, (Y, Z, W, V)
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
        """R(X, JX, X, JX) / |X|^4 (X and JX are orthogonal)."""
        nsq = X.norm_sq(self.mp)
        if np.any(nsq <= 0.0):
            raise ValueError("zero vector")
        JX = X.J()
        return self.evaluate(X, JX, X, JX) / (nsq * nsq)

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
    Each failure is (kind, sample index, t, value), the index counting
    draws from 0, so a sample can be replayed at its seed.

    All t are drawn first; the samples then go through in profile.blocks
    of rows of width 4n (a sample draws two frame vectors of 2n normals),
    each drawing its own frames, and the extremes and the first
    ten failures run on from block to block in sample order.  Consecutive
    draws fill the stream of one draw, every operation is elementwise per
    sample and each sum runs along a sample's own row, so the report has
    the bits of one batch over all samples, with temporaries of one block.
    The norms of the ratio's |Y|^2 |Xi|^2 come from the pair data that the
    bisectional formula reads, not from a second pass over the frames.
    """
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.05, p.A, samples)
    kinds = ("nonpositivity", "strict negativity", "cauchy-schwarz")
    max_value = worst_ratio = -math.inf
    min_value = min_slack = math.inf
    failures, passed = [], True
    for rows in profile.blocks(samples, 4 * n):
        t = ts[rows]
        F = random_frame_vector(rng, n, (t.size, 2))
        Y, Xi = F[:, 0], F[:, 1]
        # degenerate corners at every 97th sample: pure central and pure
        # horizontal vectors
        corner = slice(-rows.start % 97, None, 97)
        Y.u[corner], Y.beta[corner], Y.gamma[corner] = 0.0, 1.0, 0.0
        mp = MetricPoint.from_profile(p, t, n)

        pair_data = _pair_data(Y, Xi)
        val = _bisectional(pair_data, mp)
        denom = _norm_product(pair_data, mp)
        interior = denom > 0.0
        ratio = np.where(interior, val / np.where(interior, denom, 1.0), -math.inf)
        slack = _cauchy_schwarz_defect(pair_data)
        # np.maximum and np.minimum keep a nan, as one max over all samples does
        max_value = np.maximum(max_value, val.max())
        min_value = np.minimum(min_value, val.min())
        worst_ratio = np.maximum(worst_ratio, ratio.max())
        min_slack = np.minimum(min_slack, slack.min())
        # each test is the negation of its pass condition, so a NaN fails
        failed = np.stack(
            [~(val <= 1e-12), interior & ~(ratio < -STRICT_RATIO), ~(slack >= -1e-12)], axis=-1
        )
        k, j = np.nonzero(failed)
        passed = passed and not k.size
        columns = (val, ratio, slack)
        failures += [
            (kinds[c], rows.start + int(r), float(t[r]), float(columns[c][r]))
            for r, c in zip(k[: 10 - len(failures)], j)
        ]
    return CertificateReport(
        passed=passed,
        samples=samples,
        max_value=float(max_value),
        min_value=float(min_value),
        worst_interior_ratio=float(worst_ratio),
        min_cs_slack=float(min_slack),
        failures=failures,
    )
