"""Exact arithmetic over imaginary quadratic fields and the Cayley
transform route into rational unitary groups.

Elements of Q(sqrt(-d)) are pairs of exact rationals, and QuadElem stays
the scalar API.  Matrices over the field support exact inverse
and Hermitian-form identities with zero tolerance.  A matrix
is stored only as (X + Y sqrt(-d))/D with integer arrays X, Y and the
least common denominator D, reduced by one gcd per result; its QuadElem
entries are a read-only view.  Exact input, whether matrix entries,
vectors or scalars, is checked and converted to that form in one place,
_checked.  Sums and products are integer array
operations, the unitarity test compares the pulled-back form with H, and
the inverse and the kernel behind fixed vectors share one
fraction-free Gauss-Jordan reduction over Z[sqrt(-d)] (Bareiss).  The
Cayley transform S(N) = 2(I+N)^{-1} - I swaps the unitary group of a
diagonal form B with the linear space of matrices satisfying
tS B = -B conj(S), and that space is cut out by rational linear
constraints on real and imaginary parts.  Rationalizing a complex matrix
on the constraint side and mapping back therefore produces exact unitary
matrices arbitrarily close to a given one.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

RationalLike = Fraction | int | str


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# d is validated on every QuadElem built; the cache keeps the most recent
# fields, so a sweep over many d stays bounded
@functools.lru_cache(maxsize=256)
def _is_squarefree(d: int) -> bool:
    # divide out each prime k with k^3 <= cofactor, failing on a second division;
    # the rest has at most two prime factors: squarefree unless a perfect square
    ok = d >= 1
    m, k = d, 2
    while ok and k * k * k <= m:
        if m % k == 0:
            m //= k
            ok = m % k != 0
        k += 1
    return ok and (m == 1 or math.isqrt(m) ** 2 != m)


def check_field(d: int) -> None:
    """Raise ValueError unless d is a squarefree positive integer, so that
    Q(sqrt(-d)) is an imaginary quadratic field."""
    if not _is_squarefree(d):
        raise ValueError(f"d = {d} is not a squarefree positive integer")


@dataclass(frozen=True)
class QuadElem:
    """a + b*sqrt(-d) with exact rational a, b and squarefree d >= 1."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        check_field(self.d)

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise ValueError(f"mixed fields: d = {self.d} vs {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(_frac(other), Fraction(0), self.d)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (a + b w)(a' + b' w), w^2 = -d
        return QuadElem(
            self.a * o.a - self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadElem":
        return QuadElem(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 + d b^2; multiplicative and zero only at zero."""
        return self.a * self.a + self.d * self.b * self.b

    def inv(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadElem(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv().__mul__(other)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def is_integral(self) -> bool:
        """Membership in the ring of integers of Q(sqrt(-d))."""
        if self.d % 4 == 3:
            ta, tb = 2 * self.a, 2 * self.b
            return ta.denominator == 1 and tb.denominator == 1 and (ta - tb) % 2 == 0
        return self.a.denominator == 1 and self.b.denominator == 1

    def to_complex(self) -> complex:
        return complex(Fraction(self.a)) + 1j * float(self.b) * math.sqrt(self.d)

    def __repr__(self) -> str:
        return f"({self.a} + {self.b}*sqrt(-{self.d}))"


def qzero(d: int) -> QuadElem:
    return QuadElem(Fraction(0), Fraction(0), d)


def qone(d: int) -> QuadElem:
    return QuadElem(Fraction(1), Fraction(0), d)


def qomega(d: int) -> QuadElem:
    """The generator sqrt(-d)."""
    return QuadElem(Fraction(0), Fraction(1), d)


# ---------------------------------------------------------------------------
# Integer arrays over one common denominator
# ---------------------------------------------------------------------------
#
# An object array of QuadElem is read as (X + Y w)/D, w = sqrt(-d), with
# object arrays X, Y of Python ints and one positive int D.  Never int64:
# the denominators of exact approximants run to hundreds of digits.


def _ints(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer arrays X, Y and the least D > 0 with entries == (X + Y w)/D."""
    flat = entries.ravel()
    D = math.lcm(*(c.denominator for e in flat for c in (e.a, e.b)))
    X = np.array([e.a.numerator * (D // e.a.denominator) for e in flat], dtype=object)
    Y = np.array([e.b.numerator * (D // e.b.denominator) for e in flat], dtype=object)
    return X.reshape(entries.shape), Y.reshape(entries.shape), D


def _quads(X: np.ndarray, Y: np.ndarray, D: int, d: int) -> np.ndarray:
    """Object array of the QuadElem entries of (X + Y w)/D."""
    pairs = zip(X.flat, Y.flat)
    quads = [QuadElem(Fraction(x, D), Fraction(y, D), d) for x, y in pairs]
    return np.array(quads, dtype=object).reshape(X.shape)


def _checked(arr: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer form (X, Y, D) of an object array, checked in row-major order
    to hold only QuadElem over the field d.  The one check of exact input."""
    for idx, e in np.ndenumerate(arr):
        if not isinstance(e, QuadElem):
            where = idx if arr.ndim > 1 else idx[0]
            raise TypeError(f"entry {e!r} at {where} is not a QuadElem")
        if e.d != d:
            raise ValueError(f"mixed fields: d = {d} vs {e.d}")
    return _ints(arr)


def _vector(vec: Sequence[QuadElem], m: int, d: int) -> tuple:
    """Integer form (x, y, D) of vec, checked to hold m QuadElem over the field d."""
    if len(vec) != m:
        raise ValueError("vector length mismatch")
    return _checked(np.fromiter(vec, dtype=object, count=m), d)


def _wmul(X1, Y1, X2, Y2, d: int) -> tuple:
    """(X1 + Y1 w) @ (X2 + Y2 w) as its two integer parts, w^2 = -d."""
    return X1 @ X2 - d * (Y1 @ Y2), X1 @ Y2 + Y1 @ X2


def _times_conj(X, Y, px: int, py: int, d: int) -> tuple:
    """(X + Y w) conj(p) for p = px + py w, so that dividing by p leaves
    a division by the integer norm px^2 + d py^2."""
    return X * px + d * py * Y, Y * px - X * py


def _gauss_jordan(
    X: list[list[int]], Y: list[list[int]], d: int, ncols: int
) -> tuple[list[int], tuple[int, int]]:
    """Fraction-free Gauss-Jordan on X + Y w over Z[w], in place.

    X and Y are the rows of the real and w parts, each a list of Python
    ints; a row update replaces the two lists of that row.  Pivots are
    searched in the first ncols columns; the pivot is the first nonzero
    entry at or below the current row.  With pivot a in row r and p the
    previous pivot (1 at first), every other row becomes
    (a row_i - row_i[col] row_r)/p (Bareiss, Math. Comp. 22, 1968).  Each
    entry is then a minor of the input, so the division is exact in
    Z[w]; a and row_i[col] are first multiplied by conj(p), leaving a
    division by the integer norm of p (by p itself while p is rational),
    and a nonzero remainder raises.  Afterwards every pivot entry equals
    the last pivot p, so the reduced row echelon form is (X + Y w)/p.
    Returns the pivot columns and p as (px, py)."""
    nrows = len(X)
    px, py = 1, 0
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        piv = next((r for r in range(row, nrows) if X[r][col] or Y[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            X[row], X[piv] = X[piv], X[row]
            Y[row], Y[piv] = Y[piv], Y[row]
        rx, ry = X[row], Y[row]
        # divide by p as conj(p) over its norm, or by p itself while it is rational
        (qx, qy), norm = ((px, py), px * px + d * py * py) if py else ((1, 0), px)
        sx, sy = _times_conj(rx[col], ry[col], qx, qy, d)
        dsy = d * sy
        for i in range(nrows):
            if i == row:
                continue
            xi, yi = X[i], Y[i]
            tx, ty = _times_conj(xi[col], yi[col], qx, qy, d)
            dty = d * ty
            # (s row_i - t row_r) with s = a conj(q), t = row_i[col] conj(q)
            nx = [sx * a - dsy * b - tx * u + dty * v for a, b, u, v in zip(xi, yi, rx, ry)]
            ny = [sx * b + sy * a - tx * v - ty * u for a, b, u, v in zip(xi, yi, rx, ry)]
            if math.gcd(norm, *nx, *ny) != abs(norm):
                raise AssertionError("inexact division by the previous pivot")
            X[i], Y[i] = [v // norm for v in nx], [v // norm for v in ny]
        px, py = rx[col], ry[col]
        pivots.append(col)
    return pivots, (px, py)


def _inverse_ints(X: np.ndarray, Y: np.ndarray, D: int, d: int) -> tuple:
    """Integer form (X', Y', D') of the inverse of (X + Y w)/D."""
    m = len(X)
    rows_x = [r + [int(i == j) for j in range(m)] for i, r in enumerate(X.tolist())]
    rows_y = [r + [0] * m for r in Y.tolist()]
    pivots, (px, py) = _gauss_jordan(rows_x, rows_y, d, m)
    if len(pivots) < m:
        raise ZeroDivisionError("singular matrix")
    # the right block is p (X + Y w)^{-1}, and (X + Y w)/D inverts to D times that
    Px = np.array([r[m:] for r in rows_x], dtype=object)
    Py = np.array([r[m:] for r in rows_y], dtype=object)
    Rx, Ry = _times_conj(D * Px, D * Py, px, py, d)
    return Rx, Ry, px * px + d * py * py


class QuadMatrix:
    """Square matrix over Q(sqrt(-d)) with exact arithmetic throughout.

    Stored as (X + Y sqrt(-d))/D with the least D: X and Y are (m, m)
    object arrays of Python ints, D > 0 and gcd(D, X, Y) = 1, so the form
    is canonical and == compares it directly.  Every operation runs on
    this form.  entries is a read-only view, an (m, m) object array of
    QuadElem built on each access.
    """

    __slots__ = ("X", "Y", "D", "m", "d")

    def __init__(self, entries: Sequence[Sequence[QuadElem]]):
        arr = np.array(entries, dtype=object)
        m = len(arr)
        if m == 0 or arr.shape != (m, m):
            raise ValueError("square nonempty entry grid required")
        # a non-QuadElem first entry has no d and fails the check at (0, 0)
        d = getattr(arr[0, 0], "d", None)
        # the least common denominator of reduced fractions leaves gcd 1
        self.X, self.Y, self.D = _checked(arr, d)
        self.m, self.d = m, d

    @classmethod
    def _reduced(cls, X: np.ndarray, Y: np.ndarray, D: int, d: int) -> "QuadMatrix":
        """(X + Y w)/D for D > 0, with X, Y and D divided by their gcd."""
        g = math.gcd(D, *X.flat, *Y.flat)
        out = cls.__new__(cls)
        out.X, out.Y, out.D = X // g, Y // g, D // g
        out.m, out.d = len(X), d
        return out

    @classmethod
    def identity(cls, m: int, d: int) -> "QuadMatrix":
        return cls.diagonal([1] * m, d)

    @classmethod
    def diagonal(cls, diag: Sequence[RationalLike], d: int) -> "QuadMatrix":
        check_field(d)
        fracs = [_frac(v) for v in diag]
        m = len(fracs)
        if m == 0:
            raise ValueError("square nonempty entry grid required")
        D = math.lcm(*(f.denominator for f in fracs))
        X, Y = np.zeros((m, m), dtype=object), np.zeros((m, m), dtype=object)
        np.fill_diagonal(X, [f.numerator * (D // f.denominator) for f in fracs])
        return cls._reduced(X, Y, D, d)

    @property
    def entries(self) -> np.ndarray:
        grid = _quads(self.X, self.Y, self.D, self.d)
        grid.flags.writeable = False
        return grid

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadMatrix):
            return NotImplemented
        same = (self.m, self.d, self.D) == (other.m, other.d, other.D)
        return same and np.array_equal(self.X, other.X) and np.array_equal(self.Y, other.Y)

    def __add__(self, other: "QuadMatrix") -> "QuadMatrix":
        self._check(other)
        L = math.lcm(self.D, other.D)
        a, b = L // self.D, L // other.D
        X, Y = a * self.X + b * other.X, a * self.Y + b * other.Y
        return QuadMatrix._reduced(X, Y, L, self.d)

    def __sub__(self, other: "QuadMatrix") -> "QuadMatrix":
        return self + other.scale(-1)

    def _check(self, other: "QuadMatrix") -> None:
        if self.m != other.m or self.d != other.d:
            raise ValueError("size or field mismatch")

    def scale(self, c: QuadElem | RationalLike) -> "QuadMatrix":
        cc = c if isinstance(c, QuadElem) else QuadElem(_frac(c), Fraction(0), self.d)
        (cx,), (cy,), cD = _checked(np.array([cc]), self.d)
        X, Y = cx * self.X - self.d * cy * self.Y, cx * self.Y + cy * self.X
        return QuadMatrix._reduced(X, Y, cD * self.D, self.d)

    def __matmul__(self, other: "QuadMatrix") -> "QuadMatrix":
        self._check(other)
        X, Y = _wmul(self.X, self.Y, other.X, other.Y, self.d)
        return QuadMatrix._reduced(X, Y, self.D * other.D, self.d)

    def transpose(self) -> "QuadMatrix":
        return QuadMatrix._reduced(self.X.T, self.Y.T, self.D, self.d)

    def conj(self) -> "QuadMatrix":
        return QuadMatrix._reduced(self.X, -self.Y, self.D, self.d)

    def is_zero(self) -> bool:
        return not (self.X.any() or self.Y.any())

    def apply(self, vec: Sequence[QuadElem]) -> list[QuadElem]:
        vx, vy, vD = _vector(vec, self.m, self.d)
        ox, oy = _wmul(self.X, self.Y, vx, vy, self.d)
        return list(_quads(ox, oy, self.D * vD, self.d))

    def inverse(self) -> "QuadMatrix":
        return QuadMatrix._reduced(*_inverse_ints(self.X, self.Y, self.D, self.d), self.d)

    def to_complex(self) -> np.ndarray:
        # Python scalar arithmetic per entry: int / int rounds once, as
        # float(Fraction) does, and the sums match QuadElem.to_complex
        re, im = self.X / self.D, self.Y / self.D
        return (re + 1j * im * math.sqrt(self.d)).astype(complex)

    def to_json(self) -> str:
        """{"d", "m", "entries"}, each entry a [real, sqrt(-d)] pair of
        fraction strings "p/q"."""

        def s(x: int) -> str:
            g = math.gcd(x, self.D)
            return f"{x // g}/{self.D // g}"

        rows = [[[s(x), s(y)] for x, y in zip(*xy)] for xy in zip(self.X, self.Y)]
        return json.dumps({"d": self.d, "m": self.m, "entries": rows})


@dataclass(frozen=True)
class HermitianDiagForm:
    """Diagonal Hermitian form with positive rational entries b_1..b_m."""

    diag: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "diag", tuple(_frac(b) for b in self.diag))
        if not self.diag or any(b <= 0 for b in self.diag):
            raise ValueError("diagonal entries must be positive rationals")

    @property
    def m(self) -> int:
        return len(self.diag)

    def matrix(self, d: int) -> QuadMatrix:
        return QuadMatrix.diagonal(self.diag, d)


# ---------------------------------------------------------------------------
# Group membership identities, exact and floating
# ---------------------------------------------------------------------------


def _pullback(M: QuadMatrix, H: QuadMatrix) -> QuadMatrix:
    """tM H conj(M), the form H pulled back along M."""
    M._check(H)
    P = _wmul(*_wmul(M.X.T, M.Y.T, H.X, H.Y, M.d), M.X, -M.Y, M.d)
    return QuadMatrix._reduced(*P, M.D * M.D * H.D, M.d)


def in_unitary_group(M: QuadMatrix, H: QuadMatrix) -> bool:
    """tM H conj(M) == H, compared in reduced integer form."""
    return _pullback(M, H) == H


def skew_defect(S: QuadMatrix, B: HermitianDiagForm) -> QuadMatrix:
    """tS B + B conj(S); zero characterizes the Cayley image of U(B)."""
    Bm = B.matrix(S.d)
    return (S.transpose() @ Bm) + (Bm @ S.conj())


def in_cayley_image(S: QuadMatrix, B: HermitianDiagForm) -> bool:
    return skew_defect(S, B).is_zero()


def unitary_defect_float(M: np.ndarray, B: HermitianDiagForm) -> float:
    Bm = np.diag([float(b) for b in B.diag])
    return float(np.max(np.abs(M.T @ Bm @ M.conj() - Bm)))


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------


def cayley(N):
    """2(I+N)^{-1} - I, an involution; accepts complex arrays or QuadMatrix.

    Raises on singular I + N.
    """
    if isinstance(N, QuadMatrix):
        eye = np.eye(N.m, dtype=object)
        # I + N = (X + D I + Y w)/D; then 2 (I + N)^{-1} - I over the
        # inverse's denominator Di
        Xi, Yi, Di = _inverse_ints(N.X + N.D * eye, N.Y, N.D, N.d)
        return QuadMatrix._reduced(2 * Xi - Di * eye, 2 * Yi, Di, N.d)
    A = np.asarray(N, dtype=complex)
    eye = np.eye(A.shape[0], dtype=complex)
    if abs(np.linalg.det(eye + A)) < 1e-14:
        raise ZeroDivisionError("singular I + N")
    return 2.0 * np.linalg.inv(eye + A) - eye


def constraint_fill(
    x_upper: dict[tuple[int, int], RationalLike],
    y_upper: dict[tuple[int, int], RationalLike],
    B: HermitianDiagForm,
    d: int,
) -> QuadMatrix:
    """Assemble S = X + Y sqrt(-d) with tS B = -B conj(S) from free data.

    Free data: x_upper and y_upper on positions j > i, plus y_upper on the
    diagonal.  The identity forces x_ji = -(b_ii/b_jj) x_ij,
    y_ji = (b_ii/b_jj) y_ij, and x_ii = 0, so a key anywhere else raises.
    """
    m = B.m
    for name, data, lo in (("x_upper", x_upper, 1), ("y_upper", y_upper, 0)):
        for i, j in data:
            if not (0 <= i and i + lo <= j < m):
                need = "i < j" if lo else "i <= j"
                raise ValueError(f"{name} key {(i, j)} is not free: need 0 <= {need} < {m}")
    check_field(d)
    x = {ij: _frac(v) for ij, v in x_upper.items()}
    y = {ij: _frac(v) for ij, v in y_upper.items()}
    D = math.lcm(*(f.denominator for f in (*x.values(), *y.values())))

    def over_D(data: dict) -> dict:
        return {ij: f.numerator * (D // f.denominator) for ij, f in data.items()}

    return _filled(over_D(x), over_D(y), D, B, d)


def _filled(
    x: dict[tuple[int, int], int], y: dict[tuple[int, int], int], D: int,
    B: HermitianDiagForm, d: int,
) -> QuadMatrix:
    """constraint_fill of the free data x/D and y/D, for integer x and y
    at free positions only."""
    m = B.m
    # b_i = c_i / C over the least common denominator C, so b_i / b_j =
    # c_i / c_j, and L = lcm(c) clears every such denominator
    C = math.lcm(*(b.denominator for b in B.diag))
    c = [b.numerator * (C // b.denominator) for b in B.diag]
    L = math.lcm(*c)
    X, Y = [[0] * m for _ in range(m)], [[0] * m for _ in range(m)]
    for i in range(m):
        Y[i][i] = L * y.get((i, i), 0)
        for j in range(i + 1, m):
            xij, yij = x.get((i, j), 0), y.get((i, j), 0)
            ratio = c[i] * (L // c[j])
            X[i][j], Y[i][j] = L * xij, L * yij
            X[j][i], Y[j][i] = -ratio * xij, ratio * yij
    return QuadMatrix._reduced(np.array(X, dtype=object), np.array(Y, dtype=object), D * L, d)


class ApproximationError(RuntimeError):
    """Requested eps not reached on the grids tried; the signs keep |det(I + DM)| >= 1."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


def _grid_round(v: float, k: int) -> int:
    """round(Fraction(v) * 2**k), half to even, in integers: v = p / 2^e
    exactly, so v 2^k is p shifted by k - e."""
    p, q = v.as_integer_ratio()
    shift = q.bit_length() - 1 - k
    if shift <= 0:
        return p << -shift
    n, r = divmod(p, 1 << shift)
    half = 1 << (shift - 1)
    return n + (r > half or (r == half and n & 1))


def _signature(M: np.ndarray) -> np.ndarray:
    """Signs s = +-1 with |det(I + diag(s) M)| >= 1 up to rounding.  The
    det is affine in each s_i, which scales row i of M, so with the later
    s at 0 it is the mean of s_i = +-1; from det I = 1, keep the larger."""
    eye, s = np.eye(len(M)), np.zeros(len(M), dtype=int)
    for i in range(len(M)):
        trials = [np.where(np.arange(len(M)) == i, v, s) for v in (1, -1)]
        s = max(trials, key=lambda t: abs(np.linalg.det(eye + t[:, None] * M)))
    return s


def approximate_in_Ul(
    M: np.ndarray, B: HermitianDiagForm, d: int, eps: float
) -> QuadMatrix:
    """Exactly B-unitary matrix over Q(sqrt(-d)) within eps of M.

    M must be finite and preserve B within 1e-10.  Route: the signature
    matrix D = I, or diag(_signature(M)) where |det(I + M)| < 1e-6, keeps
    |det(I + DM)| >= 1; round the free entries of Re S and Im S / sqrt(d),
    S = cayley(DM), to the grid 2^-k with the least k >= 0 such that
    2^-k <= eps/(10 m^2), rebuild an exact constraint solution A and
    return D A.  D is exact and B-unitary with D^2 = I, so D A is exactly
    B-unitary, as close to M as A is to DM, and re-verified; the eps bound
    is checked numerically and the grid is refined (k += 4) until it holds.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    M = np.asarray(M, dtype=complex)
    m = B.m
    if M.shape != (m, m):
        raise ValueError("matrix and form sizes disagree")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    pre = unitary_defect_float(M, B)
    if pre > 1e-10:
        raise ValueError(f"input does not preserve B: defect {pre:.3e}")

    singular = abs(np.linalg.det(np.eye(m) + M)) < 1e-6
    signs = _signature(M) if singular else np.ones(m, dtype=int)
    S = cayley(signs[:, None] * M)
    # the free coordinates: Re S_ij for i < j, Im S_ij / sqrt(d) for i <= j
    free_x = {(i, j): S[i, j].real for i in range(m) for j in range(i + 1, m)}
    free_y = {(i, j): S[i, j].imag / math.sqrt(d) for i in range(m) for j in range(i, m)}

    # least k >= 0 with 2^-k <= eps/(10 m^2), in integers from eps = p/q:
    # 2^k >= 10 m^2 q/p, so nothing divides by an underflowed tolerance
    e = Fraction(eps)
    k = ((10 * m * m * e.denominator - 1) // e.numerator).bit_length()
    achieved = math.inf
    for _ in range(6):
        x_upper = {ij: _grid_round(v, k) for ij, v in free_x.items()}
        y_upper = {ij: _grid_round(v, k) for ij, v in free_y.items()}
        S_exact = _filled(x_upper, y_upper, 1 << k, B, d)
        # tS B = -B conj(S) with B positive diagonal makes B^(1/2) S B^(-1/2)
        # skew-Hermitian, so S has imaginary eigenvalues and I + S is invertible
        A = cayley(S_exact)
        M_exact = QuadMatrix._reduced(signs[:, None] * A.X, signs[:, None] * A.Y, A.D, d)
        if not in_unitary_group(M_exact, B.matrix(d)):
            raise AssertionError("constraint solution lost exact unitarity")
        achieved = float(np.max(np.abs(M_exact.to_complex() - M)))
        if achieved <= eps:
            return M_exact
        k += 4
    msg = f"could not reach eps = {eps:.3e} (achieved {achieved:.3e})"
    raise ApproximationError(msg, achieved)


# ---------------------------------------------------------------------------
# Fixed vectors of unipotent isometries
# ---------------------------------------------------------------------------


def _rref_kernel(A: QuadMatrix) -> list[list[QuadElem]]:
    """Exact kernel basis of A over Q(sqrt(-d))."""
    m, d = A.m, A.d
    X, Y = A.X.tolist(), A.Y.tolist()
    pivots, (px, py) = _gauss_jordan(X, Y, d, m)
    norm = px * px + d * py * py
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        vec = [qzero(d) for _ in range(m)]
        vec[fc] = qone(d)
        # the reduced rows are (X + Y w)/p; the pivot coordinates are minus column fc
        for pc, rx, ry in zip(pivots, X, Y):
            kx, ky = _times_conj(-rx[fc], -ry[fc], px, py, d)
            vec[pc] = QuadElem(Fraction(kx, norm), Fraction(ky, norm), d)
        basis.append(vec)
    return basis


def form_value(H: QuadMatrix, u: Sequence[QuadElem], v: Sequence[QuadElem]) -> QuadElem:
    """H(u, v) = tu H conj(v), linear in the first argument."""
    ux, uy, uD = _vector(u, H.m, H.d)
    vx, vy, vD = _vector(v, H.m, H.d)
    x, y = _wmul(ux, uy, *_wmul(H.X, H.Y, vx, -vy, H.d), H.d)
    return QuadElem(Fraction(x, uD * H.D * vD), Fraction(y, uD * H.D * vD), H.d)


def unipotent_fixed_vector(
    M: QuadMatrix, H: QuadMatrix
) -> list[QuadElem]:
    """Exact fixed vector v of M with H(v, v) <= 0.

    Computes ker(M - I) exactly, then runs Gram-Schmidt with respect to H
    on the kernel, returning as soon as a vector of nonpositive H-square
    appears.  For a unipotent isometry of a signature (n,1) form the
    kernel meets the nonpositive cone, so the search succeeds; if every
    kernel direction has positive H-square the input was not
    unipotent-parabolic and a ValueError is raised.
    """
    if M.m != H.m or M.d != H.d:
        raise ValueError("matrix and form sizes disagree")
    kernel = _rref_kernel(M - QuadMatrix.identity(M.m, M.d))
    if not kernel:
        raise ValueError("no fixed vectors: kernel of M - I is trivial")
    ortho: list[tuple[list[QuadElem], QuadElem]] = []
    for w in kernel:
        for prev, prev_sq in ortho:
            coef = form_value(H, w, prev) * prev_sq.inv()
            w = [w[i] - coef * prev[i] for i in range(len(w))]
        if all(e.is_zero() for e in w):
            continue
        sq = form_value(H, w, w)
        if not sq.is_rational():
            raise AssertionError("Hermitian square must be rational")
        if sq.a <= 0:
            return w
        ortho.append((w, sq))
    raise ValueError("kernel of M - I is H-positive: not unipotent-parabolic")


def root_of_unity_power(M: QuadMatrix, x: Sequence[QuadElem]) -> int:
    """Smallest k with M^k x = x, for an exact eigenvector x of M.

    The eigenvalue is read off from the first nonzero coordinate and
    verified on all of x.  Eigenvalues of isometries defined over the
    ring of integers are roots of unity; the search bound 6m, for an
    m x m matrix, covers the possible orders with room to spare.  Raises
    if x is not an eigenvector or no power works within the bound.
    """
    vals = M.apply(list(x))
    lead = next((i for i, e in enumerate(x) if not e.is_zero()), None)
    if lead is None:
        raise ValueError("zero vector")
    alpha = vals[lead] / x[lead]
    for i in range(M.m):
        if vals[i] != alpha * x[i]:
            raise ValueError("not an eigenvector of M")
    k_max = 6 * M.m
    power = qone(M.d)
    for k in range(1, k_max + 1):
        power = power * alpha
        if power == qone(M.d):
            return k
    raise ValueError(f"eigenvalue is not a root of unity of order <= {k_max}")


def order_from_trace(alpha: QuadElem) -> int:
    """Order of a root of unity alpha, a root of x^2 - 2a x + 1 (norm 1)
    with integral trace 2a = 2, -2, 0, -1, 1 for the orders 1, 2, 4, 3, 6;
    raises for any other alpha, such as 3/5 + 4/5 i of norm 1."""
    orders = {2: 1, -2: 2, 0: 4, -1: 3, 1: 6}
    if alpha.norm() != 1 or 2 * alpha.a not in orders:
        raise ValueError(f"{alpha!r} is not a root of unity")
    return orders[2 * alpha.a]


# ---------------------------------------------------------------------------
# Exact Heisenberg isometries and the polarized form
# ---------------------------------------------------------------------------


def polarized_form_matrix(n: int, d: int) -> QuadMatrix:
    """Matrix of 2 Re(a conj(b)) + |v|^2 in the basis with two null vectors."""
    if n < 1:
        raise ValueError("n must be at least 1")
    H = QuadMatrix.diagonal([0, 0] + [1] * (n - 1), d).entries.copy()
    H[0, 1] = H[1, 0] = qone(d)
    return QuadMatrix(H)


def heisenberg_matrix_exact(
    q: RationalLike, v: Sequence[QuadElem], d: int
) -> QuadMatrix:
    """Exact matrix of the Heisenberg translation with center part q*sqrt(d).

    The vertical parameter s = q sqrt(d) makes -i s = -q sqrt(-d) an
    element of the field; v may be any vector over Q(sqrt(-d)).
    """
    qf = _frac(q)
    v = list(v)
    _vector(v, len(v), d)  # type and field of v, before e.norm() below
    n = len(v) + 1
    M = QuadMatrix.identity(n + 1, d).entries.copy()
    nrm = sum((e.norm() for e in v), Fraction(0))
    M[0, 1] = QuadElem(-nrm / 2, -qf, d)
    for j, e in enumerate(v):
        M[0, 2 + j] = -e.conj()
        M[2 + j, 1] = e
    return QuadMatrix(M)
