"""Tests for exact arithmetic over Q(sqrt(-d)) and the Cayley density route."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.qfield_cayley import (
    ApproximationError,
    HermitianDiagForm,
    QuadElem,
    QuadMatrix,
    approximate_in_Ul,
    cayley,
    constraint_fill,
    form_value,
    heisenberg_matrix_exact,
    in_cayley_image,
    in_unitary_group,
    order_from_trace,
    polarized_form_matrix,
    qone,
    qomega,
    qzero,
    root_of_unity_power,
    skew_defect,
    unipotent_fixed_vector,
    unitary_defect_float,
)
from cuspforge.qfield_cayley import (
    _grid_round,
    _is_squarefree,
    _pullback,
    _rref_kernel,
    _signature,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


def qe(a, b, d=1):
    return QuadElem(Fraction(a), Fraction(b), d)


def with_entries(A, changes):
    """A copy of A with the entries at the given positions replaced; the
    entries view is read-only, so the grid is edited before constructing."""
    grid = A.entries.copy()
    for ij, e in changes.items():
        grid[ij] = e
    return QuadMatrix(grid)


def by_square_divisors(d):
    ok = d >= 1
    k = 2
    while ok and k * k <= d:
        if d % (k * k) == 0:
            ok = False
        k += 1
    return ok


def random_skew(rng, B, d, denom=7):
    x_upper = {}
    y_upper = {}
    m = B.m
    for i in range(m):
        y_upper[(i, i)] = Fraction(int(rng.integers(-3, 4)), denom)
        for j in range(i + 1, m):
            x_upper[(i, j)] = Fraction(int(rng.integers(-3, 4)), denom)
            y_upper[(i, j)] = Fraction(int(rng.integers(-3, 4)), denom)
    return constraint_fill(x_upper, y_upper, B, d)


class TestQuadElem:
    @settings(max_examples=60)
    @given(rationals, rationals, rationals, rationals)
    def test_norm_multiplicative(self, a, b, c, e):
        d = 3
        x, y = QuadElem(a, b, d), QuadElem(c, e, d)
        assert (x * y).norm() == x.norm() * y.norm()

    @settings(max_examples=60)
    @given(rationals, rationals, rationals, rationals, rationals, rationals)
    def test_ring_axioms(self, a, b, c, e, f, g):
        d = 2
        x, y, z = QuadElem(a, b, d), QuadElem(c, e, d), QuadElem(f, g, d)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x

    @settings(max_examples=40)
    @given(rationals, rationals)
    def test_inverse(self, a, b):
        x = QuadElem(a, b, 7)
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inv()
        else:
            assert x * x.inv() == qone(7)

    def test_conj_is_involution_and_multiplicative(self):
        x, y = qe(2, 3, 5), qe(-1, Fraction(1, 2), 5)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert x * x.conj() == QuadElem(x.norm(), Fraction(0), 5)

    def test_omega_squares_to_minus_d(self):
        for d in (1, 2, 3, 7, 11):
            w = qomega(d)
            assert w * w == QuadElem(Fraction(-d), Fraction(0), d)

    def test_squarefree_validation(self):
        for bad in (4, 8, 9, 12, 0, -1):
            with pytest.raises(ValueError):
                QuadElem(Fraction(1), Fraction(0), bad)

    def test_squarefree_matches_trial_division(self):
        for d in range(-3, 20000):
            assert _is_squarefree(d) == by_square_divisors(d), d
        assert not _is_squarefree(1000003**2)
        assert _is_squarefree(999983 * 1000003)
        assert not _is_squarefree(7 * (10**6 + 3) ** 2)

    def test_squarefree_cache_is_bounded(self):
        _is_squarefree.cache_clear()
        for d in range(1, 5000):
            assert _is_squarefree(d) == by_square_divisors(d), d
        info = _is_squarefree.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize < 4999
        # the most recent field is a cache hit and still answers right
        assert _is_squarefree(4998) == by_square_divisors(4998)
        assert _is_squarefree.cache_info().hits == info.hits + 1

    def test_mixed_discriminants_rejected(self):
        with pytest.raises(ValueError, match="discriminant|mixed|field"):
            qe(1, 0, 1) + qe(1, 0, 3)

    def test_integrality_half_integers(self):
        # d = 3 mod 4: (1 + sqrt(-3))/2 is an algebraic integer
        assert QuadElem(Fraction(1, 2), Fraction(1, 2), 3).is_integral()
        assert not QuadElem(Fraction(1, 2), Fraction(1, 2), 1).is_integral()
        assert not QuadElem(Fraction(1, 2), Fraction(0), 3).is_integral()
        assert QuadElem(Fraction(4), Fraction(-2), 1).is_integral()

    def test_to_complex(self):
        z = qe(1, 2, 4 - 1).to_complex()
        assert z == pytest.approx(1 + 2j * np.sqrt(3))

    def test_division(self):
        x, y = qe(3, 1, 2), qe(1, -1, 2)
        assert (x / y) * y == x


class TestQuadMatrix:
    def test_inverse_exact(self, rng):
        d = 3
        for _ in range(10):
            grid = QuadMatrix.identity(3, d).entries.copy()
            for i in range(3):
                for j in range(3):
                    grid[i][j] = grid[i][j] + QuadElem(
                        Fraction(int(rng.integers(-2, 3)), 3),
                        Fraction(int(rng.integers(-2, 3)), 5),
                        d,
                    )
            M = QuadMatrix(grid)
            try:
                Minv = M.inverse()
            except ZeroDivisionError:
                continue
            assert (M @ Minv) == QuadMatrix.identity(3, d)

    def test_non_quad_entries_rejected(self):
        with pytest.raises(TypeError, match=r"entry 1 at \(0, 0\) is not a QuadElem"):
            QuadMatrix([[1, 0], [0, 1]])
        with pytest.raises(TypeError, match=r"entry Fraction\(1, 2\) at \(1, 0\)"):
            QuadMatrix([[qone(1), qzero(1)], [Fraction(1, 2), qone(1)]])
        A = QuadMatrix.identity(2, 1)
        with pytest.raises(TypeError, match="entry 0 at 1 is not a QuadElem"):
            A.apply([qone(1), 0])
        with pytest.raises(ValueError, match="mixed fields"):
            A.apply([qone(1), qone(3)])

    def test_one_check_for_every_entry_point(self):
        # constructor, scale, apply, form_value and heisenberg_matrix_exact
        # share one check: the first bad entry in row-major order is named
        with pytest.raises(ValueError, match=r"mixed fields: d = 1 vs 3"):
            QuadMatrix([[qone(1), qone(3)], [0, qone(1)]])
        with pytest.raises(TypeError, match=r"entry 0 at \(1, 0\)"):
            QuadMatrix([[qone(1), qone(1)], [0, qone(3)]])
        A = QuadMatrix.identity(2, 1)
        with pytest.raises(ValueError, match=r"mixed fields: d = 1 vs 3"):
            A.scale(qone(3))
        with pytest.raises(TypeError, match="entry 0.5 at 1 is not a QuadElem"):
            form_value(A, [qone(1), qone(1)], [qone(1), 0.5])
        with pytest.raises(TypeError, match="entry 1 at 0 is not a QuadElem"):
            heisenberg_matrix_exact(Fraction(1, 2), [1], 1)
        with pytest.raises(ValueError, match=r"mixed fields: d = 1 vs 7"):
            heisenberg_matrix_exact(Fraction(1, 2), [qone(1), qomega(7)], 1)

    def test_invalid_field_rejected(self):
        for build in (lambda: QuadMatrix.identity(2, 4), lambda: polarized_form_matrix(2, 8)):
            with pytest.raises(ValueError, match="squarefree"):
                build()

    def test_singular_matrix_raises(self):
        with pytest.raises(ZeroDivisionError, match="singular"):
            QuadMatrix.diagonal([0, 0], 1).inverse()

    def test_transpose_conj_interact(self):
        A = with_entries(QuadMatrix.identity(2, 1), {(0, 1): qe(1, 1, 1)})
        assert A.conj().transpose() == A.transpose().conj()

    def test_apply_matches_matmul(self):
        A = with_entries(QuadMatrix.identity(2, 1), {(0, 1): qe(2, -1, 1)})
        v = [qe(1, 0, 1), qe(0, 1, 1)]
        out = A.apply(v)
        assert out[0] == v[0] + qe(2, -1, 1) * v[1]
        assert out[1] == v[1]

    def test_json_round_trip(self):
        A = with_entries(
            QuadMatrix.identity(2, 3), {(0, 1): QuadElem(Fraction(2, 7), Fraction(-1, 3), 3)}
        )
        data = json.loads(A.to_json())
        assert data["d"] == 3
        assert data["m"] == 2
        # every serialized coefficient is an explicit fraction string
        for row in data["entries"]:
            for pair in row:
                assert all("/" in c for c in pair)
        back = QuadMatrix(
            [[QuadElem(Fraction(x), Fraction(y), 3) for x, y in row] for row in data["entries"]]
        )
        assert back == A

    def test_to_complex_matches_entries(self):
        A = with_entries(QuadMatrix.identity(2, 1), {(1, 0): qe(0, 2, 1)})
        C = A.to_complex()
        assert C[1, 0] == pytest.approx(2j)
        assert C[0, 0] == 1.0


# Reference copies of the elimination loops that QuadMatrix.inverse and
# _rref_kernel each carried before they shared one Gauss-Jordan routine; exact arithmetic means the results must be equal.


def ref_inverse(A):
    m, d = A.m, A.d
    work = [list(r) for r in A.entries]
    aug = [[qone(d) if i == j else qzero(d) for j in range(m)] for i in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if not work[r][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        aug[col], aug[piv] = aug[piv], aug[col]
        pinv = work[col][col].inv()
        work[col] = [pinv * e for e in work[col]]
        aug[col] = [pinv * e for e in aug[col]]
        for r in range(m):
            if r == col or work[r][col].is_zero():
                continue
            factor = work[r][col]
            work[r] = [work[r][j] - factor * work[col][j] for j in range(m)]
            aug[r] = [aug[r][j] - factor * aug[col][j] for j in range(m)]
    return QuadMatrix(aug)


def ref_kernel(A):
    m, d = A.m, A.d
    work = [list(r) for r in A.entries]
    pivots = []
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, m) if not work[r][col].is_zero()), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        pinv = work[row][col].inv()
        work[row] = [pinv * e for e in work[row]]
        for r in range(m):
            if r == row or work[r][col].is_zero():
                continue
            factor = work[r][col]
            work[r] = [work[r][j] - factor * work[row][j] for j in range(m)]
        pivots.append(col)
        row += 1
        if row == m:
            break
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        vec = [qzero(d) for _ in range(m)]
        vec[fc] = qone(d)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def random_quad_elem(rng, d, zero_prob):
    if rng.random() < zero_prob:
        return qzero(d)
    return QuadElem(
        Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 6))),
        Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 6))),
        d,
    )


def random_quad_matrix(rng, m, d, zero_prob=0.3):
    return QuadMatrix(
        [[random_quad_elem(rng, d, zero_prob) for _ in range(m)] for _ in range(m)]
    )


def half_integer_matrix(rng, m, d):
    """Entries (a + b sqrt(-d))/2 with a = b mod 2, such as (1 + sqrt(-3))/2:
    algebraic integers when d = 3 mod 4, with common denominator 2."""
    rows = []
    for _ in range(m):
        a = rng.integers(-4, 5, m)
        b = a % 2 + 2 * rng.integers(-2, 2, m)
        rows.append(
            [QuadElem(Fraction(int(x), 2), Fraction(int(y), 2), d) for x, y in zip(a, b)]
        )
    return QuadMatrix(rows)


def generic_approximant(rng, m, d, eps=1e-9):
    """Exact approximant of a generic unitary: scaling an exact skew matrix
    by sqrt(2) keeps its constraints and makes its entries irrational, so
    the rationalized entries have denominators near 1/eps, and the Cayley
    transform multiplies them together."""
    B = HermitianDiagForm(tuple(range(1, m + 1)))
    S = np.sqrt(2.0) * random_skew(rng, B, d).to_complex()
    return approximate_in_Ul(cayley(S), B, d, eps), B


def max_denominator(A):
    return max(c.denominator for e in A.entries.flat for c in (e.a, e.b))


def elimination_cases(rng):
    """(d, matrix) pairs: generic, swap-forcing, rank-deficient, M - I,
    half-integer and large-denominator."""
    for d in (1, 2, 3, 7):
        for m in range(1, 6):
            yield d, QuadMatrix.diagonal([0] * m, d)
            yield d, QuadMatrix.identity(m, d)
            for _ in range(3):
                yield d, random_quad_matrix(rng, m, d)
                # a zero leading entry forces a row swap whenever column 0
                # has a nonzero entry lower down
                A = random_quad_matrix(rng, m, d, zero_prob=0.0)
                yield d, with_entries(A, {(0, 0): qzero(d)})
                # P D Q with zeros on D: rank at most the nonzeros of D
                diag = [int(rng.integers(0, 3)) * int(rng.integers(0, 2)) for _ in range(m)]
                P = random_quad_matrix(rng, m, d, zero_prob=0.0)
                Q = random_quad_matrix(rng, m, d, zero_prob=0.0)
                yield d, P @ QuadMatrix.diagonal(diag, d) @ Q
            if m >= 2:
                for _ in range(2):
                    v = [random_quad_elem(rng, d, 0.2) for _ in range(m - 2)]
                    q = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 8)))
                    M = heisenberg_matrix_exact(q, v, d)
                    yield d, M - QuadMatrix.identity(m, d)
    for d in (3, 7):
        for m in range(1, 6):
            yield d, half_integer_matrix(rng, m, d)
            A = half_integer_matrix(rng, m, d)
            yield d, with_entries(A, {(0, 0): qzero(d)})
            P, Q = half_integer_matrix(rng, m, d), half_integer_matrix(rng, m, d)
            yield d, P @ QuadMatrix.diagonal([1] * (m - 1) + [0], d) @ Q
    for d in (1, 2, 3, 7):
        for m in (2, 3):
            A, _ = generic_approximant(rng, m, d)
            yield d, A
            # rank m - 1 with the same large denominators
            yield d, A @ QuadMatrix.diagonal([0] + [1] * (m - 1), d)


class TestGaussJordan:
    def test_matches_reference_loops(self):
        rng = np.random.default_rng(4)
        invertible = singular = needs_swap = 0
        for d, A in elimination_cases(rng):
            m = A.m
            col0 = [A[r, 0].is_zero() for r in range(m)]
            needs_swap += col0[0] and not all(col0)
            try:
                expected = ref_inverse(A)
            except ZeroDivisionError:
                singular += 1
                with pytest.raises(ZeroDivisionError, match="singular"):
                    A.inverse()
            else:
                invertible += 1
                assert A.inverse() == expected
            kernel = _rref_kernel(A)
            assert kernel == ref_kernel(A)
            assert len(kernel) == m - np.linalg.matrix_rank(A.to_complex())
            for vec in kernel:
                assert all(e.is_zero() for e in A.apply(vec))
        assert min(invertible, singular, needs_swap) > 50


# Reference copies of the list-based loops QuadMatrix carried before it
# stored an integer form; each returns a list of rows.  The entries view
# is rebuilt on every access, so each reads it once.


def ref_add(A, B):
    a, b = A.entries, B.entries
    return [[a[i][j] + b[i][j] for j in range(A.m)] for i in range(A.m)]


def ref_sub(A, B):
    a, b = A.entries, B.entries
    return [[a[i][j] - b[i][j] for j in range(A.m)] for i in range(A.m)]


def ref_scale(A, c):
    cc = c if isinstance(c, QuadElem) else QuadElem(Fraction(c), Fraction(0), A.d)
    a = A.entries
    return [[cc * a[i][j] for j in range(A.m)] for i in range(A.m)]


def ref_matmul(A, B):
    m, d = A.m, A.d
    a, b = A.entries, B.entries
    out = [[qzero(d) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            acc = qzero(d)
            for k in range(m):
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def ref_transpose(A):
    a = A.entries
    return [[a[j][i] for j in range(A.m)] for i in range(A.m)]


def ref_conj(A):
    a = A.entries
    return [[a[i][j].conj() for j in range(A.m)] for i in range(A.m)]


def ref_apply(A, vec):
    a = A.entries
    return [sum((a[i][k] * vec[k] for k in range(A.m)), qzero(A.d)) for i in range(A.m)]


def rows_of(A):
    return [list(r) for r in A.entries]


def is_quad_list(v):
    return type(v) is list and all(type(e) is QuadElem for e in v)


class TestObjectArrayEntries:
    def test_matches_list_reference(self):
        rng = np.random.default_rng(5)
        previous = {}
        fields = set()
        for d, A in elimination_cases(rng):
            # binary operations pair A with the previous case of its field and size
            B = previous.setdefault((d, A.m), A)
            previous[d, A.m] = A
            fields.add(d)
            c = random_quad_elem(rng, d, 0.2)
            v = [random_quad_elem(rng, d, 0.2) for _ in range(A.m)]
            assert rows_of(A + B) == ref_add(A, B)
            assert rows_of(A - B) == ref_sub(A, B)
            assert rows_of(A.scale(c)) == ref_scale(A, c)
            assert rows_of(A.scale(-3)) == ref_scale(A, -3)
            assert rows_of(A @ B) == ref_matmul(A, B)
            assert rows_of(A.transpose()) == ref_transpose(A)
            assert rows_of(A.conj()) == ref_conj(A)
            out = A.apply(v)
            assert is_quad_list(out) and out == ref_apply(A, v)
            assert (A == B) == (rows_of(A) == rows_of(B))
            assert A == QuadMatrix(rows_of(A))
        assert fields == {1, 2, 3, 7}

    def test_entries_are_read_only(self):
        # an in-place write raises instead of being lost on the next access
        A = QuadMatrix.identity(3, 2)
        with pytest.raises(ValueError, match="read-only"):
            A.entries[0][1] = qone(2)
        with pytest.raises(ValueError, match="read-only"):
            A.entries[0, 1] = qone(2)
        assert A == QuadMatrix.identity(3, 2)

    def test_results_are_fresh_arrays(self):
        # results never alias their operands' integer arrays
        A = with_entries(QuadMatrix.identity(3, 2), {(0, 1): qe(1, 1, 2)})
        Z, I = QuadMatrix.diagonal([0, 0, 0], 2), QuadMatrix.identity(3, 2)
        for out in (
            A.transpose(), A.conj(), A + Z, A - Z, A.scale(1), A @ I, I @ A, A.inverse(),
        ):
            for res in (out.X, out.Y):
                for operand in (A.X, A.Y, Z.X, Z.Y, I.X, I.Y):
                    assert not np.shares_memory(res, operand)

    def test_results_are_reduced(self):
        # the stored form is canonical: D > 0 and gcd(D, X, Y) = 1, the
        # same form that converting the entry grid produces
        def assert_reduced(M):
            assert M.D > 0 and math.gcd(M.D, *M.X.flat, *M.Y.flat) == 1
            back = QuadMatrix(rows_of(M))
            assert back.D == M.D
            assert np.array_equal(back.X, M.X) and np.array_equal(back.Y, M.Y)

        rng = np.random.default_rng(6)
        previous = {}
        for d, A in elimination_cases(rng):
            B = previous.setdefault((d, A.m), A)
            previous[d, A.m] = A
            I = QuadMatrix.identity(A.m, d)
            results = [A, A + B, A - B, A - A, A.scale(random_quad_elem(rng, d, 0.2)),
                       A.scale(0), A @ B, A.transpose(), A.conj(), _pullback(A, I) - I]
            for op in (A.inverse, lambda: cayley(A)):
                try:
                    results.append(op())
                except ZeroDivisionError:
                    pass
            for M in results:
                assert_reduced(M)

    def test_vectors_stay_lists(self):
        d = 3
        H = polarized_form_matrix(3, d)
        v = [qe(2, 1, d), QuadElem(Fraction(1, 2), Fraction(1, 2), d)]
        M = heisenberg_matrix_exact(Fraction(5, 7), v, d)
        kernel = _rref_kernel(M - QuadMatrix.identity(4, d))
        assert type(kernel) is list and kernel and all(is_quad_list(v) for v in kernel)
        w = unipotent_fixed_vector(M, H)
        assert is_quad_list(w)
        assert is_quad_list(M.apply(w)) and M.apply(w) == w


class TestCayleyTransform:
    def test_involution_exact(self, rng):
        B = HermitianDiagForm((1, 2, 3))
        S = random_skew(rng, B, d=3)
        M = cayley(S)
        assert cayley(M) == S

    def test_skew_input_gives_unitary_output(self, rng):
        for d in (1, 2, 3, 7):
            B = HermitianDiagForm((1, 1, 2))
            S = random_skew(rng, B, d)
            assert in_cayley_image(S, B)
            M = cayley(S)
            assert in_unitary_group(M, B.matrix(d))

    def test_float_path_matches_exact_path(self, rng):
        B = HermitianDiagForm((1, 2))
        S = random_skew(rng, B, d=1)
        M = cayley(S)
        np.testing.assert_allclose(
            cayley(S.to_complex()), M.to_complex(), atol=1e-12
        )

    def test_singular_float_input_raises(self):
        with pytest.raises(ZeroDivisionError):
            cayley(-np.eye(2, dtype=complex))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.sampled_from([1, 2, 3, 7]), st.integers(0, 60), st.data())
    def test_constraint_fill_is_never_singular(self, m, d, k, data):
        # tS B = -B conj(S) with B positive diagonal gives S imaginary
        # eigenvalues, so approximate_in_Ul needs no retry around cayley
        weights = st.fractions(min_value=Fraction(1, 40), max_value=Fraction(40), max_denominator=40)
        B = HermitianDiagForm(tuple(data.draw(weights) for _ in range(m)))
        dyadic = st.integers(-(2**62), 2**62).map(lambda a: Fraction(a, 2**k))
        x = {(i, j): data.draw(dyadic) for i in range(m) for j in range(i + 1, m)}
        y = {(i, j): data.draw(dyadic) for i in range(m) for j in range(i, m)}
        M = cayley(constraint_fill(x, y, B, d))
        assert in_unitary_group(M, B.matrix(d))


class TestConstraintFill:
    def test_defect_is_exactly_zero(self, rng):
        for d in (1, 3, 7):
            B = HermitianDiagForm((2, 5, 1))
            S = random_skew(rng, B, d)
            assert skew_defect(S, B).is_zero()

    def test_entry_relations(self):
        B = HermitianDiagForm((1, 2, 3))
        S = constraint_fill({(0, 2): Fraction(3, 4)}, {(1, 2): Fraction(1, 5)}, B, 1)
        # x_ji = -(b_ii / b_jj) x_ij and y_ji = +(b_ii / b_jj) y_ij
        assert S[(2, 0)] == QuadElem(Fraction(-1, 4), Fraction(0), 1)
        assert S[(2, 1)] == QuadElem(Fraction(0), Fraction(2, 15), 1)
        assert S[(0, 0)].is_zero()

    def test_diagonal_is_purely_imaginary(self):
        B = HermitianDiagForm((1, 1))
        S = constraint_fill({}, {(0, 0): Fraction(1, 2)}, B, 3)
        assert S[(0, 0)] == QuadElem(Fraction(0), Fraction(1, 2), 3)

    def test_data_off_the_free_positions_rejected(self):
        # x is free only above the diagonal, y on and above it; both within m
        B = HermitianDiagForm((1, 2))
        for x, y, key in (
            ({(1, 0): 1}, {}, r"x_upper key \(1, 0\)"),
            ({(0, 5): 1}, {}, r"x_upper key \(0, 5\)"),
            ({(0, 0): 1}, {}, r"x_upper key \(0, 0\)"),
            ({(-1, 1): 1}, {}, r"x_upper key \(-1, 1\)"),
            ({}, {(1, 0): 1}, r"y_upper key \(1, 0\)"),
            ({}, {(2, 2): 1}, r"y_upper key \(2, 2\)"),
        ):
            with pytest.raises(ValueError, match=key):
                constraint_fill(x, y, B, 1)


# References for the integer forms built without a Fraction or QuadElem per
# entry: the Fraction formulas they replaced.


def fraction_json(A):
    def s(x):
        f = Fraction(x, A.D)
        return f"{f.numerator}/{f.denominator}"

    rows = [[[s(x), s(y)] for x, y in zip(*xy)] for xy in zip(A.X, A.Y)]
    return json.dumps({"d": A.d, "m": A.m, "entries": rows})


def fraction_fill(x_upper, y_upper, B, d):
    m = B.m
    grid = [[qzero(d) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        grid[i][i] = QuadElem(Fraction(0), Fraction(y_upper.get((i, i), 0)), d)
        for j in range(i + 1, m):
            x, y = Fraction(x_upper.get((i, j), 0)), Fraction(y_upper.get((i, j), 0))
            ratio = B.diag[i] / B.diag[j]
            grid[i][j] = QuadElem(x, y, d)
            grid[j][i] = QuadElem(-ratio * x, ratio * y, d)
    return QuadMatrix(grid)


def _small_fraction(rng):
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13))) * int(rng.integers(0, 2))


class TestIntegerForms:
    @pytest.mark.parametrize(
        "v,k,expected",
        [
            (0.5, 0, 0), (1.5, 0, 2), (2.5, 0, 2), (-0.5, 0, 0), (-1.5, 0, -2), (-2.5, 0, -2),
            (0.25, 1, 0), (0.75, 1, 2), (-0.75, 1, -2), (2.0**-60 * 3, 59, 2), (2.0**-60 * 5, 59, 2),
            # subnormal: 5e-324 is 2^-1074
            (5e-324, 1073, 0), (3 * 5e-324, 1073, 2), (-3 * 5e-324, 1073, -2),
            (5e-324, 1100, 2**26), (1e-310, 1100, round(Fraction(1e-310) * 2**1100)),
        ],
    )
    def test_grid_round_ties_go_to_even(self, v, k, expected):
        assert _grid_round(v, k) == round(Fraction(v) * 2**k) == expected
        assert type(_grid_round(v, k)) is int

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=-1e-300, max_value=1e-300),
            st.integers(-(2**60), 2**60).map(lambda a: a / 2**40),
        ),
        st.integers(0, 1100),
    )
    def test_grid_round_matches_fraction_round(self, v, k):
        assert _grid_round(v, k) == round(Fraction(v) * 2**k)
        assert _grid_round(np.float64(v), k) == round(Fraction(v) * 2**k)

    def test_diagonal_matches_the_entry_grid(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3, 7):
            for m in range(1, 6):
                for _ in range(4):
                    diag = [_small_fraction(rng) for _ in range(m)]
                    grid = [[qzero(d)] * m for _ in range(m)]
                    for i, v in enumerate(diag):
                        grid[i][i] = QuadElem(v, Fraction(0), d)
                    A, ref = QuadMatrix.diagonal(diag, d), QuadMatrix(grid)
                    assert A == ref and A.D == ref.D
                    assert A.X.dtype == A.Y.dtype == object
                    assert np.array_equal(A.X, ref.X) and np.array_equal(A.Y, ref.Y)
            mixed = [3, "-2/7", Fraction(0)]
            assert QuadMatrix.diagonal(mixed, d) == QuadMatrix.diagonal([3, Fraction(-2, 7), 0], d)
            assert HermitianDiagForm((1, 2)).matrix(d) == QuadMatrix.diagonal([1, 2], d)
        for bad in (4, 8, 0):
            with pytest.raises(ValueError, match="squarefree"):
                QuadMatrix.diagonal([1, 2], bad)
        with pytest.raises(ValueError, match="square nonempty"):
            QuadMatrix.diagonal([], 1)

    def test_to_json_matches_the_fraction_strings(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 3, 7):
            cases = [QuadMatrix.diagonal([0, 0], d), QuadMatrix.identity(3, d).scale(-1)]
            cases += [random_quad_matrix(rng, m, d) for m in range(1, 6)]
            cases.append(generic_approximant(rng, 3, d)[0])
            for A in cases:
                assert A.to_json() == fraction_json(A)

    def test_constraint_fill_matches_the_fraction_assembly(self):
        rng = np.random.default_rng(10)
        for d in (1, 2, 3, 7):
            for m in range(1, 5):
                weights = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 7))) for _ in range(m)]
                B = HermitianDiagForm(tuple(weights))
                x = {(i, j): _small_fraction(rng) for i in range(m) for j in range(i + 1, m)}
                y = {(i, j): _small_fraction(rng) for i in range(m) for j in range(i, m)}
                S = constraint_fill(x, y, B, d)
                ref = fraction_fill(x, y, B, d)
                assert S == ref and S.D == ref.D


class TestApproximateInUl:
    def test_random_unitaries_approximated_exactly(self, rng):
        eps = 1e-6
        for d in (1, 2, 3, 7):
            B = HermitianDiagForm((1, 2))
            for _ in range(5):
                M = cayley(random_skew(rng, B, d)).to_complex()
                out = approximate_in_Ul(M, B, d, eps)
                assert in_unitary_group(out, B.matrix(d))
                assert float(np.max(np.abs(out.to_complex() - M))) <= eps

    def test_identity_is_reproduced(self):
        B = HermitianDiagForm((1, 1))
        out = approximate_in_Ul(np.eye(2, dtype=complex), B, 1, 1e-9)
        assert out == QuadMatrix.identity(2, 1)

    def test_minus_identity_is_reproduced(self):
        # I + M is singular; the signs D = -I give DM = I, whose Cayley
        # coordinates are 0, so D A is -I exactly
        B = HermitianDiagForm((1, 1))
        out = approximate_in_Ul(-np.eye(2, dtype=complex), B, 1, 1e-8)
        assert out == QuadMatrix.identity(2, 1).scale(-1)

    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    def test_eigenvalue_minus_one_reaches_tight_eps(self, eps):
        # I + M is singular; the signs clear it and leave no floor on the error
        B = HermitianDiagForm((1, 2))
        M = np.diag([-1.0, np.exp(0.3j)])
        out = approximate_in_Ul(M, B, 2, eps)
        assert in_unitary_group(out, B.matrix(2))
        assert float(np.max(np.abs(out.to_complex() - M))) <= eps

    def test_signs_clear_the_cayley_singular_set(self):
        # W unitary with eigenvalues +1 and -1, so neither I + M nor I - M
        # is invertible; M = C^-1 W C with C = B^(1/2) preserves B
        rng = np.random.default_rng(46)
        for trial in range(40):
            m = 2 + trial % 4
            b = rng.integers(1, 6, m)
            B = HermitianDiagForm(tuple(int(v) for v in b))
            Q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
            phases = np.exp(1j * rng.uniform(-np.pi, np.pi, m))
            phases[:2] = 1.0, -1.0
            c = np.sqrt(b)
            M = (Q * phases) @ Q.conj().T / c[:, None] * c
            eye = np.eye(m)
            assert abs(np.linalg.det(eye + M)) < 1e-12 and abs(np.linalg.det(eye - M)) < 1e-12
            s = _signature(M)
            assert set(s.tolist()) <= {1, -1}
            assert abs(np.linalg.det(eye + s[:, None] * M)) >= 1.0 - 1e-12
            if trial < 8:
                out = approximate_in_Ul(M, B, 7, 1e-9)
                assert in_unitary_group(out, B.matrix(7))
                assert float(np.max(np.abs(out.to_complex() - M))) <= 1e-9

    def test_non_unitary_input_rejected(self):
        B = HermitianDiagForm((1, 1))
        with pytest.raises(ValueError, match="does not preserve"):
            approximate_in_Ul(np.diag([2.0, 1.0]).astype(complex), B, 1, 1e-6)

    def test_non_finite_input_rejected(self):
        B = HermitianDiagForm((1, 1))
        for bad in (np.nan, np.inf, complex(0, -np.inf)):
            M = np.eye(2, dtype=complex)
            M[0, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                approximate_in_Ul(M, B, 1, 1e-6)
            M = np.eye(2, dtype=complex)
            M[1, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                approximate_in_Ul(M, B, 1, 1e-6)

    def test_size_mismatch_rejected(self):
        B = HermitianDiagForm((1, 1, 1))
        with pytest.raises(ValueError, match="sizes"):
            approximate_in_Ul(np.eye(2, dtype=complex), B, 1, 1e-6)
        for M in (np.complex128(1.0), np.eye(3, dtype=complex)[:, :2], np.ones((3, 3, 1))):
            with pytest.raises(ValueError, match="sizes"):
                approximate_in_Ul(M, B, 1, 1e-6)

    def test_bad_eps_rejected(self):
        B = HermitianDiagForm((1, 1))
        for eps in (0.0, -1e-6, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                approximate_in_Ul(np.eye(2, dtype=complex), B, 1, eps)

    @pytest.mark.parametrize("eps", [1e-310, 5e-324])
    def test_subnormal_eps_is_unreachable(self, eps):
        # eps/(10 m^2) underflows to 0.0 here; the grid exponent must still
        # be finite and the answer the documented ApproximationError
        B = HermitianDiagForm((1, 2))
        generic = cayley(np.sqrt(2.0) * random_skew(np.random.default_rng(3), B, 2).to_complex())
        # eigenvalue -1: the signs clear det(I + M), and no grid reaches eps
        flipped = np.diag([-1.0, np.exp(0.3j)])
        for M in (generic, flipped):
            with pytest.raises(ApproximationError) as exc:
                approximate_in_Ul(M, B, 2, eps)
            assert exc.value.achieved > eps

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("eps", [1e-6, 1e-9])
    def test_free_cayley_coordinates_are_dyadic(self, m, eps):
        rng = np.random.default_rng(40 + m)
        for d in (1, 2, 3, 7):
            A, B = generic_approximant(rng, m, d, eps)
            assert in_unitary_group(A, B.matrix(d))
            S = cayley(A)
            free = [S[i, j].a for i in range(m) for j in range(i + 1, m)]
            free += [S[i, j].b for i in range(m) for j in range(i, m)]
            dens = [c.denominator for c in free]
            assert all(q & (q - 1) == 0 for q in dens), (d, dens)
            # the grid is no finer than needed: 2^-k > eps/(20 m^2) on the first attempt
            assert max(dens) < 20 * m * m / eps

    def test_approximant_integers_stay_small(self):
        rng = np.random.default_rng(44)
        for d in (1, 2, 3, 7):
            A, _ = generic_approximant(rng, 4, d, 1e-9)
            assert len(str(A.D)) < 150, (d, len(str(A.D)))


class TestIntegerRoute:
    def test_one_step_off_breaks_unitarity(self):
        rng = np.random.default_rng(12)
        step = Fraction(1, 10**12)
        for d in (1, 3, 7):
            A, B = generic_approximant(rng, 3, d)
            H = B.matrix(d)
            assert max_denominator(A) > 2**64
            assert in_unitary_group(A, H)
            for i, j in np.ndindex(3, 3):
                e = A[i, j]
                for moved in (QuadElem(e.a + step, e.b, d), QuadElem(e.a, e.b - step, d)):
                    M = with_entries(A, {(i, j): moved})
                    assert not in_unitary_group(M, H), (d, i, j, moved)
            # the defect of the last one matches the QuadElem reference loops
            tMH = QuadMatrix(ref_matmul(QuadMatrix(ref_transpose(M)), H))
            expected = ref_sub(QuadMatrix(ref_matmul(tMH, QuadMatrix(ref_conj(M)))), H)
            defect = _pullback(M, H) - H
            assert rows_of(defect) == expected and not defect.is_zero()

    def test_defect_only_in_sqrt_part(self):
        # diag(1, 1 + sqrt(-d)) against the polarized form: the rational
        # parts of tM H conj(M) equal H's, only the sqrt(-d) parts differ
        for d in (1, 3):
            M = with_entries(QuadMatrix.diagonal([1, 1], d), {(1, 1): qe(1, 1, d)})
            H = polarized_form_matrix(1, d)
            defect = _pullback(M, H) - H
            assert all(e.a == 0 for e in defect.entries.flat)
            assert not defect.is_zero()
            assert not in_unitary_group(M, H)

    def test_to_complex_is_per_entry(self):
        rng = np.random.default_rng(13)
        for d in (1, 2, 3, 7):
            A, _ = generic_approximant(rng, 3, d)
            per_entry = np.array([[e.to_complex() for e in row] for row in A.entries])
            assert A.to_complex().tobytes() == per_entry.tobytes()


def _form_value_direct(H, u, v):
    # the double sum of u_i H_ij conj(v_j), as a reference for form_value
    acc = qzero(H.d)
    h = H.entries
    for i in range(H.m):
        for j in range(H.m):
            acc = acc + u[i] * h[i][j] * v[j].conj()
    return acc


class TestFormValue:
    def test_two_routes_agree(self, rng):
        d = 3
        H = polarized_form_matrix(2, d)
        for _ in range(20):
            u = [
                QuadElem(Fraction(int(rng.integers(-4, 5)), 3), Fraction(int(rng.integers(-4, 5)), 2), d)
                for _ in range(3)
            ]
            v = [
                QuadElem(Fraction(int(rng.integers(-4, 5)), 5), Fraction(int(rng.integers(-4, 5)), 7), d)
                for _ in range(3)
            ]
            assert form_value(H, u, v) == _form_value_direct(H, u, v)

    def test_polarized_form_on_flag_basis(self):
        H = polarized_form_matrix(2, 1)
        e = [[qone(1) if i == j else qzero(1) for j in range(3)] for i in range(3)]
        assert form_value(H, e[0], e[0]).is_zero()
        assert form_value(H, e[1], e[1]).is_zero()
        assert form_value(H, e[0], e[1]) == qone(1)
        assert form_value(H, e[2], e[2]) == qone(1)


class TestHeisenbergExact:
    def test_exactly_unitary(self):
        for d in (1, 3, 7):
            v = [QuadElem(Fraction(1), Fraction(1, 2), d), qomega(d)]
            M = heisenberg_matrix_exact(Fraction(2, 3), v, d)
            assert in_unitary_group(M, polarized_form_matrix(3, d))

    def test_group_law_exact(self):
        # M(q, v) M(q', v') = M(q + q' + y, v + v') with y the omega
        # coefficient of <v', v>; the twist stays in the field because the
        # center parameter is a rational multiple of sqrt(d)
        d = 3
        v1 = [qe(1, 0, d), QuadElem(Fraction(1, 2), Fraction(-1, 2), d)]
        v2 = [qomega(d), qe(0, 2, d)]
        q1, q2 = Fraction(1, 3), Fraction(-2, 5)
        pairing = sum((v2[k] * v1[k].conj() for k in range(2)), qzero(d))
        twist = pairing.b
        lhs = heisenberg_matrix_exact(q1, v1, d) @ heisenberg_matrix_exact(q2, v2, d)
        rhs = heisenberg_matrix_exact(
            q1 + q2 + twist, [v1[k] + v2[k] for k in range(2)], d
        )
        assert lhs == rhs

    def test_matches_float_model(self):
        import math

        from cuspforge.heisenberg_siegel import HeisenbergElement, to_matrix

        d = 1
        q = Fraction(1, 4)
        v = [qe(1, -1, d)]
        M = heisenberg_matrix_exact(q, v, d)
        g = HeisenbergElement(float(q) * math.sqrt(d), np.array([1.0 - 1.0j]))
        np.testing.assert_allclose(M.to_complex(), to_matrix(g), atol=1e-14)


class TestUnipotentFixedVector:
    def test_heisenberg_fixed_line(self):
        d = 3
        H = polarized_form_matrix(3, d)
        v = [qe(2, 1, d), QuadElem(Fraction(1, 2), Fraction(1, 2), d)]
        M = heisenberg_matrix_exact(Fraction(5, 7), v, d)
        w = unipotent_fixed_vector(M, H)
        out = M.apply(w)
        assert all(out[i] == w[i] for i in range(4))
        sq = form_value(H, w, w)
        assert sq.is_rational() and sq.a <= 0

    def test_central_translation(self):
        d = 1
        H = polarized_form_matrix(2, d)
        M = heisenberg_matrix_exact(Fraction(1), [qzero(d)], d)
        w = unipotent_fixed_vector(M, H)
        assert form_value(H, w, w).is_zero()

    def test_identity_returns_nonpositive_vector(self):
        d = 1
        H = polarized_form_matrix(2, d)
        w = unipotent_fixed_vector(QuadMatrix.identity(3, d), H)
        assert form_value(H, w, w).a <= 0

    def test_trivial_kernel_raises(self):
        d = 1
        M = QuadMatrix.diagonal([2, 2], d)
        H = QuadMatrix.diagonal([1, 1], d)
        with pytest.raises(ValueError, match="trivial"):
            unipotent_fixed_vector(M, H)

    def test_positive_kernel_raises(self):
        # diag(i, i, 1) preserves the polarized form but fixes only the
        # positive vector e3, so the parabolic search must refuse it
        d = 1
        diag = {(0, 0): qomega(d), (1, 1): qomega(d), (2, 2): qone(d)}
        M = with_entries(QuadMatrix.diagonal([0, 0, 0], d), diag)
        H = polarized_form_matrix(2, d)
        assert in_unitary_group(M, H)
        with pytest.raises(ValueError, match="H-positive"):
            unipotent_fixed_vector(M, H)


class TestRootOfUnityPower:
    def build_diag(self, alpha, d):
        return QuadMatrix([[alpha, qzero(d)], [qzero(d), qone(d)]])

    def test_orders(self):
        e0 = [qone(1), qzero(1)]
        assert root_of_unity_power(self.build_diag(qone(1), 1), e0) == 1
        assert root_of_unity_power(self.build_diag(-qone(1), 1), e0) == 2
        assert root_of_unity_power(self.build_diag(qomega(1), 1), e0) == 4
        sixth = QuadElem(Fraction(1, 2), Fraction(1, 2), 3)
        assert root_of_unity_power(self.build_diag(sixth, 3), [qone(3), qzero(3)]) == 6
        cube = QuadElem(Fraction(-1, 2), Fraction(1, 2), 3)
        assert root_of_unity_power(self.build_diag(cube, 3), [qone(3), qzero(3)]) == 3

    def test_non_eigenvector_rejected(self):
        M = self.build_diag(-qone(1), 1)
        with pytest.raises(ValueError, match="eigenvector"):
            root_of_unity_power(M, [qone(1), qone(1)])

    def test_non_root_eigenvalue_rejected(self):
        # 3/5 + 4/5 i has norm one but infinite multiplicative order
        alpha = QuadElem(Fraction(3, 5), Fraction(4, 5), 1)
        M = self.build_diag(alpha, 1)
        with pytest.raises(ValueError, match="root of unity"):
            root_of_unity_power(M, [qone(1), qzero(1)])

    def test_trace_route_gives_the_same_orders(self):
        sixth = QuadElem(Fraction(1, 2), Fraction(1, 2), 3)
        cube = QuadElem(Fraction(-1, 2), Fraction(1, 2), 3)
        cases = [(qone(1), 1), (-qone(7), 2), (qomega(1), 4), (-qomega(1), 4)]
        cases += [(cube, 3), (sixth, 6)]
        for alpha, order in cases:
            M = self.build_diag(alpha, alpha.d)
            assert root_of_unity_power(M, [qone(alpha.d), qzero(alpha.d)]) == order
            assert order_from_trace(alpha) == order

    def test_infinite_order_rejected_by_both_routes(self):
        # norm 1, trace 6/5: x^2 - (6/5) x + 1 has no root of unity as a root
        alpha = QuadElem(Fraction(3, 5), Fraction(4, 5), 1)
        with pytest.raises(ValueError, match="root of unity"):
            root_of_unity_power(self.build_diag(alpha, 1), [qone(1), qzero(1)])
        with pytest.raises(ValueError, match="not a root of unity"):
            order_from_trace(alpha)
        # integral trace but norm 2: 1 + i is no root of unity either
        with pytest.raises(ValueError, match="not a root of unity"):
            order_from_trace(qe(1, 1, 1))

    def test_zero_vector_rejected(self):
        M = self.build_diag(qone(1), 1)
        with pytest.raises(ValueError, match="zero vector"):
            root_of_unity_power(M, [qzero(1), qzero(1)])
