"""Tests for the regularized maximum, convex gluing, and complex Hessian tools."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge import profile
from cuspforge._smoothstep import bump
from cuspforge.cusp_bundle import CuspParams
from cuspforge.psh import (
    ChiFunction,
    GlueBand,
    GlueError,
    RegMaxParams,
    build_chi,
    complex_hessian,
    glue_exhaustion,
    phi_cusp_ambient,
    reg_max,
)

P_HALF = RegMaxParams(eta=0.5)
vals = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)

CP = CuspParams(l=2.0 * math.pi, t0=0.0, n=3)


def greedy_build_chi(phi_samples, psi_samples):
    """build_chi as first written, with hand-written loops: the reference
    the numpy version must match bit for bit."""
    phis = np.array([v for _, v in phi_samples], dtype=float)
    psis = np.array([v for _, v in psi_samples], dtype=float)
    m = float(psis.min())
    levels = np.floor(phis).astype(int) + 1
    level_ids = sorted(set(levels.tolist()))
    minima = [float(psis[levels == p].min()) for p in level_ids]
    n_lvl = len(level_ids)

    tail_min = [math.inf] * (n_lvl + 1)
    for k in range(n_lvl - 1, -1, -1):
        tail_min[k] = min(minima[k], tail_min[k + 1])

    def first_covered(threshold):
        k = n_lvl
        while k > 0 and tail_min[k - 1] >= threshold:
            k -= 1
        return k

    cap_target = level_ids[-1] + 1 + 0.5
    knots, targets = [], []
    n = 1
    while True:
        k_next = first_covered((n + 1) * m)
        target = cap_target if k_next >= n_lvl else level_ids[k_next] + 0.5
        knots.append(n * m)
        targets.append(target if not targets else max(target, targets[-1]))
        if k_next >= n_lvl:
            break
        n += 1

    slopes = []
    value = 0.0
    prev_t = 0.0
    for t, v in zip(knots, targets):
        need = (v - value) / (t - prev_t)
        s = max(slopes[-1] if slopes else 0.0, need)
        value += s * (t - prev_t)
        slopes.append(s)
        prev_t = t

    breakpoints = []
    kept = [slopes[0]]
    for t, s in zip(knots, slopes[1:]):
        if s > kept[-1]:
            breakpoints.append(t)
            kept.append(s)
    return tuple(breakpoints), tuple(kept), m / 4.0


def chi_sample_set(rng, kind):
    """One seeded (phi, psi) sample set of the given kind."""
    count = int(rng.integers(1, 60))
    if kind == "single_level":
        phis = rng.uniform(3.0, 4.0, count)
        psis = rng.uniform(0.1, 5.0, count)
    elif kind == "tied_minima":
        # psi from a few values, so several levels share one minimum
        phis = rng.uniform(0.1, 25.0, count)
        psis = rng.choice([0.3, 0.7, 1.1, 2.9], count)
    elif kind == "multiple_of_m":
        # every psi an exact multiple k m of its least value m, phi rising
        # with k: level minima sit exactly on the thresholds (n + 1) m
        m = float(rng.uniform(0.05, 2.0))
        ks = rng.integers(1, 12, count)
        psis = ks * m
        phis = ks ** rng.uniform(1.0, 2.5) * rng.uniform(0.9, 1.1, count)
    elif kind == "cap_target":
        # all psi below 2 m: a single knot, aimed at the cap target
        phis = rng.uniform(0.1, 30.0, count)
        psis = rng.uniform(1.0, 1.99, count)
    elif kind == "radial":
        rs = rng.uniform(0.05, 1.0, count)
        phis = 1.0 / rs
        psis = float(rng.uniform(0.3, 0.7)) / rs + 0.2
    elif kind == "convex":
        # phi grows like a power of psi, so the slopes keep growing
        psis = rng.uniform(0.2, 6.0, count)
        phis = psis ** rng.uniform(1.2, 3.0) * rng.uniform(0.8, 1.2, count)
    else:
        phis = np.exp(rng.uniform(-3.0, 4.0, count))
        psis = np.exp(rng.uniform(-2.0, 2.0, count))
    return list(enumerate(phis.tolist())), list(enumerate(psis.tolist()))


CHI_KINDS = (
    "single_level", "tied_minima", "multiple_of_m", "cap_target", "radial", "convex", "generic",
)


class TestRegMaxParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegMaxParams(eta=0.0)


class TestRegMax:
    @settings(max_examples=80)
    @given(vals, vals)
    def test_dominates_max(self, x, y):
        assert reg_max(x, y, P_HALF) >= max(x, y) - 1e-12

    @settings(max_examples=80)
    @given(vals, vals)
    def test_symmetric(self, x, y):
        assert reg_max(x, y, P_HALF) == pytest.approx(reg_max(y, x, P_HALF), abs=1e-12)

    @settings(max_examples=40)
    @given(vals, st.floats(min_value=1.0, max_value=10.0))
    def test_collapse_is_exact(self, x, gap):
        # y >= x + 2 eta: the smoothed maximum IS y, bitwise
        y = x + gap
        assert reg_max(x, y, P_HALF) == y
        assert reg_max(y, x, P_HALF) == y

    @pytest.mark.parametrize("x", [0.9, 0.15, 15.87])
    def test_collapse_at_rounded_gap(self, x):
        # y - x rounds to one ulp below 2 eta = 1.0 (for 0.9:
        # 1.9 - 0.9 == 0.9999999999999999); the hinges vanish from
        # (32/17) eta on, so the value is y all the same
        y = x + 1.0
        assert y - x < 2.0 * P_HALF.eta
        assert reg_max(x, y, P_HALF) == y
        assert reg_max(y, x, P_HALF) == y

    def test_dominates_where_quadrature_rounds_below(self):
        # the 33 x 33 product quadrature rounded one ulp below y here; the
        # hinge sum adds a nonnegative term to y
        x, y = 1.7637636341507594, 2.7322967956622266
        assert reg_max(x, y, P_HALF) == y
        assert reg_max(y, x, P_HALF) == y

    def test_symmetric_bitwise_in_band(self, rng):
        for _ in range(500):
            x = float(rng.uniform(-5, 5))
            y = x + float(rng.uniform(-2.0, 2.0)) * P_HALF.eta
            assert reg_max(x, y, P_HALF) == reg_max(y, x, P_HALF)

    def test_diagonal_excess(self):
        for x in (-3.0, 0.0, 1.7):
            excess = reg_max(x, x, P_HALF) - x
            assert 0.0 < excess < 2.0 * P_HALF.eta

    def test_monotone_in_each_argument(self, rng):
        for _ in range(200):
            x, y = rng.uniform(-5, 5, size=2)
            h = float(rng.uniform(1e-4, 0.3))
            assert reg_max(x + h, y, P_HALF) >= reg_max(x, y, P_HALF) - 1e-10
            assert reg_max(x, y + h, P_HALF) >= reg_max(x, y, P_HALF) - 1e-10

    def test_convex_along_segments(self, rng):
        for _ in range(200):
            x0, y0, x1, y1 = rng.uniform(-4, 4, size=4)
            mid = reg_max(0.5 * (x0 + x1), 0.5 * (y0 + y1), P_HALF)
            avg = 0.5 * (reg_max(x0, y0, P_HALF) + reg_max(x1, y1, P_HALF))
            assert mid <= avg + 1e-10

    def test_scale_with_eta(self):
        # the mollified diagonal value scales linearly with eta
        a = reg_max(0.0, 0.0, RegMaxParams(eta=0.25))
        b = reg_max(0.0, 0.0, RegMaxParams(eta=1.0))
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    @pytest.mark.parametrize("shape", [(50,), (7, 9), "scalar x"])
    def test_batch_rows_are_scalar_calls(self, rng, shape):
        # in the band and past it, bit for bit
        if shape == "scalar x":
            x, y = 0.3, rng.uniform(-1.5, 2.0, 40)
        else:
            x = rng.uniform(-3, 3, shape)
            y = x + rng.uniform(-1.2, 1.2, shape)
        batch = reg_max(x, y, P_HALF)
        xs, ys = np.broadcast_arrays(x, y)
        assert isinstance(reg_max(0.3, 0.5, P_HALF), float)
        assert batch.shape == xs.shape
        for k in np.ndindex(xs.shape):
            assert batch[k] == reg_max(float(xs[k]), float(ys[k]), P_HALF)

    @pytest.mark.parametrize("eta", [0.25, 0.5, 1.0])
    def test_matches_product_quadrature(self, rng, eta):
        # the 33 x 33 product quadrature of the same kernel: at most 1.3e-15
        # apart at eta = 0.25 and 8.9e-16 at 0.5 and 1, in 2,000 draws each
        u = np.arange(-16, 17) / 17.0
        w = bump((u + 1.0) / 2.0)
        w = w / w.sum()
        x, y = rng.uniform(-3, 3, (2, 400))
        y[::2] = x[::2] + rng.uniform(-2.0, 2.0, 200) * eta
        ref = [w @ np.maximum(a + eta * u[:, None], b + eta * u[None, :]) @ w for a, b in zip(x, y)]
        assert np.max(np.abs(reg_max(x, y, RegMaxParams(eta)) - ref)) <= 2e-15


def piecewise_core(chi, t):
    """The unsmoothed piecewise-linear minorant of chi, from its breakpoints
    and slopes."""
    t = np.asarray(t, dtype=float)
    out = chi.slopes[0] * t
    for bp, s_lo, s_hi in zip(chi.breakpoints, chi.slopes, chi.slopes[1:]):
        out = out + (s_hi - s_lo) * np.maximum(t - bp, 0.0)
    return out


class TestChiFunction:
    def test_validation(self):
        with pytest.raises(ValueError, match="radius"):
            ChiFunction((), (1.0,), 0.0)
        with pytest.raises(ValueError, match="one more slope"):
            ChiFunction((1.0,), (1.0,), 0.1)
        with pytest.raises(ValueError, match="positive"):
            ChiFunction((), (-1.0,), 0.1)
        with pytest.raises(ValueError, match="increase"):
            ChiFunction((1.0,), (2.0, 2.0), 0.1)
        with pytest.raises(ValueError, match="smoothing radius of 0"):
            ChiFunction((0.05,), (1.0, 2.0), 0.1)

    def test_zero_is_exact(self):
        chi = ChiFunction((1.0, 2.0), (0.5, 1.0, 3.0), 0.2)
        assert chi(0.0) == 0.0

    def test_linear_when_no_breakpoints(self):
        chi = ChiFunction((), (2.5,), 0.3)
        for t in (0.0, 0.7, 5.0):
            assert chi(t) == pytest.approx(2.5 * t, rel=1e-15)

    def test_smoothing_dominates_core(self):
        chi = ChiFunction((1.0, 2.5), (0.5, 1.2, 4.0), 0.25)
        ts = np.linspace(0.0, 5.0, 1001)
        assert np.all(chi(ts) >= piecewise_core(chi, ts) - 1e-12)

    def test_agrees_with_core_away_from_breakpoints(self):
        chi = ChiFunction((1.0,), (1.0, 2.0), 0.2)
        for t in (0.5, 0.79, 1.21, 3.0):
            assert chi(t) == pytest.approx(piecewise_core(chi, t), abs=1e-12)

    def test_convex_and_increasing(self):
        chi = ChiFunction((1.0, 2.0, 3.0), (0.5, 1.0, 2.0, 6.0), 0.2)
        ts = np.linspace(0.0, 4.0, 2001)
        ys = chi(ts)
        d1 = np.diff(ys)
        assert np.all(d1 > 0.0)
        assert np.all(np.diff(d1) >= -1e-9)


class TestBuildChi:
    @staticmethod
    def radial_samples(rng, count=2000):
        # phi = 1/r blows up toward the inner rim, psi = 0.5/r + 0.2 also
        # does but slower: the construction has to chase unbounded levels
        rs = rng.uniform(0.02, 1.0, size=count)
        phi = [(float(r), float(1.0 / r)) for r in rs]
        psi = [(float(r), float(0.5 / r + 0.2)) for r in rs]
        return phi, psi

    def test_dominates_samples(self, rng):
        phi, psi = self.radial_samples(rng)
        chi = build_chi(phi, psi)
        for (_, fv), (_, sv) in zip(phi, psi):
            assert chi(sv) > fv

    def test_convex_output(self, rng):
        phi, psi = self.radial_samples(rng)
        chi = build_chi(phi, psi)
        assert all(b > a for a, b in zip(chi.slopes, chi.slopes[1:]))
        assert chi(0.0) == 0.0

    def test_bounded_phi_gives_single_piece(self, rng):
        rs = rng.uniform(0.5, 1.0, size=200)
        phi = [(float(r), 2.0) for r in rs]
        psi = [(float(r), float(1.0 + r)) for r in rs]
        chi = build_chi(phi, psi)
        assert chi.breakpoints == ()
        # the single linear piece already dominates (C+1)/m behaviour
        for (_, fv), (_, sv) in zip(phi, psi):
            assert chi(sv) > fv

    def test_nonpositive_psi_rejected(self):
        with pytest.raises(ValueError, match="inf psi"):
            build_chi([(0, 1.0)], [(0, 0.0)])

    def test_nonpositive_phi_rejected(self):
        with pytest.raises(ValueError, match="phi samples"):
            build_chi([(0, -1.0)], [(0, 1.0)])

    def test_mismatched_samples_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            build_chi([(0, 1.0)], [])

    @pytest.mark.parametrize(
        "phi,psi,bad",
        [
            # psi = inf on the top phi level: the knot count never stopped growing
            (2.0, math.inf, "psi"),
            (math.nan, 1.0, "phi"),
            (math.inf, 1.0, "phi"),
            (2.0, math.nan, "psi"),
        ],
    )
    def test_non_finite_samples_rejected(self, phi, psi, bad):
        phis = [(0, 1.0), (1, phi)]
        psis = [(0, 1.0), (1, psi)]
        with pytest.raises(ValueError, match=f"^{bad} samples must be finite$"):
            build_chi(phis, psis)

    def test_phi_past_exact_levels_rejected(self):
        # floor(phi) + 1 is exact only below 2^53, and from 2^63 on the
        # int64 level index would wrap (at 1e19, chi(3.0) would be 10.5)
        psis = [(0, 1.0), (1, 3.0)]
        for phi in (2.0**53, 1e19, 2.0**63, 1e300):
            with pytest.raises(ValueError, match=r"below 2\^53"):
                build_chi([(0, 1.0), (1, phi)], psis)
        chi = build_chi([(0, 1.0), (1, 2.0**53 - 1.0)], psis)
        assert chi(3.0) > 2.0**53 - 1.0

    def test_matches_greedy_reference(self):
        # 1,400 seeded sample sets, 200 of each kind; == on Python floats
        for seed in range(200):
            for kind in CHI_KINDS:
                rng = np.random.default_rng([seed, CHI_KINDS.index(kind)])
                phi, psi = chi_sample_set(rng, kind)
                chi = build_chi(phi, psi)
                got = (chi.breakpoints, chi.slopes, chi.radius)
                assert got == greedy_build_chi(phi, psi), (seed, kind)
                assert all(type(x) is float for x in (*got[0], *got[1]))
                if kind == "cap_target":
                    assert chi.breakpoints == ()

    def test_cli_sample_sets_match_greedy_reference(self):
        # the radial sets the psh suite builds, at the CLI's largest count
        for seed in (0, 9):
            radii = np.random.default_rng(seed + 43).uniform(0.05, 1.0, 2000)
            phi = [(float(r), 1.0 / float(r)) for r in radii]
            psi = [(float(r), 0.5 / float(r) + 0.2) for r in radii]
            chi = build_chi(phi, psi)
            assert (chi.breakpoints, chi.slopes, chi.radius) == greedy_build_chi(phi, psi)


class TestComplexHessian:
    def test_norm_squared_gives_identity(self):
        rep = complex_hessian(lambda z: float(np.vdot(z, z).real), [0.3 + 1j, -0.5j])
        np.testing.assert_allclose(rep.matrix, np.eye(2), atol=1e-8)
        assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-7)

    def test_pluriharmonic_gives_zero(self):
        rep = complex_hessian(lambda z: float((z[0] ** 2).real), [0.7 - 0.2j])
        np.testing.assert_allclose(rep.matrix, 0.0, atol=1e-8)

    def test_exp_norm_squared_at_origin(self):
        rep = complex_hessian(
            lambda z: float(np.exp(np.vdot(z, z).real)), [0.0, 0.0]
        )
        np.testing.assert_allclose(rep.matrix, np.eye(2), atol=1e-7)

    def test_quartic_radial(self):
        # d^2/dz dzbar |z|^4 = 4 |z|^2
        z0 = 1.0 + 1.0j
        rep = complex_hessian(lambda z: float(np.vdot(z, z).real ** 2), [z0])
        assert rep.matrix[0, 0] == pytest.approx(4.0 * abs(z0) ** 2, rel=1e-6)

    def test_hermiticity_defect_reported(self):
        rep = complex_hessian(lambda z: float(np.vdot(z, z).real), [1.0, 1.0j])
        np.testing.assert_allclose(rep.matrix, rep.matrix.conj().T, atol=0.0)

    def test_report_serializable(self):
        # the psh suite writes min_eigenvalue into its JSON witness
        import json

        rep = complex_hessian(lambda z: float(np.vdot(z, z).real), [0.5, 1.0j])
        assert type(rep.min_eigenvalue) is float
        assert rep.min_eigenvalue == rep.eigenvalues.min()
        assert json.loads(json.dumps(rep.min_eigenvalue)) == rep.min_eigenvalue

    @pytest.mark.parametrize("n, calls", [(3, 74), (6, 290)])
    def test_stencil_table_matches_pairwise_stencils(self, rng, n, calls):
        # one evaluation per stencil point, and the matrix agrees with four
        # separate evaluations per real second derivative: over 80 draws
        # the two differed by at most 2.8e-8 of the largest entry, most of
        # it the pairwise route's own error
        cp = CuspParams(l=2.0 * math.pi, t0=0.0, n=n)
        for _ in range(4):
            z0 = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            points = []

            def fn(z):
                points.append(z)
                return phi_cusp_ambient(z, cp)

            rep = complex_hessian(fn, z0)
            assert len(points) == calls
            ref_matrix, _ = pairwise_complex_hessian(lambda z: phi_cusp_ambient(z, cp), z0)
            scale = np.abs(ref_matrix).max()
            np.testing.assert_allclose(rep.matrix, ref_matrix, rtol=0.0, atol=1e-7 * scale)
            assert np.array_equal(rep.matrix, rep.matrix.conj().T)

    @pytest.mark.parametrize("n", [3, 6])
    def test_cusp_levi_form_off_the_zero_section(self, rng, n):
        # a != 0 couples a and v; over 200 such centres the entries were
        # within 2.3e-9 of the largest, where the real-coordinate stencil
        # (pairwise_complex_hessian) reads up to 2.0e-8
        cp = CuspParams(l=3.0, t0=0.4, n=n)
        centres = 0.6 * (rng.standard_normal((10, n)) + 1j * rng.standard_normal((10, n)))
        rep = complex_hessian(lambda z: phi_cusp_ambient(z, cp), centres)
        for H, z in zip(rep.matrix, centres):
            exact = cusp_levi_form(z, cp)
            np.testing.assert_allclose(H, exact, rtol=0.0, atol=5e-9 * np.abs(exact).max())

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_hermitian_quadratic_gives_transpose(self, rng, m):
        # fn = z* B z + Re(z^T A z) has d^2 fn / dz_j dzbar_k = B_kj and no
        # truncation error, and the pluriharmonic Re(z^T A z) drops out of
        # every line's Laplacian; over 200 draws the rounding in fn, over
        # h^2, left at most 1.2e-8 of the largest coefficient
        X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        B, A = X + X.conj().T, rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        A = A + A.T
        fn = lambda z: float(np.vdot(z, B @ z).real + (z @ A @ z).real)
        z0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        rep = complex_hessian(fn, z0)
        scale = max(np.abs(A).max(), np.abs(B).max())
        np.testing.assert_allclose(rep.matrix, B.T, rtol=0.0, atol=5e-8 * scale)

    @pytest.mark.parametrize("per_block, sizes", [(1, [1] * 7), (3, [3, 3, 1])])
    @pytest.mark.parametrize("n, calls", [(2, 34), (3, 74), (6, 290)])
    def test_batch_matches_lone_calls(self, rng, monkeypatch, n, calls, per_block, sizes):
        # a block's width is one centre's two stencil tables in float64
        # elements, so these blocks hold 1 or 3 of the 7 centres and the
        # seams fall inside the batch
        monkeypatch.setattr(profile, "BLOCK_ELEMENTS", per_block * 2 * calls * n)
        seen = []
        blocks = profile.blocks
        monkeypatch.setattr(
            profile, "blocks", lambda count, width: [seen.append(r) or r for r in blocks(count, width)]
        )
        cp = CuspParams(l=2.0 * math.pi, t0=0.0, n=n)
        centres = 0.4 * (rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n)))
        centres[2, 0] = 0.0
        shapes = []

        def fn(z):
            shapes.append(z.shape)
            return phi_cusp_ambient(z, cp)

        rep = complex_hessian(fn, centres)
        assert [len(range(7)[r]) for r in seen] == sizes
        assert shapes == [(n,)] * (7 * calls)
        assert rep.matrix.shape == (7, n, n) and rep.eigenvalues.shape == (7, n)
        for i, z0 in enumerate(centres):
            lone = complex_hessian(lambda z: phi_cusp_ambient(z, cp), z0)
            assert rep.matrix[i].tobytes() == lone.matrix.tobytes()
            assert rep.eigenvalues[i].tobytes() == lone.eigenvalues.tobytes()
            assert rep.min_eigenvalue[i] == lone.min_eigenvalue

    @pytest.mark.parametrize(
        "z0, message",
        [
            ([], "at least one coordinate"),
            (np.zeros((0, 3), dtype=complex), "no centres"),
            ([0.1, complex(np.nan, 0.0)], "centre 0 is not finite"),
            ([[0.1, 0.2j], [0.3, np.inf]], "centre 1 is not finite"),
            (np.zeros((2, 2, 2)), "one centre"),
        ],
    )
    def test_rejects_malformed_centres(self, z0, message):
        calls = []
        with pytest.raises(ValueError, match=message):
            complex_hessian(lambda z: calls.append(z) or 0.0, z0)
        assert not calls


def pairwise_raw_hessian(fn, z0, h):
    """Second derivatives with four fresh evaluations each, entry by entry."""
    m = z0.size
    dirs = np.zeros((2 * m, m), dtype=complex)
    for j in range(m):
        dirs[2 * j, j] = 1.0
        dirs[2 * j + 1, j] = 1.0j

    def second(a, b):
        if a == b:
            return (fn(z0 + h * dirs[a]) - 2.0 * fn(z0) + fn(z0 - h * dirs[a])) / h**2
        return (
            fn(z0 + h * (dirs[a] + dirs[b]))
            - fn(z0 + h * (dirs[a] - dirs[b]))
            - fn(z0 - h * (dirs[a] - dirs[b]))
            + fn(z0 - h * (dirs[a] + dirs[b]))
        ) / (4.0 * h**2)

    H = np.zeros((m, m), dtype=complex)
    for j in range(m):
        for k in range(j, m):
            xx = second(2 * j, 2 * k)
            yy = second(2 * j + 1, 2 * k + 1)
            xy = second(2 * j, 2 * k + 1)
            yx = second(2 * j + 1, 2 * k)
            H[j, k] = 0.25 * (xx + yy) + 0.25j * (xy - yx)
            if k > j:
                H[k, j] = np.conj(H[j, k])
    return H


def pairwise_complex_hessian(fn, z0):
    z0 = np.asarray(z0, dtype=complex).reshape(-1)
    h = 1e-4 * (1.0 + float(np.linalg.norm(z0)))
    fine, coarse = pairwise_raw_hessian(fn, z0, h / 2.0), pairwise_raw_hessian(fn, z0, h)
    H = (4.0 * fine - coarse) / 3.0
    H = 0.5 * (H + H.conj().T)
    return H, np.linalg.eigvalsh(H)


def cusp_levi_form(z, cp):
    """The Levi form of phi_cusp_ambient at z = (a, v) in closed form: with
    c = 2 pi / l and E = exp(c |v|^2), H_aa = E / lambda^2, H_av_k =
    c E conj(a) v_k / lambda^2 and H_vv = I + |a|^2 E (c I + c^2 conj(v) v^T)
    / lambda^2."""
    from cuspforge.heisenberg_siegel import lambda_const

    a, v = z[0], z[1:]
    c = 2.0 * math.pi / cp.l
    scale = math.exp(c * float(np.vdot(v, v).real)) / lambda_const(cp.t0, cp.l) ** 2
    H = np.empty((z.size, z.size), dtype=complex)
    H[0, 0] = scale
    H[0, 1:] = c * scale * np.conj(a) * v
    H[1:, 0] = np.conj(H[0, 1:])
    eye = np.eye(v.size)
    H[1:, 1:] = eye + abs(a) ** 2 * scale * (c * eye + c * c * np.outer(np.conj(v), v))
    return H


class TestPhiCusp:
    def test_anchor_values(self):
        from cuspforge.heisenberg_siegel import lambda_const

        lam = lambda_const(CP.t0, CP.l)
        assert phi_cusp_ambient(np.zeros(3), CP) == 0.0
        assert phi_cusp_ambient([lam, 0.0, 0.0], CP) == pytest.approx(1.0, rel=1e-12)

    def test_closed_form_off_zero_section(self):
        # |v|^2 + lambda^-2 exp(2 pi |v|^2 / l) |a|^2 at a != 0, on the
        # joint vector and at a cusp other than CP's
        from cuspforge.heisenberg_siegel import lambda_const

        cp = CuspParams(l=3.0, t0=0.4, n=3)
        z = np.array([0.1 + 0.2j, 0.3, -0.4j])
        nv2 = 0.3**2 + 0.4**2
        expect = nv2 + math.exp(2.0 * math.pi * nv2 / cp.l) * abs(z[0]) ** 2 / lambda_const(cp.t0, cp.l) ** 2
        assert phi_cusp_ambient(z, cp) == pytest.approx(expect, rel=1e-14)

    def test_hessian_positive_on_zero_section(self, rng):
        for _ in range(15):
            v = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
            rep = complex_hessian(lambda z: phi_cusp_ambient(z, CP), [0.0, *v])
            assert rep.min_eigenvalue > 0.0

    def test_invariant_summand_under_lattice(self, rng):
        # the fiber-norm part of phi is invariant under the lattice action
        from cuspforge.cusp_bundle import BundlePoint, h_norm, lattice_act
        from cuspforge.heisenberg_siegel import HeisenbergElement

        for _ in range(20):
            p = BundlePoint(
                0.3 * (rng.standard_normal() + 1j * rng.standard_normal()),
                rng.standard_normal(2) + 1j * rng.standard_normal(2),
            )
            g = HeisenbergElement(
                rng.standard_normal(),
                rng.standard_normal(2) + 1j * rng.standard_normal(2),
            )
            q = lattice_act(g, p, CP)
            assert h_norm(q, CP) ** 2 == pytest.approx(h_norm(p, CP) ** 2, rel=1e-10)


def radial_model():
    """1-complex-dim gluing model: phi2 dominates inside, psi2 outside."""
    phi2 = lambda z: 3.0 + 0.1 * abs(z) ** 2
    psi2 = lambda z: 4.0 * abs(z) ** 2
    band = GlueBand(
        inner=[0.05 + 0.0j, 0.2j, -0.25 + 0.1j],
        outer=[1.18 + 0.0j, 1.19j, -0.84 - 0.84j],
        in_region=lambda z: abs(z) < 1.2,
    )
    return phi2, psi2, band


class TestGlueExhaustion:
    def test_outer_band_equals_psi2_exactly(self):
        phi2, psi2, band = radial_model()
        glued = glue_exhaustion(phi2, psi2, band, P_HALF)
        for z in band.outer:
            assert glued(z) == psi2(z)

    def test_inner_band_rides_phi2(self):
        phi2, psi2, band = radial_model()
        glued = glue_exhaustion(phi2, psi2, band, P_HALF)
        for z in band.inner:
            assert glued(z) == phi2(z)

    def test_outside_region_is_psi2(self):
        phi2, psi2, band = radial_model()
        glued = glue_exhaustion(phi2, psi2, band, P_HALF)
        z = 2.0 + 1.0j
        assert glued(z) == psi2(z)

    def test_continuous_across_region_boundary(self):
        # just inside the rim the maximum has collapsed to psi2, so the
        # two branches agree to rounding across |z| = 1.2
        phi2, psi2, band = radial_model()
        glued = glue_exhaustion(phi2, psi2, band, P_HALF)
        for r_in, r_out in ((1.199999, 1.200001), (1.1999, 1.2001)):
            assert abs(glued(r_in + 0j) - glued(r_out + 0j)) <= 1e-9 + abs(
                psi2(r_out + 0j) - psi2(r_in + 0j)
            )

    def test_dominates_both_inside(self, rng):
        phi2, psi2, band = radial_model()
        glued = glue_exhaustion(phi2, psi2, band, P_HALF)
        for _ in range(100):
            z = rng.uniform(0, 1.19) * np.exp(2j * np.pi * rng.uniform())
            g = glued(complex(z))
            assert g >= max(phi2(z), psi2(z)) - 1e-12

    def test_glued_hessian_positive(self, rng):
        phi2, psi2, band = radial_model()
        glued = glue_exhaustion(phi2, psi2, band, P_HALF)
        for _ in range(12):
            z = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
            rep = complex_hessian(lambda w: glued(complex(w[0])), [z])
            assert rep.min_eigenvalue > 0.0

    def test_violated_margin_raises_with_witnesses(self):
        phi2, psi2, _ = radial_model()
        bad = GlueBand(
            inner=[0.1 + 0.0j],
            outer=[0.9 + 0.0j],  # psi2 = 3.24 < phi2 + 1 = 4.08 here
            in_region=lambda z: abs(z) < 1.2,
        )
        with pytest.raises(GlueError, match="band margins") as exc:
            glue_exhaustion(phi2, psi2, bad, P_HALF)
        assert exc.value.witnesses
        assert exc.value.witnesses[0][0] == "outer"
