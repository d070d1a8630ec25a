"""Tests for the warped-metric curvature formulas against the Koszul oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.curvature import (
    CertificateReport,
    CurvatureOracle,
    FrameVector,
    MetricPoint,
    bianchi_check,
    bisectional,
    cauchy_schwarz_defect,
    discriminant_inequality,
    hbc_certificate,
    hs_blocks,
    oracle_curvature,
    oracle_for,
    poly_P,
    random_frame_vector,
    ricci,
    ricci_coefficients,
    ricci_trace,
    rz_plane_curvature,
)

small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def sample_points():
    return [
        MetricPoint.exp_model(0.0, 3),
        MetricPoint.exp_model(0.9, 3),
        MetricPoint.cosh_model(0.7, 3),
        MetricPoint.cosh_model(1.6, 2),
        MetricPoint.exp_model(0.4, 4),
    ]


class TestMetricPoint:
    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            MetricPoint(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, n=1)

    def test_positivity_validation(self):
        with pytest.raises(ValueError, match="positive|> 0"):
            MetricPoint(1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, n=3)

    def test_kahler_relation_enforced(self):
        with pytest.raises(ValueError, match="Kahler"):
            MetricPoint(1.0, 2.0, 1.0, 1.0, 1.0, g=3.0, gp=2.0, n=3)

    def test_from_profile_matches_jet(self, default_profile):
        mp = MetricPoint.from_profile(default_profile, 2.3, 3)
        f0, f1, f2, f3 = default_profile.jet_at(2.3)
        assert (mp.f, mp.fp, mp.fpp, mp.fppp) == (f0, f1, f2, f3)
        assert mp.g == f0 * f1
        assert mp.gpp == pytest.approx(3.0 * f1 * f2 + f0 * f3, rel=1e-15)

    def test_from_jet_matches_from_profile(self, default_profile):
        ts = np.array([0.05, 0.9, 2.3, 4.4, 6.0])
        jets = default_profile.jet_at(ts)
        for t, jet in zip(ts, jets):
            for n in (2, 5):
                assert MetricPoint.from_jet(t, jet, n) == MetricPoint.from_profile(
                    default_profile, t, n
                )

    def test_cosh_model_rejects_origin(self):
        with pytest.raises(ValueError):
            MetricPoint.cosh_model(0.0, 3)


class TestFrameVector:
    def test_J_squares_to_minus_one(self, rng):
        X = random_frame_vector(rng, 4)
        m = X.J().J()
        np.testing.assert_array_equal(m.u, -X.u)
        assert m.beta == -X.beta and m.gamma == -X.gamma

    def test_J_is_isometric_and_orthogonal(self, rng):
        mp = MetricPoint.exp_model(0.3, 3)
        for _ in range(10):
            X = random_frame_vector(rng, 3)
            assert X.J().norm_sq(mp) == pytest.approx(X.norm_sq(mp), rel=1e-12)
            # mu(X, JX) = 0: the metric is J-invariant
            assert X.inner(X.J(), mp) == pytest.approx(0.0, abs=1e-12 * X.norm_sq(mp))

    def test_inner_symmetry(self, rng):
        mp = MetricPoint.cosh_model(0.5, 3)
        X, Y = random_frame_vector(rng, 3), random_frame_vector(rng, 3)
        assert X.inner(Y, mp) == pytest.approx(Y.inner(X, mp), rel=1e-13)


class TestCurvatureBlocks:
    def test_exp_model_collapses_to_space_form(self):
        blocks = hs_blocks(MetricPoint.exp_model(0.7, 3))
        np.testing.assert_allclose(blocks.G, [[-4.0, -2.0], [-2.0, -4.0]], atol=1e-12)
        np.testing.assert_allclose(blocks.F, -np.ones((2, 2)), atol=1e-12)

    def test_blocks_match_oracle_wedge_components(self):
        # G and F are the curvature components on the normalized wedges of
        # a unit horizontal X with Z; the oracle must reproduce each entry
        for mp in (MetricPoint.cosh_model(0.8, 3), MetricPoint.exp_model(0.5, 3)):
            orc = oracle_for(mp)
            X = FrameVector(np.array([1.0, 0.0]), 0.0, 0.0)
            Z = FrameVector(np.zeros(2), 1.0, 0.0)
            JX, JZ = X.J(), Z.J()
            blocks = hs_blocks(mp)
            f2, g2 = mp.f**2, mp.g**2
            assert orc(X, JX, X, JX) / f2**2 == pytest.approx(blocks.G[0, 0], rel=1e-12)
            assert orc(X, JX, Z, JZ) / (f2 * g2) == pytest.approx(blocks.G[0, 1], rel=1e-12)
            assert orc(Z, JZ, Z, JZ) / g2**2 == pytest.approx(blocks.G[1, 1], rel=1e-12)
            assert orc(X, Z, X, Z) / (f2 * g2) == pytest.approx(blocks.F[0, 0], rel=1e-12)
            assert orc(X, Z, JX, JZ) / (f2 * g2) == pytest.approx(blocks.F[0, 1], rel=1e-12)
            assert orc(JX, Z, JX, Z) / (f2 * g2) == pytest.approx(blocks.F[1, 1], rel=1e-12)

    def test_cosh_model_closed_form_values(self):
        # f = cosh: f''/f = 1 and f'''/f' = 1, so only G[0,0] varies with t
        t = 1.1
        blocks = hs_blocks(MetricPoint.cosh_model(t, 3))
        assert blocks.G[0, 0] == pytest.approx(-4.0 * math.tanh(t) ** 2, rel=1e-14)
        assert blocks.G[0, 1] == pytest.approx(-2.0, rel=1e-14)
        assert blocks.G[1, 1] == pytest.approx(-4.0, rel=1e-14)
        assert np.all(blocks.F == -1.0)


class TestBisectional:
    def test_matches_oracle_on_random_draws(self, rng):
        for mp in sample_points():
            orc = oracle_for(mp)
            for _ in range(40):
                Y = random_frame_vector(rng, mp.n)
                Xi = random_frame_vector(rng, mp.n)
                closed = bisectional(Y, Xi, mp)
                assert closed == pytest.approx(orc.bisectional(Y, Xi), rel=1e-8, abs=1e-10)

    def test_symmetric_in_arguments(self, rng):
        mp = MetricPoint.cosh_model(0.9, 3)
        Y, Xi = random_frame_vector(rng, 3), random_frame_vector(rng, 3)
        assert bisectional(Y, Xi, mp) == pytest.approx(bisectional(Xi, Y, mp), rel=1e-10)

    def test_degenerate_arguments(self):
        mp = MetricPoint.exp_model(0.2, 3)
        zero = FrameVector(np.zeros(2), 0.0, 0.0)
        Y = FrameVector(np.array([1.0, 0.0]), 0.3, -0.2)
        assert bisectional(zero, Y, mp) == 0.0

    def test_nonpositive_on_default_profile(self, default_profile, rng):
        for _ in range(60):
            t = float(rng.uniform(0.05, default_profile.A))
            mp = MetricPoint.from_profile(default_profile, t, 3)
            Y = random_frame_vector(rng, 3)
            Xi = random_frame_vector(rng, 3)
            assert bisectional(Y, Xi, mp) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(small, small, small, small, small, small, small, small)
    def test_cauchy_schwarz_slack_nonnegative(self, a1, b1, c1, d1, a2, b2, c2, d2):
        Y = FrameVector(np.array([a1 + 1j * b1]), c1, d1)
        Xi = FrameVector(np.array([a2 + 1j * b2]), c2, d2)
        assert cauchy_schwarz_defect(Y, Xi) >= -1e-12


class TestRicci:
    def test_matches_oracle_trace(self, rng):
        for mp in sample_points():
            for _ in range(15):
                Xi = random_frame_vector(rng, mp.n)
                assert ricci(Xi, mp) == pytest.approx(ricci_trace(Xi, mp), rel=1e-9, abs=1e-10)

    def test_einstein_at_exp(self, rng):
        for n in (2, 3, 4):
            mp = MetricPoint.exp_model(0.6, n)
            for _ in range(10):
                Xi = random_frame_vector(rng, n)
                defect = ricci(Xi, mp) + (2 * n + 2) * Xi.norm_sq(mp)
                assert abs(defect) <= 1e-8 * max(1.0, Xi.norm_sq(mp))

    def test_cosh_region_upper_bound(self, rng):
        # f = cosh gives Ricci <= -2 |Xi|^2 pointwise for every n
        for t in (0.05, 0.3, 0.9):
            for n in (2, 3):
                mp = MetricPoint.cosh_model(t, n)
                for _ in range(10):
                    Xi = random_frame_vector(rng, n)
                    assert ricci(Xi, mp) <= -2.0 * Xi.norm_sq(mp) + 1e-10

    def test_eigenvalue_split(self):
        # pure horizontal and pure central vectors are Ricci eigenvectors
        mp = MetricPoint.cosh_model(0.7, 3)
        H = FrameVector(np.array([1.0, 0.0]), 0.0, 0.0)
        C = FrameVector(np.zeros(2), 1.0, 0.0)
        coef_h = 2.0 * mp.f * mp.fpp + 4.0 * mp.fp**2 + 2.0 * mp.fp**2
        coef_z = 7.0 * mp.f * mp.fp**2 * mp.fpp + mp.f**2 * mp.fp * mp.fppp
        assert ricci(H, mp) == pytest.approx(-coef_h, rel=1e-14)
        assert ricci(C, mp) == pytest.approx(-coef_z, rel=1e-14)
        assert ricci_coefficients(mp) == (coef_h, coef_z)


class TestAuxiliaryIdentities:
    def test_rz_plane_matches_oracle(self, rng):
        for mp in (MetricPoint.cosh_model(0.6, 3), MetricPoint.exp_model(1.0, 3)):
            orc = oracle_for(mp)
            U = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            Z = FrameVector(np.zeros(2), 1.0, 0.0)
            X = FrameVector(U, 0.0, 0.0)
            assert rz_plane_curvature(U, U, mp) == pytest.approx(
                orc(X, Z, X, Z), rel=1e-10
            )

    def test_bianchi_defect_small(self, rng):
        mp = MetricPoint.cosh_model(1.2, 3)
        orc = oracle_for(mp)
        for _ in range(20):
            X = random_frame_vector(rng, 3)
            Y = random_frame_vector(rng, 3)
            scale = max(1.0, X.norm_sq(mp) * Y.norm_sq(mp))
            assert bianchi_check(orc, X, Y) <= 1e-9 * scale

    def test_poly_P_identity(self, rng):
        mp = MetricPoint.exp_model(0.5, 3)
        orc = oracle_for(mp)
        for _ in range(20):
            v = random_frame_vector(rng, 3)
            w = random_frame_vector(rng, 3)
            a = float(rng.uniform(0.1, 2.0))
            lhs, rhs = poly_P(v, w, a, orc)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-8)

    def test_discriminant_inequality_at_exp(self, rng):
        mp = MetricPoint.exp_model(0.3, 3)
        orc = oracle_for(mp)
        assert all(
            discriminant_inequality(
                random_frame_vector(rng, 3), random_frame_vector(rng, 3), orc
            )
            for _ in range(50)
        )


class TestOracle:
    def test_tensor_symmetries(self, rng):
        mp = MetricPoint.cosh_model(0.8, 3)
        orc = oracle_for(mp)
        X, Y, Z, W = (random_frame_vector(rng, 3) for _ in range(4))
        r = orc(X, Y, Z, W)
        assert orc(Y, X, Z, W) == pytest.approx(-r, rel=1e-10, abs=1e-12)
        assert orc(X, Y, W, Z) == pytest.approx(-r, rel=1e-10, abs=1e-12)
        assert orc(Z, W, X, Y) == pytest.approx(r, rel=1e-10, abs=1e-12)

    def test_oracle_cache_returns_same_object(self):
        mp = MetricPoint.exp_model(0.1, 3)
        assert oracle_for(mp) is oracle_for(MetricPoint.exp_model(0.1, 3))

    def test_degenerate_plane_rejected(self):
        orc = oracle_for(MetricPoint.exp_model(0.0, 3))
        X = FrameVector(np.array([1.0, 0.0]), 0.0, 0.0)
        with pytest.raises(ValueError, match="degenerate"):
            orc.sectional(X, 2.0 * X)

    @settings(max_examples=40, deadline=None)
    @given(small, small, small, small, small, small)
    def test_exp_sectional_pinched(self, a, b, c, d, e, f):
        orc = oracle_for(MetricPoint.exp_model(0.0, 2))
        X = FrameVector(np.array([a + 1j * b]), c, 0.0)
        Y = FrameVector(np.array([d + 1j * e]), f, 1.0)
        mp = orc.mp
        area = X.norm_sq(mp) * Y.norm_sq(mp) - X.inner(Y, mp) ** 2
        if area <= 1e-8:
            return
        k = orc.sectional(X, Y)
        assert -4.0 - 1e-8 <= k <= -1.0 + 1e-8

    def test_oracle_curvature_wrapper(self, rng):
        mp = MetricPoint.exp_model(0.2, 3)
        X, Y = random_frame_vector(rng, 3), random_frame_vector(rng, 3)
        assert oracle_curvature(X, Y, X, Y, mp) == oracle_for(mp)(X, Y, X, Y)


def per_sample_certificate(p, samples, n, seed, t_lo=0.05, strict_ratio=1e-10):
    """The certificate with one profile jet per draw, as a reference for the
    batched evaluation in hbc_certificate."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(t_lo, p.A, samples)
    failures = []
    max_val, min_val = -math.inf, math.inf
    worst_ratio, min_slack = -math.inf, math.inf
    for k in range(samples):
        t = float(ts[k])
        mp = MetricPoint.from_profile(p, t, n)
        Y = random_frame_vector(rng, n)
        Xi = random_frame_vector(rng, n)
        if k % 97 == 0:
            Y = FrameVector(np.zeros(n - 1), 1.0, 0.0)
        val = bisectional(Y, Xi, mp)
        max_val, min_val = max(max_val, val), min(min_val, val)
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


class TestCertificate:
    @pytest.mark.parametrize("samples", [1, 97, 98, 1000])
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_batched_matches_per_sample(self, default_profile, samples, n, seed):
        for strict_ratio in (1e-10, 10.0):
            rep = hbc_certificate(
                default_profile, samples, n=n, seed=seed, strict_ratio=strict_ratio
            )
            ref = per_sample_certificate(
                default_profile, samples, n, seed, strict_ratio=strict_ratio
            )
            assert rep == ref

    def test_default_profile_passes(self, default_profile):
        rep = hbc_certificate(default_profile, samples=400, n=3, seed=5)
        assert rep.passed
        assert rep.samples == 400
        assert rep.max_value <= 1e-12
        assert rep.worst_interior_ratio < 0.0
        assert rep.min_cs_slack >= -1e-12
        assert "pass" in rep.summary()

    def test_impossible_threshold_is_reported(self, default_profile):
        # strict negativity at ratio >= -10 cannot hold (ratios are tiny
        # and negative), so the certificate must fail loudly, not quietly
        rep = hbc_certificate(default_profile, samples=50, n=3, seed=5, strict_ratio=10.0)
        assert not rep.passed
        assert rep.failures
        assert rep.failures[0][0] == "strict negativity"
        assert "FAIL" in rep.summary()


class TestFrameDraw:
    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_block_draw_matches_single_draws(self, n):
        S = 60
        F = random_frame_vector(np.random.default_rng(7), n, (S, 2))
        assert F.u.shape == (S, 2, n - 1) and F.beta.shape == (S, 2)
        rng = np.random.default_rng(7)
        for k in range(S):
            for j in range(2):
                # the per-vector order: Re u, Im u, then beta and gamma
                u = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
                beta, gamma = rng.standard_normal(2)
                v = F[k, j]
                assert np.array_equal(v.u, u)
                assert (v.beta, v.gamma) == (beta, gamma)

    def test_empty_shape_is_one_vector(self):
        a = random_frame_vector(np.random.default_rng(3), 4)
        b = random_frame_vector(np.random.default_rng(3), 4, (1,))[0]
        assert a.u.shape == (3,) and np.ndim(a.beta) == 0 and np.ndim(a.gamma) == 0
        assert np.array_equal(a.u, b.u) and (a.beta, a.gamma) == (b.beta, b.gamma)


class TestBatchedEvaluation:
    """A batch of rows evaluates bitwise like the same rows one at a time;
    n = 9 crosses numpy's 8-element pairwise-summation block."""

    ROWS = 500

    def draw(self, p, n, seed):
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0.05, p.A, self.ROWS)
        F = random_frame_vector(rng, n, (self.ROWS, 2))
        Y, Xi = F[:, 0], F[:, 1]
        # pure central Y on every 97th row, as in the certificate
        Y.u[::97], Y.beta[::97], Y.gamma[::97] = 0.0, 1.0, 0.0
        return ts, Y, Xi

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_closed_forms_match_per_row(self, default_profile, n):
        ts, Y, Xi = self.draw(default_profile, n, seed=40 + n)
        jets = default_profile.jet_at(ts)
        mp = MetricPoint.from_jet(ts, jets, n)
        rows = [
            (Y[k], Xi[k], MetricPoint.from_jet(ts[k], jets[k], n))
            for k in range(self.ROWS)
        ]
        cases = [
            (bisectional(Y, Xi, mp), lambda y, xi, m: bisectional(y, xi, m)),
            (ricci(Xi, mp), lambda y, xi, m: ricci(xi, m)),
            (Y.norm_sq(mp), lambda y, xi, m: y.norm_sq(m)),
            (Y.inner(Xi, mp), lambda y, xi, m: y.inner(xi, m)),
            (cauchy_schwarz_defect(Y, Xi), lambda y, xi, m: cauchy_schwarz_defect(y, xi)),
        ]
        for batched, per_row in cases:
            assert batched.shape == (self.ROWS,)
            assert np.array_equal(batched, [per_row(*r) for r in rows])

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_oracle_matches_per_row(self, default_profile, n):
        ts, Y, Xi = self.draw(default_profile, n, seed=50 + n)
        orc = CurvatureOracle(MetricPoint.from_profile(default_profile, ts[0], n))
        rows = [(Y[k], Xi[k]) for k in range(self.ROWS)]
        batched = orc.evaluate(Y, Xi, Y.J(), Xi.J())
        assert np.array_equal(batched, [orc.evaluate(y, xi, y.J(), xi.J()) for y, xi in rows])
        batched = orc.sectional(Y, Xi)
        assert np.array_equal(batched, [orc.sectional(y, xi) for y, xi in rows])

    def test_from_jet_rejects_one_bad_row(self, default_profile):
        ts = np.linspace(0.05, default_profile.A, 50)
        jets = default_profile.jet_at(ts)
        MetricPoint.from_jet(ts, jets, 3)
        jets[17, 3] = 0.0
        with pytest.raises(ValueError, match="> 0"):
            MetricPoint.from_jet(ts, jets, 3)
