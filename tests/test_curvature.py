"""Tests for the warped-metric curvature formulas against the Koszul oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge import curvature, profile
from cuspforge.curvature import (
    CertificateReport,
    CurvatureOracle,
    FrameVector,
    MetricPoint,
    bianchi_check,
    bisectional,
    discriminant_inequality,
    hbc_certificate,
    hs_blocks,
    oracle_for,
    poly_P,
    random_frame_vector,
    ricci,
    ricci_coefficients,
)
from cuspforge.curvature import _cauchy_schwarz_defect, _norm_product, _pair_data

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
            MetricPoint(1.0, 1.0, 1.0, 1.0, 1.0, n=1)

    def test_positivity_validation(self):
        with pytest.raises(ValueError, match="positive|> 0"):
            MetricPoint(1.0, 1.0, 0.0, 1.0, 1.0, n=3)

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

    def test_rows_of_a_batch_equal_from_profile(self, default_profile):
        # the sweep and the Ricci route slice one batch of jets into blocks
        ts = np.random.default_rng(9).uniform(0.0, 6.0, 300)
        mp = MetricPoint.from_profile(default_profile, ts, 3)
        for rows in (*profile.blocks(300, 1000), slice(299, None), [250, 3]):
            got, want = mp[rows], MetricPoint.from_profile(default_profile, ts[rows], 3)
            for name in ("t", "f", "fp", "fpp", "fppp"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert mp[5] == MetricPoint.from_profile(default_profile, float(ts[5]), 3)
        assert mp[5][None].f.shape == (1,) and mp[5][None].f[0] == mp.f[5]

    def test_cosh_model_rejects_origin(self):
        with pytest.raises(ValueError):
            MetricPoint.cosh_model(0.0, 3)

    def test_rejects_g_squared_below_least_normal(self, default_profile):
        # g = f f' is about t near 0, and g^2 leaves the normal floats at
        # t of about 1.49e-154; the error names the least such t of a batch
        ts = np.array([1e-300, 1e-200, 1.4e-154, 1.5e-154, 0.5])
        with pytest.raises(ValueError, match=r"t = 1e-300: g\^2 = \(f f'\)\^2 underflows"):
            MetricPoint.from_profile(default_profile, ts, 3)
        with pytest.raises(ValueError, match=r"t = 1.4e-154: g\^2"):
            MetricPoint.from_profile(default_profile, 1.4e-154, 8)
        mp = MetricPoint.from_profile(default_profile, ts[3:], 3)
        assert np.all(np.isfinite(mp.g * mp.g)) and np.min(mp.g * mp.g) >= np.finfo(float).tiny


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
        assert _cauchy_schwarz_defect(_pair_data(Y, Xi)) >= -1e-12


class TestRicci:
    def test_matches_oracle_trace(self, rng):
        for mp in sample_points():
            for _ in range(15):
                Xi = random_frame_vector(rng, mp.n)
                assert ricci(Xi, mp) == pytest.approx(oracle_for(mp).ricci(Xi), rel=1e-9, abs=1e-10)

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
        # the raw-jet expression, an independent reference for the trace
        coef_h = 2.0 * mp.f * mp.fpp + 4.0 * mp.fp**2 + 2.0 * mp.fp**2
        coef_z = 7.0 * mp.f * mp.fp**2 * mp.fpp + mp.f**2 * mp.fp * mp.fppp
        assert ricci(H, mp) == pytest.approx(-coef_h, rel=1e-14)
        assert ricci(C, mp) == pytest.approx(-coef_z, rel=1e-14)
        # the trace in the coefficients h, m, z, bit for bit
        r, m = mp.fp / mp.f, mp.fpp / mp.f
        h, z = 2.0 * (r * r), 3.0 * m + mp.fppp / mp.fp
        f2, g2 = mp.f * mp.f, mp.g * mp.g
        assert ricci_coefficients(mp) == (f2 * (3 * h + 2.0 * m), g2 * (z + 4.0 * m))

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_trace_of_bisectional(self, rng, n):
        # Kahler: Ricci(Y, Y) is the sum of R(Y ^ JY, e ^ Je) over the
        # unitary frame e_j = unit_j / f, e_Z = Z / g; free jets, 200 draws
        f, fp, fpp, fppp = rng.uniform(0.05, 3.0, (4, 200))
        mp = MetricPoint(t=1.0, f=f, fp=fp, fpp=fpp, fppp=fppp, n=n)
        Y = random_frame_vector(rng, n, (200,))
        zero = np.zeros(200)
        frame = [FrameVector(np.eye(n - 1)[j] / f[:, None], zero, zero) for j in range(n - 1)]
        frame.append(FrameVector(np.zeros((200, n - 1)), 1.0 / mp.g, zero))
        trace = sum(bisectional(Y, e, mp) for e in frame)
        np.testing.assert_allclose(trace, ricci(Y, mp), rtol=1e-14, atol=0.0)


class TestAuxiliaryIdentities:
    def test_rz_plane_matches_oracle(self, rng):
        # R(U ^ Z, U ^ Z) = F[0, 0] f^2 g^2 |U|^2 for any horizontal U, not
        # only the unit X of the block test
        for mp in (MetricPoint.cosh_model(0.6, 3), MetricPoint.exp_model(1.0, 3)):
            orc = oracle_for(mp)
            U = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            Z = FrameVector(np.zeros(2), 1.0, 0.0)
            X = FrameVector(U, 0.0, 0.0)
            expected = hs_blocks(mp).F[0, 0] * mp.f**2 * mp.g**2 * np.vdot(U, U).real
            assert expected == pytest.approx(orc(X, Z, X, Z), rel=1e-10)

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


def per_sample_certificate(p, samples, n, seed, strict_ratio=1e-10):
    """The certificate with one profile jet per draw, as a reference for the
    batched evaluation in hbc_certificate."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.05, p.A, samples)
    failures = []
    max_val, worst_ratio, min_slack = -math.inf, -math.inf, math.inf
    for k in range(samples):
        t = float(ts[k])
        mp = MetricPoint.from_profile(p, t, n)
        Y = random_frame_vector(rng, n)
        Xi = random_frame_vector(rng, n)
        if k % 97 == 0:
            Y = FrameVector(np.zeros(n - 1), 1.0, 0.0)
        val = bisectional(Y, Xi, mp)
        max_val = max(max_val, val)
        if val > 1e-12:
            failures.append(("nonpositivity", k, t, val))
        denom = Y.norm_sq(mp) * Xi.norm_sq(mp)
        if denom > 0.0:
            ratio = val / denom
            worst_ratio = max(worst_ratio, ratio)
            if ratio >= -strict_ratio:
                failures.append(("strict negativity", k, t, ratio))
        slack = _cauchy_schwarz_defect(_pair_data(Y, Xi))
        min_slack = min(min_slack, slack)
        if slack < -1e-12:
            failures.append(("cauchy-schwarz", k, t, slack))
    return CertificateReport(
        samples=samples,
        max_value=max_val,
        worst_interior_ratio=worst_ratio,
        min_cs_slack=min_slack,
        failures=failures[:10],
    )


class TestCertificate:
    # None keeps BLOCK_ELEMENTS; 100 elements make blocks of 8 samples at
    # n = 3 and of 5 at n = 5, so corners and failures straddle seams
    @pytest.mark.parametrize(
        "samples,elements",
        [
            *(pytest.param(k, None, id=str(k)) for k in (0, 1, 97, 98, 1000)),
            pytest.param(98, 100, id="98-block100"),
            pytest.param(1000, 100, id="1000-block100"),
        ],
    )
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_batched_matches_per_sample(self, default_profile, samples, elements, n, seed, monkeypatch):
        if elements is not None:
            monkeypatch.setattr(profile, "BLOCK_ELEMENTS", elements)
        for strict_ratio in (1e-10, 10.0):
            monkeypatch.setattr(curvature, "STRICT_RATIO", strict_ratio)
            rep = hbc_certificate(default_profile, samples, n=n, seed=seed)
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

    @pytest.mark.parametrize("n", [2, 3])
    def test_margin_is_the_least_of_its_three_conditions(self, default_profile, n):
        # at n = 2 the Cauchy-Schwarz slack sets it, about 2,400 times
        # closer to failing than the ratio
        rep = hbc_certificate(default_profile, 20_000, n=n, seed=3)
        terms = (
            curvature.NONPOSITIVE_TOL - rep.max_value,
            -curvature.STRICT_RATIO - rep.worst_interior_ratio,
            rep.min_cs_slack + curvature.CS_TOL,
        )
        assert rep.passed and rep.margin == min(terms) > 0.0
        if n == 2:
            assert rep.margin == terms[2] < 1e-5 < terms[1]

    def test_temporaries_do_not_grow_with_samples(self, default_profile, traced_peak):
        # 3.4 MiB measured, where one batch over all samples peaks at 109 MiB;
        # the 200,000 draws of t alone take 1.5 MiB
        hbc_certificate(default_profile, 200, n=3, seed=1)
        assert traced_peak(lambda: hbc_certificate(default_profile, 200_000, n=3, seed=1)) <= 8 * 2**20

    def test_impossible_threshold_is_reported(self, default_profile, monkeypatch):
        # strict negativity at ratio >= -10 cannot hold (ratios are tiny
        # and negative), so the certificate must fail loudly, not quietly
        monkeypatch.setattr(curvature, "STRICT_RATIO", 10.0)
        rep = hbc_certificate(default_profile, samples=50, n=3, seed=5)
        assert not rep.passed
        assert rep.failures
        assert rep.failures[0][0] == "strict negativity"
        assert "FAIL" in rep.summary()
        # every interior sample fails, and each failure names the sample
        # index at which its t is drawn from the seed
        ts = np.random.default_rng(5).uniform(0.05, default_profile.A, 50)
        assert [f[1] for f in rep.failures] == list(range(10))
        assert all(t == ts[index] for _, index, t, _ in rep.failures)

    def test_nan_sample_fails(self, default_profile, monkeypatch):
        # every comparison with a NaN is False, so each failure test is
        # written as the negation of its pass condition
        exact = curvature._bisectional
        monkeypatch.setattr(curvature, "_bisectional", lambda pd, mp: exact(pd, mp) * np.nan)
        rep = hbc_certificate(default_profile, samples=200, n=3, seed=5)
        assert rep.passed is False
        assert math.isnan(rep.max_value) and math.isnan(rep.worst_interior_ratio)
        kind, index, t, value = rep.failures[0]
        assert kind == "nonpositivity" and math.isnan(value)
        assert index == 0 and t == np.random.default_rng(5).uniform(0.05, default_profile.A, 1)[0]
        assert {f[0] for f in rep.failures} == {"nonpositivity", "strict negativity"}


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
    n = 9 crosses numpy's 8-element pairwise-summation block, and at n = 9
    and 16 a horizontal row holds 8 and 15 terms."""

    ROWS = 500

    def draw(self, p, n, seed):
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0.05, p.A, self.ROWS)
        F = random_frame_vector(rng, n, (self.ROWS, 2))
        Y, Xi = F[:, 0], F[:, 1]
        # pure central Y on every 97th row, as in the certificate
        Y.u[::97], Y.beta[::97], Y.gamma[::97] = 0.0, 1.0, 0.0
        return ts, Y, Xi

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 16])
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
            (_cauchy_schwarz_defect(_pair_data(Y, Xi)),
             lambda y, xi, m: _cauchy_schwarz_defect(_pair_data(y, xi))),
        ]
        for batched, per_row in cases:
            assert batched.shape == (self.ROWS,)
            assert np.array_equal(batched, [per_row(*r) for r in rows])
        per_row = [_pair_data(y, xi) for y, xi, _ in rows]
        for k, batched in enumerate(_pair_data(Y, Xi)):
            assert np.array_equal(batched, [data[k] for data in per_row])

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_norm_product_matches_norms(self, default_profile, n):
        # |Y|^2 |Xi|^2 from the pair data, as the certificate reads it on
        # rows and the sweep on (T, 1) jets against (S,) pairs
        ts, Y, Xi = self.draw(default_profile, n, seed=80 + n)
        pair_data = _pair_data(Y, Xi)
        for t in (ts, ts[:40, None]):
            mp = MetricPoint.from_profile(default_profile, t, n)
            got, want = _norm_product(pair_data, mp), Y.norm_sq(mp) * Xi.norm_sq(mp)
            assert got.shape == want.shape == np.broadcast_shapes(t.shape, (self.ROWS,))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_oracle_matches_per_row(self, default_profile, n):
        ts, Y, Xi = self.draw(default_profile, n, seed=50 + n)
        orc = CurvatureOracle(MetricPoint.from_profile(default_profile, ts[0], n))
        rows = [(Y[k], Xi[k]) for k in range(self.ROWS)]
        batched = orc.evaluate(Y, Xi, Y.J(), Xi.J())
        assert np.array_equal(batched, [orc.evaluate(y, xi, y.J(), xi.J()) for y, xi in rows])
        batched = orc.sectional(Y, Xi)
        assert np.array_equal(batched, [orc.sectional(y, xi) for y, xi in rows])

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_oracle_broadcasts_one_frame_against_a_batch(self, default_profile, n):
        ts, Y, Xi = self.draw(default_profile, n, seed=60 + n)
        orc = CurvatureOracle(MetricPoint.from_profile(default_profile, ts[0], n))
        xi = Xi[0]
        batched = orc.bisectional(Y, xi)
        assert batched.shape == (self.ROWS,)
        assert np.array_equal(batched, [orc.bisectional(Y[k], xi) for k in range(self.ROWS)])
        # the single frame leads each outer product
        batched = orc.evaluate(xi, Y, xi.J(), Y.J())
        assert batched.shape == (self.ROWS,)
        expect = [orc.evaluate(xi, Y[k], xi.J(), Y[k].J()) for k in range(self.ROWS)]
        assert np.array_equal(batched, expect)

    def test_oracle_broadcasts_node_by_row_batch(self, default_profile):
        # the (t nodes, rows) draw shape of the formula_vs_oracle check
        n, nodes, rows = 3, 40, 10
        F = random_frame_vector(np.random.default_rng(71), n, (nodes, rows, 2))
        Y, Xi = F[:, :, 0], F[:, :, 1]
        orc = CurvatureOracle(MetricPoint.from_profile(default_profile, 2.5, n))
        batched = orc.bisectional(Y, Xi)
        assert batched.shape == (nodes, rows)
        expect = [[orc.bisectional(Y[s, r], Xi[s, r]) for r in range(rows)] for s in range(nodes)]
        assert np.array_equal(batched, expect)

    def test_oracle_blocks_match_one_block(self, default_profile, monkeypatch):
        # node-by-row batches whose first axis comes from the oracle, the
        # frames or both, then a row batch at one point, then the sweep's
        # (T, 1) oracle against (120,) pairs, whose pair products are formed
        # once for all blocks: one block each, against blocks of one node or
        # row
        n = 5
        F = random_frame_vector(np.random.default_rng(73), n, (40, 10, 2))
        Y, Xi = F[:, :, 0], F[:, :, 1]
        pairs = random_frame_vector(np.random.default_rng(75), n, (120, 2))
        ts = np.linspace(0.05, default_profile.A, 40)[:, None]
        nodes = CurvatureOracle(MetricPoint.from_profile(default_profile, ts, n))
        point = CurvatureOracle(MetricPoint.from_profile(default_profile, 2.5, n))

        def calls():
            return (
                nodes.bisectional(Y, Xi),
                nodes.bisectional(Y[0], Xi[0]),
                nodes.bisectional(Y[:1], Xi[:1]),
                point.sectional(Y[:, 0], Xi[:, 0]),
                nodes.sectional(pairs[:, 0], pairs[:, 1]),
            )

        monkeypatch.setattr(profile, "BLOCK_ELEMENTS", 2**40)
        whole = calls()
        monkeypatch.setattr(profile, "BLOCK_ELEMENTS", 1)
        for one, blocked in zip(whole, calls()):
            assert np.array_equal(one, blocked)
        assert [x.shape for x in whole] == [(40, 10)] * 3 + [(40,), (40, 120)]

    def test_oracle_temporaries_are_bounded(self, traced_peak):
        # 1.0 MiB measured for 1,000 planes at n = 32, where the pair
        # products of one call over all of them take 38 MiB (92 MiB peak)
        n = 32
        mp = MetricPoint.exp_model(0.0, n)
        orc = CurvatureOracle(mp)
        F = random_frame_vector(np.random.default_rng(74), n, (1000, 2))
        X, Y = F[:, 0], F[:, 1]
        assert traced_peak(lambda: orc.sectional(X, Y)) <= 4 * 2**20

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_oracle_ricci_matches_per_row(self, default_profile, n):
        ts, _, Xi = self.draw(default_profile, n, seed=80 + n)
        orc = CurvatureOracle(MetricPoint.from_profile(default_profile, ts[0], n))
        batched = orc.ricci(Xi)
        assert batched.shape == (self.ROWS,)
        assert np.array_equal(batched, [orc.ricci(Xi[k]) for k in range(self.ROWS)])

    def test_from_jet_rejects_one_bad_row(self, default_profile):
        ts = np.linspace(0.05, default_profile.A, 50)
        jets = default_profile.jet_at(ts)
        MetricPoint.from_jet(ts, jets, 3)
        jets[17, 3] = 0.0
        with pytest.raises(ValueError, match="> 0"):
            MetricPoint.from_jet(ts, jets, 3)


class TestOracleContraction:
    """The (y ^ z)^T RL (w ^ v) contraction against a direct sum over the
    four indices of the reference builder's R, within a rounding bound of
    64 eps times the sum of the absolute terms."""

    ROWS = 200

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_matches_four_index_sum(self, default_profile, n):
        rng = np.random.default_rng(90 + n)
        eps = np.finfo(float).eps
        for t in rng.uniform(0.05, default_profile.A, 3):
            mp = MetricPoint.from_profile(default_profile, t, n)
            orc = CurvatureOracle(mp)
            R = reference_oracle_tensor(mp)[0]
            F = random_frame_vector(rng, n, (self.ROWS, 4))
            got = orc.evaluate(F[:, 0], F[:, 1], F[:, 2], F[:, 3])
            for k in range(self.ROWS):
                y, z, w, v = (orc.frame_coords(F[k, j]) for j in range(4))
                ref = np.einsum("ijkl,i,j,k,l->", R, y, z, w, v)
                mass = np.einsum("ijkl,i,j,k,l->", np.abs(R), *map(np.abs, (y, z, w, v)))
                assert abs(got[k] - ref) <= 64.0 * eps * mass

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_matches_four_index_sum_near_the_divisor(self, default_profile, n):
        # g is small there, and the wedges carry gamma where the reference
        # frame coordinates carry gamma g: the powers of g ride on RLg
        rng = np.random.default_rng(190 + n)
        eps = np.finfo(float).eps
        for t in (0.01, 0.05):
            mp = MetricPoint.from_profile(default_profile, t, n)
            orc = CurvatureOracle(mp)
            R = reference_oracle_tensor(mp)[0]
            F = random_frame_vector(rng, n, (self.ROWS, 4))
            got = orc.evaluate(F[:, 0], F[:, 1], F[:, 2], F[:, 3])
            for k in range(self.ROWS):
                x = [orc.frame_coords(F[k, j]) for j in range(4)]
                ref = np.einsum("ijkl,i,j,k,l->", R, *x)
                mass = np.einsum("ijkl,i,j,k,l->", np.abs(R), *map(np.abs, x))
                assert abs(got[k] - ref) <= 64.0 * eps * mass


def reference_oracle_tensor(mp):
    """(R, Ric) from the Koszul formula on second-order jets: the metric
    coefficients carried as (value, d/dt, d2/dt2) and every contraction a
    dense einsum, as the oracle was first written."""

    def jet_mul(A, B):
        a0, a1, a2 = A[..., 0], A[..., 1], A[..., 2]
        b0, b1, b2 = B[..., 0], B[..., 1], B[..., 2]
        return np.stack([a0 * b0, a1 * b0 + a0 * b1, a2 * b0 + 2.0 * a1 * b1 + a0 * b2], axis=-1)

    def jet_inv(A):
        a0, a1, a2 = A[..., 0], A[..., 1], A[..., 2]
        v = 1.0 / a0
        return np.stack([v, -a1 * v**2, (2.0 * a1**2 - a0 * a2) * v**3], axis=-1)

    n = mp.n
    m = 2 * n
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

    gamma = jet_mul(K, jet_inv(2.0 * M)[None, None, :, :])
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
    R = R_up * M[:, 0][None, None, None, :]
    return R, np.einsum("ijkj->ik", R / M[:, 0])


def reference_points(profile, n):
    """The 12 points of the builder tests: cosh region (t <= 0.3 near the
    divisor), window (1, 5), exp region, and both models."""
    ts = (0.05, 0.3, 0.7, 1.5, 3.0, 4.8, 5.5, 6.0)
    points = [MetricPoint.from_profile(profile, t, n) for t in ts]
    points += [MetricPoint.exp_model(0.0, n), MetricPoint.exp_model(1.3, n)]
    points += [MetricPoint.cosh_model(0.2, n), MetricPoint.cosh_model(1.6, n)]
    return points


def reference_on_pairs(mp):
    """The reference builder's R restricted to pairs and antisymmetrized,
    shape (p, p), and its Ric."""
    R, Ric = reference_oracle_tensor(mp)
    I, J = np.triu_indices(2 * mp.n, 1)
    K, L = I[None, :], J[None, :]
    return 0.5 * (R[I[:, None], J[:, None], K, L] - R[I[:, None], J[:, None], L, K]), R, Ric


class TestOracleBuild:
    """The oracle's operator on pairs against the jet-and-einsum reference
    builder restricted to pairs, within 64 eps of the largest entry of R
    with its last index raised; that entry, not R's, sets the size of the
    terms that cancel near the divisor, where g^2 is small."""

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_matches_reference_builder(self, default_profile, n):
        eps = np.finfo(float).eps
        I, J = np.triu_indices(2 * n, 1)
        K, L = I[None, :], J[None, :]
        for mp in reference_points(default_profile, n):
            orc = CurvatureOracle(mp)
            RL, R, Ric = reference_on_pairs(mp)
            # the coordinate form scattered into the dense (p, p) operator
            dense = np.zeros((I.size, I.size))
            dense[orc.rows, orc.cols] = orc.RL
            norms = np.array([1.0] + [mp.f * mp.f] * (2 * n - 2) + [mp.g * mp.g])
            bound = 64.0 * eps * np.abs(R / norms).max()
            assert np.all(np.abs(dense - RL) <= bound * 0.5 * (norms[K] + norms[L]))
            assert np.all(np.abs(orc.Ric - np.diagonal(Ric)) <= bound)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_reference_vanishes_off_the_pattern(self, default_profile, n):
        # the pattern comes from the brackets and the metric's shape alone;
        # the independent builder must be exactly 0 everywhere else
        for mp in reference_points(default_profile, n):
            orc = CurvatureOracle(mp)
            RL = reference_on_pairs(mp)[0]
            off = np.ones(RL.shape, dtype=bool)
            off[orc.rows, orc.cols] = False
            assert np.all(RL[off] == 0.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_reference_ricci_is_diagonal(self, default_profile, n):
        # the oracle keeps only the diagonal of Ric; the independent builder
        # must be exactly 0 off it
        off = ~np.eye(2 * n, dtype=bool)
        for mp in reference_points(default_profile, n):
            Ric = reference_oracle_tensor(mp)[1]
            assert np.all(Ric[off] == 0.0)

    def test_holds_the_operator_on_pairs_only(self, default_profile):
        # at n = 16 the dense operator on pairs would be 496 x 496; the
        # coordinate form holds its 1,216 structural nonzeros and the 32
        # diagonal entries of Ric
        orc = CurvatureOracle(MetricPoint.from_profile(default_profile, 2.5, 16))
        assert orc.RL.shape == orc.rows.shape == orc.cols.shape == (1216,)
        assert orc.Ric.shape == (32,)
        held = [v for v in vars(orc).values() if isinstance(v, np.ndarray)]
        assert held and max(a.size for a in held) <= 2 * 1216 + 32

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_keeps_one_operator_and_reads_ricci_off_its_diagonal(self, default_profile, n):
        # RL, with rows and cols, is the only array of operator size, and
        # Ric[i, i] is the sum over j != i, in order, of RL's diagonal entry
        # at the pair of i and j over M_j
        I, J = np.triu_indices(2 * n, 1)
        pair = {(i, j): k for k, (i, j) in enumerate(zip(I, J))}
        for mp in reference_points(default_profile, n):
            orc = CurvatureOracle(mp)
            wide = [k for k, v in vars(orc).items() if np.shape(v)[-1:] == orc.RL.shape]
            assert wide == ["RL", "rows", "cols"]
            diagonal = dict(zip(orc.rows[orc.rows == orc.cols], orc.RL[orc.rows == orc.cols]))
            assert sorted(diagonal) == list(range(I.size))
            M = [1.0] + [mp.f * mp.f] * (2 * n - 2) + [mp.g * mp.g]
            for i in range(2 * n):
                terms = [diagonal[pair[min(i, j), max(i, j)]] / M[j] for j in range(2 * n) if j != i]
                total = terms[0]
                for term in terms[1:]:
                    total += term
                assert orc.Ric[i] == total

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 16])
    def test_each_sum_of_the_build_has_one_term(self, n):
        # the terms of every entry of the Koszul sum, of G0[I] @ G0[J],
        # G0[J] @ G0[I] and c[I, J] @ G0, counted from the bracket table and
        # the metric's shape alone: none has two, and the pattern's one-term
        # gathers hold every term
        m = 2 * n
        c = np.zeros((m, m, m))
        h = np.arange(1, m - 1, 2)
        c[h, h + 1, m - 1] = c[h + 1, h, m - 1] = 1.0
        varies = np.ones(m)
        varies[0] = 0.0  # only d/dt's coefficient 1 is constant
        idx = np.arange(m)
        K = c + np.einsum("ikj->ijk", c) + np.einsum("jki->ijk", c)
        K[0, idx, idx] += varies
        K[idx, 0, idx] += varies
        K[idx, idx, 0] += varies
        G0 = (K > 0).astype(float)
        I, J = np.triu_indices(m, 1)
        ab = np.einsum("iks,jsl->ijkl", G0, G0, optimize=True)[I, J]
        ba = np.einsum("jks,isl->ijkl", G0, G0, optimize=True)[I, J]
        bracket = np.einsum("ijq,qkl->ijkl", c, G0, optimize=True)[I, J]
        pat = curvature._pattern(m)
        empty = 2 * pat.upper.shape[-1]  # the G slot that holds 0
        assert K.max() == 1 and K.sum() == pat.koszul[1].size
        assert ab.max() == 1 and ab.sum() == np.count_nonzero(pat.ab[0] != empty)
        assert ba.max() == 1 and ba.sum() == np.count_nonzero(pat.ba[0] != empty)
        assert bracket.max() == 1 and bracket.sum() == np.count_nonzero(pat.bracket[1])
        with pytest.raises(ValueError, match="more than one term"):
            curvature._slots(np.arange(3), np.array([0, 2, 2]), (np.arange(3),), (0,))

    def test_large_n_agrees_with_closed_form_without_dense_arrays(self, default_profile):
        # at n = 32 (p = 2,016) a dense operator on pairs is 32 MiB and each
        # (p, m, m) build temporary 66 MiB; the build traces far less, the
        # pattern's first call included
        mp = MetricPoint.from_profile(default_profile, 2.5, 32)
        tracemalloc.start()
        try:
            orc = CurvatureOracle(mp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        p = 64 * 63 // 2
        held = [v for v in vars(orc).values() if isinstance(v, np.ndarray)]
        assert held and max(a.size for a in held) < p * p // 100
        F = random_frame_vector(np.random.default_rng(32), 32, (20, 2))
        Y, Xi = F[:, 0], F[:, 1]
        ref = orc.bisectional(Y, Xi)
        assert np.all(np.abs(bisectional(Y, Xi, mp) - ref) / (1.0 + np.abs(ref)) <= 1e-6)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_batch_matches_points(self, default_profile, n):
        # a (T,) oracle, its RL and Ric entries, and a (T, 1) oracle against
        # a batch of rows per t: every value bitwise that of the oracle built
        # at t alone
        ts = np.array([0.05, 0.3, 1.5, 3.0, 4.8, 6.0])
        jets = default_profile.jet_at(ts)
        batch = CurvatureOracle(MetricPoint.from_jet(ts, jets, n))
        column = CurvatureOracle(MetricPoint.from_jet(ts[:, None], jets[:, None], n))
        F = random_frame_vector(np.random.default_rng(40 + n), n, (ts.size, 8, 4))
        first = F[:, 0]
        # the rows of t along the last axis, to meet the (T,) oracle
        across = FrameVector(*(np.moveaxis(x, 0, 1) for x in (F.u, F.beta, F.gamma)))
        by_batch = batch.evaluate(*(across[:, :, j] for j in range(4)))
        by_column = column.evaluate(*(F[:, :, j] for j in range(4)))
        for k, (t, jet) in enumerate(zip(ts, jets)):
            alone = CurvatureOracle(MetricPoint.from_jet(t, jet, n))
            assert np.array_equal(batch.RL[k], alone.RL)
            assert np.array_equal(batch.Ric[k], alone.Ric)
            Y, Z, W, V = (first[k, j] for j in range(4))
            rows = F[k]
            rows_alone = alone.evaluate(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3])
            checks = [
                (by_batch[:, k], rows_alone),
                (by_column[k], rows_alone),
                (batch.evaluate(first[:, 0], first[:, 1], first[:, 2], first[:, 3])[k],
                 alone.evaluate(Y, Z, W, V)),
                (batch.sectional(first[:, 0], first[:, 1])[k], alone.sectional(Y, Z)),
                (batch.bisectional(first[:, 0], first[:, 1])[k], alone.bisectional(Y, Z)),
                (batch.ricci(first[:, 0])[k], alone.ricci(Y)),
                (column.sectional(F[:, :, 0], F[:, :, 1])[k],
                 alone.sectional(rows[:, 0], rows[:, 1])),
                (column.ricci(F[:, :, 2])[k], alone.ricci(rows[:, 2])),
            ]
            for got, want in checks:
                assert np.array_equal(got, want)

    def test_cached_routes_reject_a_batched_metric_point(self, default_profile):
        # oracle_for hashes its argument before building, so the point check
        # must run there
        ts = np.array([0.5, 2.0, 5.5])
        mp = MetricPoint.from_jet(ts, default_profile.jet_at(ts), 3)
        with pytest.raises(ValueError, match=r"one metric point.*\(3, 4\)"):
            oracle_for(mp)
