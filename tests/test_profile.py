"""Tests for the cosh-to-exp cutoff profile and the model-change ODE."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.profile import (
    CutoffProfile,
    ProfileError,
    build_cutoff,
    exp_profile,
    solve_psi,
    write_profile_csv,
)


class TestBuildCutoff:
    def test_default_profile_certified(self, default_profile):
        margins = default_profile.positivity_margins()
        assert margins.shape == (4,)
        assert np.all(margins > 0.0)

    def test_window_validation(self):
        for window in ((0.0, 5.0), (5.0, 1.0), (1.0, 7.0), (-1.0, 5.0)):
            with pytest.raises(ValueError, match="window"):
                build_cutoff(6.0, window)

    def test_tight_window_raises_with_location(self):
        # a late and very narrow transition forces a huge negative swing in
        # the higher step derivatives times sinh, which the certificate
        # must catch and localize
        with pytest.raises(ProfileError, match="nonpositive at t ="):
            build_cutoff(6.0, (5.8, 5.9))

    def test_evaluation_outside_domain_raises(self, default_profile):
        for t in (-0.1, 6.1):
            with pytest.raises(ValueError, match="outside"):
                default_profile.jet_at(t)


class TestJets:
    def test_cosh_region_is_exact(self, default_profile):
        # w vanishes identically below the window, so the jet is the cosh
        # jet bitwise, not merely to tolerance (same libm as the evaluator)
        for t in (0.0, 0.25, 0.7, 1.0):
            f0, f1, f2, f3 = default_profile.jet_at(t)
            ch, sh = np.cosh(float(t)), np.sinh(float(t))
            assert f0 == ch
            assert f1 == sh
            assert f2 == ch
            assert f3 == sh

    def test_exp_region_jet_components_agree(self, default_profile):
        # above the window all four jet entries are cosh + sinh; they must
        # be equal bitwise and match exp to rounding
        for t in (5.0, 5.5, 6.0):
            jet = default_profile.jet_at(t)
            assert jet[0] == jet[1] == jet[2] == jet[3]
            assert abs(jet[0] - math.exp(t)) <= 1e-10 * math.exp(t)

    def test_endpoint_jets(self, default_profile):
        assert tuple(default_profile.jet_at(0.0)) == (1.0, 0.0, 1.0, 0.0)
        jA = default_profile.jet_at(default_profile.A)
        assert jA[0] == jA[1] == jA[2] == jA[3]

    def test_vectorized_evaluation_matches_scalar(self, default_profile):
        ts = np.array([0.3, 2.2, 3.7, 5.9])
        block = default_profile.jet_at(ts)
        assert block.shape == (4, 4)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(block[i], default_profile.jet_at(float(t)))

    def test_jet_consistency_by_finite_differences(self, default_profile):
        # each jet entry is the derivative of the previous one
        h = 1e-5
        for t in (0.5, 2.0, 3.0, 4.5, 5.5):
            lo = default_profile.jet_at(t - h)
            hi = default_profile.jet_at(t + h)
            mid = default_profile.jet_at(t)
            for k in range(3):
                fd = (hi[k] - lo[k]) / (2.0 * h)
                assert fd == pytest.approx(mid[k + 1], rel=1e-7, abs=1e-6)

    def test_g_jet_matches_product_rule(self, default_profile):
        for t in (0.8, 2.5, 4.1):
            f0, f1, f2, f3 = default_profile.jet_at(t)
            g, g1, g2 = default_profile.g_jet_at(t)
            assert g == pytest.approx(f0 * f1, rel=1e-15)
            assert g1 == pytest.approx(f1 * f1 + f0 * f2, rel=1e-15)
            assert g2 == pytest.approx(3.0 * f1 * f2 + f0 * f3, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
    def test_jet_positive_and_finite_everywhere(self, default_profile, t):
        jet = default_profile.jet_at(t)
        assert np.all(np.isfinite(jet))
        # f = cosh + w sinh >= cosh >= 1 on the whole interval
        assert jet[0] >= 1.0
        if t > 0.0:
            assert np.all(jet > 0.0)


class TestExpProfile:
    def test_exp_jets(self):
        p = exp_profile(3.0)
        jet = p.jet_at(1.3)
        assert jet[0] == jet[1] == jet[2] == jet[3]
        assert jet[0] == pytest.approx(math.exp(1.3), rel=1e-12)

    def test_margins_positive(self):
        assert np.all(exp_profile(2.0).positivity_margins() > 0.0)


def reference_psi(p, t_min, num):
    """Per-step scalar RK4 with one g evaluation per stage, as a reference
    for the tabulated solver."""
    ts = np.linspace(t_min, p.A, num)

    def slope(t, psi):
        return math.exp(2.0 * psi) / float(p.g_jet_at(t)[0])

    values = np.empty(num)
    values[-1] = p.A
    for k in range(num - 1, 0, -1):
        t1, t0 = ts[k], ts[k - 1]
        h = t0 - t1
        y = values[k]
        k1 = slope(t1, y)
        k2 = slope(t1 + 0.5 * h, y + 0.5 * h * k1)
        k3 = slope(t1 + 0.5 * h, y + 0.5 * h * k2)
        k4 = slope(t0, y + h * k3)
        values[k - 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rhs = np.exp(2.0 * values) / p.g_jet_at(ts)[:, 0]
    h = ts[1] - ts[0]
    d = (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * h)
    return values, np.abs(d - rhs[2:-2])


class TestPsiSolution:
    @pytest.mark.parametrize("shape", ["default", "A8"])
    def test_matches_per_step_reference_bitwise(self, default_profile, shape):
        p = default_profile if shape == "default" else build_cutoff(8.0, (2.0, 6.5))
        sol = solve_psi(p, t_min=0.05, num=2001)
        values, residuals = reference_psi(p, 0.05, 2001)
        assert np.array_equal(sol.values, values)
        assert np.array_equal(sol.residuals, residuals)

    def test_residual_small_on_default_profile(self, default_psi):
        assert default_psi.max_residual() <= 1e-8

    def test_identity_on_exp_region(self, default_psi, default_profile):
        assert default_psi.identity_defect(default_profile.window[1]) <= 1e-10

    def test_monotone_increasing(self, default_psi):
        assert np.all(np.diff(default_psi.values) > 0.0)

    def test_exact_identity_for_pure_exp(self):
        sol = solve_psi(exp_profile(3.0), t_min=0.5, num=2001)
        assert sol.identity_defect(0.5) <= 1e-12
        assert sol.max_residual() <= 1e-8

    def test_first_integral_oracle(self, default_psi, default_profile):
        # e^(-2 psi(t)) = e^(-2A) + 2 int_t^A ds/g(s): quadrature of the
        # right side is an independent check on the RK4 answer
        A = default_profile.A
        for t in (0.3, 1.0, 2.5, 4.0):
            idx = int(np.argmin(np.abs(default_psi.grid - t)))
            t_node = float(default_psi.grid[idx])
            ts = np.linspace(t_node, A, 400_001)
            g = default_profile.g_jet_at(ts)[:, 0]
            integral = float(np.trapezoid(1.0 / g, ts))
            rhs = math.exp(-2.0 * A) + 2.0 * integral
            lhs = math.exp(-2.0 * default_psi.values[idx])
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_t_min_validation(self, default_profile):
        for bad in (0.0, -1.0, 6.0, 7.0):
            with pytest.raises(ValueError, match="t_min"):
                solve_psi(default_profile, t_min=bad)


class TestProfileCsv:
    def test_round_trip(self, default_profile, tmp_path):
        path = tmp_path / "profile.csv"
        write_profile_csv(default_profile, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "f", "fp", "fpp", "fppp"]
        assert len(rows) == 1 + len(default_profile.grid)
        # repr round trip preserves the sampled jet bitwise
        k = 517
        t = float(rows[1 + k][0])
        assert t == default_profile.grid[k]
        np.testing.assert_array_equal(
            np.array([float(x) for x in rows[1 + k][1:]]), default_profile.jets[k]
        )
