"""Tests for the cosh-to-exp cutoff profile and the model-change ODE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge import profile
from cuspforge.profile import (
    CutoffProfile,
    ProfileError,
    build_cutoff,
    solve_psi,
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

    def test_overflowing_jets_raise(self):
        # cosh overflows past t = 710.5, and inf * 0 leaves nan in f'; a nan
        # never fails a "<= 0" test, so finiteness is checked on its own
        with pytest.raises(ProfileError, match="f is not finite at t ="):
            build_cutoff(720.0, (1.0, 5.0))

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

    def test_vectorized_evaluation_matches_scalar(self, default_profile, monkeypatch):
        ts = np.array([0.3, 2.2, 3.7, 5.9])
        block = default_profile.jet_at(ts)
        assert block.shape == (4, 4)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(block[i], default_profile.jet_at(float(t)))
        grid = np.random.default_rng(2).uniform(0.0, default_profile.A, (15, 21))
        grid[0, :4] = (0.0, 1.0, 5.0, default_profile.A)
        # 100 elements make blocks of 8 points: 39 seams across the 315 points
        for elements in (profile.BLOCK_ELEMENTS, 100):
            monkeypatch.setattr(profile, "BLOCK_ELEMENTS", elements)
            jets = default_profile.jet_at(grid)
            assert jets.shape == (15, 21, 4)
            for i, j in np.ndindex(grid.shape):
                np.testing.assert_array_equal(jets[i, j], default_profile.jet_at(float(grid[i, j])))

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


# the largest A in use: g'' = 4 e^(2t) overflows past t = 354.2, but g and
# e^(2A) stay finite up to A = 354.89
LARGE_A = 354.8


class TestExpProfile:
    """The exp region of a profile built at LARGE_A."""

    def test_exp_jets(self):
        p = build_cutoff(LARGE_A, (1.0, 5.0))
        jet = p.jet_at(354.0)
        assert jet[0] == jet[1] == jet[2] == jet[3]
        assert jet[0] == pytest.approx(math.exp(354.0), rel=1e-12)

    def test_margins_positive(self):
        assert np.all(build_cutoff(LARGE_A, (1.0, 5.0)).positivity_margins() > 0.0)


def reference_psi(p, ts):
    """Classical RK4 for psi' = e^(2 psi)/g backward from psi(A) = A on the
    grid ts, one Python step at a time, as the second route to the
    first-integral solve.  The stage times are the nodes and the cell
    midpoints, where g is tabulated; returns the values and the five-point
    residuals."""
    mids = ts[1:] + 0.5 * (ts[:-1] - ts[1:])
    g_n = p.g_jet_at(ts)[:, 0].tolist()
    g_m = p.g_jet_at(mids)[:, 0].tolist()
    t = ts.tolist()
    values = np.empty(len(t))
    values[-1] = p.A
    for k in range(len(t) - 1, 0, -1):
        h = t[k - 1] - t[k]
        y = float(values[k])
        k1 = math.exp(2.0 * y) / g_n[k]
        k2 = math.exp(2.0 * (y + 0.5 * h * k1)) / g_m[k - 1]
        k3 = math.exp(2.0 * (y + 0.5 * h * k2)) / g_m[k - 1]
        k4 = math.exp(2.0 * (y + h * k3)) / g_n[k - 1]
        values[k - 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rhs = np.exp(2.0 * values) / np.array(g_n)
    h = ts[1] - ts[0]
    d = (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * h)
    return values, np.abs(d - rhs[2:-2])


class TestPsiSolution:
    @pytest.mark.parametrize("shape", ["default", "A8"])
    def test_matches_per_step_reference(self, default_profile, shape):
        # the two routes agreed to 4.3e-14 in psi and to 6e-12 in the
        # residual at A = 6, 8 and 10; the bounds leave a factor of 15 or more
        p = default_profile if shape == "default" else build_cutoff(8.0, (2.0, 6.5))
        sol = solve_psi(p, t_min=0.05)
        values, residuals = reference_psi(p, sol.grid)
        assert np.max(np.abs(sol.values - values)) <= 1e-12
        assert np.max(np.abs(sol.residuals - residuals)) <= 1e-10

    @pytest.mark.parametrize("A", [6.0, 8.0, 100.0])
    def test_grid_step_follows_A(self, A):
        # the default A keeps the 20,001-node grid; past it the step is 3e-4
        sol = solve_psi(build_cutoff(A, (1.0, 5.0)), t_min=0.05)
        assert len(sol.grid) == max(20_001, math.ceil((A - 0.05) / 3e-4) + 1)
        assert sol.grid[1] - sol.grid[0] <= 3e-4
        assert sol.grid[-1] == A

    def test_temporaries_are_those_of_one_block(self, default_profile, traced_peak):
        # 2.7 MiB measured, where one batched jet over all nodes peaks at
        # 8.2 MiB; what is left is the solve's own 20,001-node arrays
        assert traced_peak(lambda: solve_psi(default_profile, t_min=0.05)) <= 4 * 2**20

    def test_residual_small_on_default_profile(self, default_psi):
        assert default_psi.max_residual() <= 1e-8

    def test_identity_on_exp_region(self, default_psi, default_profile):
        assert default_psi.identity_defect(default_profile.window[1]) <= 1e-10

    def test_monotone_increasing(self, default_psi):
        assert np.all(np.diff(default_psi.values) > 0.0)

    def test_exact_identity_for_pure_exp(self, default_profile):
        # from t_min in the exp region [5, 6] the solve sees only f = exp
        sol = solve_psi(default_profile, t_min=5.2)
        assert sol.identity_defect(0.5) <= 1e-12
        assert sol.max_residual() <= 1e-8

    def test_solves_where_only_the_g_jet_overflows(self):
        # the solve needs no g''; a RuntimeWarning fails the test
        sol = solve_psi(build_cutoff(LARGE_A, (1.0, 5.0)), t_min=354.0)
        assert sol.identity_defect(354.0) <= 1e-10
        assert sol.max_residual() <= 1e-8

    def test_first_integral_oracle(self, default_psi, default_profile):
        # e^(-2 psi(t)) = e^(-2A) + 2 int_t^A ds/g(s): a 10-node
        # Gauss-Legendre rule on 200 equal panels of [t, A], whose nodes
        # are unrelated to the Simpson grid, is a check on the Simpson sum
        A = default_profile.A
        x, w = np.polynomial.legendre.leggauss(10)
        for t in (0.3, 1.0, 2.5, 4.0):
            idx = int(np.argmin(np.abs(default_psi.grid - t)))
            edges = np.linspace(default_psi.grid[idx], A, 201)
            half = 0.5 * np.diff(edges)[:, None]
            g = default_profile.g_jet_at(edges[:-1, None] + half * (1.0 + x))[..., 0]
            integral = float(np.sum(half * w / g))
            rhs = math.exp(-2.0 * A) + 2.0 * integral
            lhs = math.exp(-2.0 * default_psi.values[idx])
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_t_min_validation(self, default_profile):
        for bad in (0.0, -1.0, 6.0, 7.0):
            with pytest.raises(ValueError, match="t_min"):
                solve_psi(default_profile, t_min=bad)
