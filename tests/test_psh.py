"""Tests for the regularized maximum, convex gluing, and complex Hessian tools."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.cusp_bundle import CuspParams
from cuspforge.psh import (
    ChiFunction,
    GlueBand,
    GlueError,
    RegMaxParams,
    build_chi,
    complex_hessian,
    glue_exhaustion,
    phi_cusp,
    phi_cusp_ambient,
    reg_max,
)

P_HALF = RegMaxParams(eta=0.5)
vals = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)

CP = CuspParams(l=2.0 * math.pi, t0=0.0, n=3)


class TestRegMaxParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegMaxParams(eta=0.0)
        with pytest.raises(ValueError):
            RegMaxParams(eta=1.0, nodes=10)
        with pytest.raises(ValueError):
            RegMaxParams(eta=1.0, nodes=1)


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
        # y - x rounds to one ulp below the gap 2 eta = 1.0 (for 0.9:
        # 1.9 - 0.9 == 0.9999999999999999), yet y >= x + 2 eta holds
        y = x + 1.0
        assert y - x < 2.0 * P_HALF.eta
        assert reg_max(x, y, P_HALF) == y
        assert reg_max(y, x, P_HALF) == y

    def test_dominates_where_quadrature_rounds_below(self):
        # the kernel mean of this pair rounds one ulp below y
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
        assert np.all(chi(ts) >= chi.piecewise_core(ts) - 1e-12)

    def test_agrees_with_core_away_from_breakpoints(self):
        chi = ChiFunction((1.0,), (1.0, 2.0), 0.2)
        for t in (0.5, 0.79, 1.21, 3.0):
            assert chi(t) == pytest.approx(chi.piecewise_core(t), abs=1e-12)

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

    def test_bad_safety_rejected(self):
        with pytest.raises(ValueError, match="safety"):
            build_chi([(0, 1.0)], [(0, 1.0)], safety=0.0)


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
        assert rep.hermiticity_defect <= 1e-8
        np.testing.assert_allclose(rep.matrix, rep.matrix.conj().T, atol=0.0)

    def test_step_underflow_raises(self):
        with pytest.raises(ValueError, match="underflow"):
            complex_hessian(lambda z: 0.0, [0.0], h=1e-13)

    def test_report_serializable(self):
        import json

        rep = complex_hessian(lambda z: float(np.vdot(z, z).real), [0.5])
        blob = json.dumps(rep.to_json_dict())
        assert "eigenvalues" in blob


class TestPhiCusp:
    def test_anchor_values(self):
        from cuspforge.heisenberg_siegel import lambda_const

        lam = lambda_const(CP.t0, CP.l)
        assert phi_cusp(0.0, np.zeros(2), CP) == 0.0
        assert phi_cusp(lam, np.zeros(2), CP) == pytest.approx(1.0, rel=1e-12)

    def test_ambient_wrapper(self):
        z = np.array([0.1 + 0.2j, 0.3, -0.4j])
        assert phi_cusp_ambient(z, CP) == phi_cusp(complex(z[0]), z[1:], CP)

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
