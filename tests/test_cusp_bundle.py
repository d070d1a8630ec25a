"""Tests for the punctured-disk-bundle coordinates of a cusp quotient."""

import math
import re

import numpy as np
import pytest

from cuspforge.cusp_bundle import (
    BundlePoint,
    CuspParams,
    bundle_curvature,
    cusp_to_disk,
    h_norm,
    lattice_act,
)
from cuspforge.heisenberg_siegel import (
    HeisenbergElement,
    compose,
    lambda_const,
    orbit_coords,
    quotient_to_omega,
)

CP = CuspParams(l=2.0 * math.pi, t0=0.0, n=3)


def random_point(rng, scale=0.7):
    a = scale * (rng.standard_normal() + 1j * rng.standard_normal())
    v = scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    return BundlePoint(a, v)


def random_element(rng, scale=1.0):
    v = scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    return HeisenbergElement(scale * rng.standard_normal(), v)


class TestLatticeAction:
    def test_left_action(self, rng):
        # act(g, act(h, p)) = act(compose(g, h), p)
        for _ in range(25):
            g, h = random_element(rng), random_element(rng)
            p = random_point(rng)
            one = lattice_act(g, lattice_act(h, p, CP), CP)
            two = lattice_act(compose(g, h), p, CP)
            assert one.a == pytest.approx(two.a, rel=1e-10, abs=1e-12)
            np.testing.assert_allclose(one.v, two.v, atol=1e-12)

    def test_central_element_acts_trivially(self, rng):
        z = HeisenbergElement(CP.l, np.zeros(2, dtype=complex))
        p = random_point(rng)
        q = lattice_act(z, p, CP)
        assert q.a == pytest.approx(p.a, rel=1e-12)
        np.testing.assert_array_equal(q.v, p.v)

    def test_action_intertwines_quotient_map(self, rng):
        # acting upstairs by n_(s,w) then quotienting equals quotienting
        # then acting downstairs; pins the exponential weight in lattice_act
        for _ in range(10):
            g = random_element(rng, scale=0.5)
            s = rng.standard_normal()
            v = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            t = float(rng.uniform(0.3, 1.5))
            comp = compose(g, HeisenbergElement(s, v))
            up = orbit_coords(comp.s, comp.v, t)
            a_up, v_up = quotient_to_omega(up, CP.l)
            base = orbit_coords(s, v, t)
            a_dn, v_dn = quotient_to_omega(base, CP.l)
            down = lattice_act(g, BundlePoint(a_dn, v_dn), CP)
            assert down.a == pytest.approx(a_up, rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(down.v, v_up, atol=1e-12)


class TestBundleMetric:
    def test_h_norm_invariance(self, rng):
        for _ in range(50):
            g = random_element(rng)
            p = random_point(rng)
            r0 = h_norm(p, CP)
            r1 = h_norm(lattice_act(g, p, CP), CP)
            assert r1 == pytest.approx(r0, rel=1e-11)

    def test_h_norm_at_horoball_boundary(self):
        # the orbit point at depth t0 over v = 0 quotients to radius
        # lambda(t0), i.e. unit bundle norm
        a, v = quotient_to_omega(orbit_coords(0.0, np.zeros(2), CP.t0), CP.l)
        assert h_norm(BundlePoint(a, v), CP) == pytest.approx(1.0, rel=1e-12)

    def test_h_norm_strictly_inside_for_deeper_points(self):
        # horoball interior is t < t0 = 0 in the orbit parametrization
        for t in (-0.5, -1.0, -3.0):
            a, v = quotient_to_omega(orbit_coords(0.3, np.array([0.2 + 0.1j, 0.0]), t), CP.l)
            p = BundlePoint(a, v)
            assert 0.0 < h_norm(p, CP) < 1.0
            assert h_norm(p, CP) == pytest.approx(math.exp(1.0 - math.exp(-2.0 * t)), rel=1e-10)

    def test_puncture_excluded(self):
        # the zero section a = 0 has norm 0, outside the punctured disk bundle
        assert h_norm(BundlePoint(0.0, np.zeros(2)), CP) == 0.0


def random_batch(rng, rows, scale=0.7):
    a = scale * (rng.standard_normal(rows) + 1j * rng.standard_normal(rows))
    v = scale * (rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2)))
    s = rng.standard_normal(rows)
    w = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
    return BundlePoint(a, v), HeisenbergElement(s, w)


def row(p, i):
    """Row i of a batch as a lone point or element."""
    if isinstance(p, BundlePoint):
        return BundlePoint(complex(p.a[i]), p.v[i])
    return HeisenbergElement(float(p.s[i]), p.v[i])


EPS = np.finfo(float).eps


class TestBatch:
    def test_bundle_point_keeps_rows_and_flattens_one_point(self, rng):
        p, _ = random_batch(rng, 4)
        assert p.a.shape == (4,) and p.v.shape == (4, 2)
        assert BundlePoint(0.3 + 0.1j, np.ones((1, 2))).v.shape == (2,)
        assert BundlePoint(np.complex128(0.3), np.ones((2, 1))).v.shape == (2,)

    @pytest.mark.parametrize("v_shape", [(3, 2), (4,), (4, 2, 1)])
    def test_bundle_point_shape_mismatch_raises(self, v_shape):
        with pytest.raises(ValueError, match="needs v of shape"):
            BundlePoint(np.ones(4, dtype=complex), np.zeros(v_shape))

    def test_lattice_act_rows_match_lone_actions(self, rng):
        p, g = random_batch(rng, 400)
        cases = [
            (lattice_act(g, p, CP), lambda i: lattice_act(row(g, i), row(p, i), CP)),
            (lattice_act(row(g, 0), p, CP), lambda i: lattice_act(row(g, 0), row(p, i), CP)),
            (lattice_act(g, row(p, 0), CP), lambda i: lattice_act(row(g, i), row(p, 0), CP)),
        ]
        for batch, lone in cases:
            moved = [lone(i) for i in range(400)]
            assert all(type(q.a) is complex and q.v.shape == (2,) for q in moved)
            np.testing.assert_array_equal(batch.v, [q.v for q in moved])
            # numpy's complex product fuses a multiply-add where Python's
            # rounds twice: measured at most 1.0 eps relative over 5,000 rows
            a = np.array([q.a for q in moved])
            assert np.max(np.abs(batch.a - a) / np.abs(a)) <= 2.0 * EPS

    def test_h_norm_rows_match_lone_norms(self, rng):
        for l in (1.0, CP.l, 40.0):
            cp = CuspParams(l=l, t0=0.2, n=3)
            p, _ = random_batch(rng, 2000, scale=1.5)
            lone = [h_norm(row(p, i), cp) for i in range(2000)]
            assert all(type(r) is float for r in lone)
            # np.exp and math.exp differ by at most an ulp: measured at most
            # 2.7 eps relative over 5,000 rows on four (l, n, scale)
            assert np.max(np.abs(h_norm(p, cp) - lone) / lone) <= 4.0 * EPS

    def test_h_norm_overflow_in_a_batch_names_its_first_row(self, rng):
        p, _ = random_batch(rng, 6)
        v = p.v.copy()
        v[2, 0], v[4, 1] = 40.0, 50.0  # pi |v|^2 / (2 pi) above 709.8
        with pytest.raises(OverflowError) as lone:
            h_norm(BundlePoint(complex(p.a[2]), v[2]), CP)
        with pytest.raises(OverflowError) as batch:
            h_norm(BundlePoint(p.a, v), CP)
        assert str(batch.value) == str(lone.value)
        assert "l = 6.28319" in str(batch.value) and "exp(pi |v|^2 / l)" in str(batch.value)


class TestBundleCurvature:
    def test_value_and_shape(self):
        k = bundle_curvature(CP)
        np.testing.assert_allclose(k, -np.eye(2), atol=1e-15)

    def test_negative_definite_for_all_periods(self):
        for l in (0.5, 1.0, 2.0 * math.pi, 40.0):
            k = bundle_curvature(CuspParams(l=l, t0=0.0, n=4))
            w = np.linalg.eigvalsh(k)
            assert np.all(w < 0.0)
            assert w[0] == pytest.approx(-2.0 * math.pi / l, rel=1e-14)

    def test_params_validation(self):
        for l in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="period"):
                CuspParams(l=l, t0=0.0, n=3)
        with pytest.raises(ValueError, match="dimension"):
            CuspParams(l=1.0, t0=0.0, n=1)
        for t0 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t0 must be finite"):
                CuspParams(l=1.0, t0=t0, n=3)
        # lambda(t0) underflows to 0 at t0 = -5 and e^(-2 t0) overflows at -400;
        # h_norm, which divides by lambda(t0), never sees either
        for t0 in (-5.0, -400.0):
            msg = f"t0 = {t0} and l = {2.0 * math.pi} give lambda(t0) = 0.0, not > 0"
            with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
                CuspParams(l=2.0 * math.pi, t0=t0, n=3)


class TestPowerCover:
    def test_cover_maps_small_bundle_into_big(self, rng):
        # the fiberwise d-th power takes the disk bundle of the l/d-periodic
        # quotient into that of the l-periodic one
        d = 4
        small = CuspParams(l=CP.l / d, t0=CP.t0, n=3)
        for _ in range(20):
            v = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            t = float(rng.uniform(-2.0, -0.1))
            a, _ = quotient_to_omega(orbit_coords(0.0, v, t), small.l)
            assert 0.0 < h_norm(BundlePoint(a, v), small) < 1.0
            assert 0.0 < h_norm(BundlePoint(a**d, v), CP) < 1.0


class TestPolarChart:
    def test_radius_and_angle(self):
        g = HeisenbergElement(0.9, np.array([1.0 + 2.0j]))
        a, v = cusp_to_disk(1.5, g, 6.0)
        assert abs(a) == pytest.approx(1.5, rel=1e-15)
        assert math.atan2(a.imag, a.real) == pytest.approx(0.9, rel=1e-12)
        np.testing.assert_array_equal(v, g.v)

    def test_central_period_closes_the_circle(self):
        g0 = HeisenbergElement(0.3, np.zeros(2))
        g1 = HeisenbergElement(0.3 + 2.0 * math.pi, np.zeros(2))
        a0, _ = cusp_to_disk(2.0, g0, 6.0)
        a1, _ = cusp_to_disk(2.0, g1, 6.0)
        assert a0 == pytest.approx(a1, rel=1e-12)

    def test_domain_endpoints_rejected(self):
        g = HeisenbergElement(0.0, np.zeros(2))
        for t in (0.0, 6.0, -1.0, 7.2):
            with pytest.raises(ValueError, match="transverse coordinate"):
                cusp_to_disk(t, g, 6.0)
