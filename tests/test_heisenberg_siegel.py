"""Tests for the Heisenberg group law, its matrix model, and the Siegel domain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.cusp_bundle import cusp_to_disk
from cuspforge.heisenberg_siegel import (
    HeisenbergElement,
    SiegelPoint,
    compose,
    hermitian_product,
    lambda_const,
    orbit_coords,
    quotient_to_omega,
    to_matrix,
)
from cuspforge.qfield_cayley import polarized_form_matrix

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def random_element(rng, n=3, scale=1.0):
    v = scale * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    return HeisenbergElement(scale * rng.standard_normal(), v)


def inverse(g):
    """n_(-s,-v), the inverse of n_(s,v) under the group law."""
    return HeisenbergElement(-g.s, -g.v)


def dilate(g, c):
    """The dilation n_(s,v) -> n_(c s, sqrt(c) v); c = 2 pi / l takes the
    central period l to 2 pi."""
    return HeisenbergElement(c * g.s, math.sqrt(c) * g.v)


class TestGroupLaw:
    def test_identity_is_neutral(self, rng):
        g = random_element(rng)
        e = HeisenbergElement(0.0, np.zeros(2))
        for h in (compose(e, g), compose(g, e)):
            assert h.s == pytest.approx(g.s, abs=0.0)
            assert np.array_equal(h.v, g.v)

    def test_inverse_composes_to_identity(self, rng):
        for _ in range(20):
            g = random_element(rng)
            gi = compose(g, inverse(g))
            ig = compose(inverse(g), g)
            # twist Im<-v, v> = 0, so both products are exactly neutral
            assert gi.s == 0.0 and ig.s == 0.0
            assert np.all(gi.v == 0.0) and np.all(ig.v == 0.0)

    def test_associativity(self, rng):
        for _ in range(50):
            g, h, k = (random_element(rng) for _ in range(3))
            left = compose(compose(g, h), k)
            right = compose(g, compose(h, k))
            assert left.s == pytest.approx(right.s, abs=1e-12)
            np.testing.assert_allclose(left.v, right.v, atol=1e-12)

    def test_center_commutes(self, rng):
        z = HeisenbergElement(1.7, np.zeros(2, dtype=complex))
        g = random_element(rng)
        zg = compose(z, g)
        gz = compose(g, z)
        assert zg.s == pytest.approx(gz.s, abs=0.0)
        np.testing.assert_array_equal(zg.v, gz.v)

    def test_commutator_is_central(self, rng):
        # [g, h] must have zero horizontal part and s = 2 Im<h.v, g.v>
        g, h = random_element(rng), random_element(rng)
        comm = compose(compose(g, h), inverse(compose(h, g)))
        assert np.allclose(comm.v, 0.0)
        expected = 2.0 * hermitian_product(h.v, g.v).imag
        assert comm.s == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_raises(self):
        g = HeisenbergElement(0.0, np.zeros(2))
        h = HeisenbergElement(0.0, np.zeros(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            compose(g, h)

    def test_nonfinite_entries_raise(self):
        with pytest.raises(ValueError):
            HeisenbergElement(math.nan, np.zeros(2))
        with pytest.raises(ValueError):
            HeisenbergElement(0.0, np.array([1.0, math.inf]))

    @pytest.mark.parametrize("entry", ["s", "re v", "im v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_row_of_a_batch_raises(self, rng, entry, bad):
        s = rng.standard_normal(5)
        v = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        HeisenbergElement(s, v)
        if entry == "s":
            s[3] = bad
        else:
            v[3, 1] += bad if entry == "re v" else 1j * bad
        with pytest.raises(ValueError, match="must be finite"):
            HeisenbergElement(s, v)

    def test_batch_keeps_its_rows(self, rng):
        s = rng.standard_normal(4)
        v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        g = HeisenbergElement(s, v)
        assert g.v.shape == (4, 2) and g.s.shape == (4,)
        np.testing.assert_array_equal(g.v, v)
        # one point still flattens its v, whatever its shape
        assert HeisenbergElement(0.5, v[:1]).v.shape == (2,)

    def test_lone_element_keeps_s_as_given(self):
        for s in (0.5, 2, np.float64(-1.5), np.array(0.25)):
            g = HeisenbergElement(s, np.ones((1, 2)))
            assert g.s is s and g.v.shape == (2,)

    def test_list_s_makes_a_batch(self):
        # one finiteness test reads s as an array, so a list of N entries
        # is a batch of N elements
        g = HeisenbergElement([0.5, -1.0], np.ones((2, 3)))
        assert type(g.s) is np.ndarray and g.s.shape == (2,) and g.v.shape == (2, 3)
        with pytest.raises(ValueError, match="needs v of shape"):
            HeisenbergElement([0.5, -1.0], np.ones(3))

    @pytest.mark.parametrize("v_shape", [(3, 2), (4,), (4, 2, 1)])
    def test_batch_shape_mismatch_raises(self, v_shape):
        with pytest.raises(ValueError, match="needs v of shape"):
            HeisenbergElement(np.zeros(4), np.zeros(v_shape))


class TestMatrixModel:
    """The matrix model must be a faithful homomorphism into the unitary group of H."""

    def test_matrix_of_identity(self):
        np.testing.assert_array_equal(to_matrix(HeisenbergElement(0.0, np.zeros(2))), np.eye(4))

    def test_homomorphism(self, rng):
        for _ in range(30):
            g, h = random_element(rng), random_element(rng)
            lhs = to_matrix(compose(g, h))
            rhs = to_matrix(g) @ to_matrix(h)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_preserves_hermitian_form(self, rng):
        # t(M) H conj(M) = H, checked on random vector pairs, with H the
        # polarized form H(u, w) = u^T H conj(w) of signature (3, 1)
        H = polarized_form_matrix(3, 1).to_complex()
        for _ in range(30):
            g = random_element(rng, scale=2.0)
            m = to_matrix(g)
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert (m @ u) @ H @ np.conj(m @ w) == pytest.approx(
                u @ H @ np.conj(w), rel=1e-11, abs=1e-11
            )

    def test_unipotent(self, rng):
        g = random_element(rng)
        m = to_matrix(g) - np.eye(4)
        # (M - I)^3 = 0 for the 2-step group
        np.testing.assert_allclose(m @ m @ m, 0.0, atol=1e-13)


class TestHermitianForm:
    @given(finite, finite, finite, finite)
    def test_product_conjugate_symmetry(self, a, b, c, d):
        v = np.array([a + 1j * b])
        w = np.array([c + 1j * d])
        assert hermitian_product(v, w) == pytest.approx(
            np.conj(hermitian_product(w, v)), abs=1e-10
        )

    def test_product_linear_in_first_argument(self, rng):
        v, w = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
        z = 0.3 - 1.1j
        assert hermitian_product(z * v, w) == pytest.approx(
            z * hermitian_product(v, w), rel=1e-12
        )
        assert hermitian_product(v, z * w) == pytest.approx(
            np.conj(z) * hermitian_product(v, w), rel=1e-12
        )

    def test_batch_rows_are_lone_products(self, rng):
        # one np.vecdot sums a batch row as it sums the lone pair: bit-equal
        # at lengths 1 to 12, and a lone pair gives a Python complex
        for k in range(1, 13):
            v, w = (rng.standard_normal((50, k)) + 1j * rng.standard_normal((50, k)) for _ in range(2))
            lone = [hermitian_product(v[i], w[i]) for i in range(50)]
            assert all(type(z) is complex for z in lone)
            assert np.array(lone).tobytes() == hermitian_product(v, w).tobytes()
        # a lone vector meets every row of a batch
        np.testing.assert_array_equal(
            hermitian_product(v, w[0]), [hermitian_product(v[i], w[0]) for i in range(50)]
        )
        np.testing.assert_array_equal(
            hermitian_product(v[0], w), [hermitian_product(v[0], w[i]) for i in range(50)]
        )

    def test_form_signature_on_flag_basis(self):
        # f1, f2 isotropic with H(f1, f2) = 1; the rest orthonormal positive
        H = polarized_form_matrix(3, 1).to_complex()
        assert H[0, 0] == H[1, 1] == 0.0
        assert H[0, 1] == H[1, 0] == 1.0
        assert H[2, 2] == H[3, 3] == 1.0


class TestSiegelDomain:
    def test_orbit_coords_defect(self, rng):
        # the orbit of the geodesic lands at defect exactly -2 e^(-2t)
        for _ in range(20):
            s = rng.standard_normal()
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t = float(rng.uniform(-1.0, 3.0))
            p = orbit_coords(s, v, t)
            assert p.in_domain()
            assert p.defect() == pytest.approx(-2.0 * math.exp(-2.0 * t), rel=1e-12)

    def test_horoball_membership_monotone_in_t(self):
        # deeper means smaller t here: Re(a) = -|v|^2/2 - e^(-2t) drops as
        # t decreases, so the horoball of depth t0 is exactly { t < t0 }, and
        # its quotient is |first| exp(pi |v|^2 / l) < lambda(t0)
        l, t0 = 3.0, 1.0
        v = np.array([0.2 + 0.1j, -0.3j])
        weight = math.exp(math.pi * float(np.vdot(v, v).real) / l)
        for t in (0.5, 2.0):
            a, _ = quotient_to_omega(orbit_coords(0.5, v, t), l)
            assert (abs(a) * weight < lambda_const(t0, l)) == (t < t0)

    def test_quotient_invariant_under_center(self, rng):
        l = 2.0 * math.pi
        p = orbit_coords(0.7, np.array([0.1 + 0.2j, 0.0]), 1.2)
        q = SiegelPoint(p.a - 1j * l, p.v)
        a1, v1 = quotient_to_omega(p, l)
        a2, v2 = quotient_to_omega(q, l)
        assert a1 == pytest.approx(a2, rel=1e-12)
        np.testing.assert_array_equal(v1, v2)

    def test_quotient_modulus_bound(self, rng):
        # |first| < exp(-pi |v|^2 / l) strictly on the domain
        l = 3.0
        for _ in range(30):
            s = rng.standard_normal()
            v = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            p = orbit_coords(s, v, float(rng.uniform(0.0, 2.0)))
            a, _ = quotient_to_omega(p, l)
            nv2 = float(np.vdot(v, v).real)
            assert 0.0 < abs(a) < math.exp(-math.pi * nv2 / l)

    def test_quotient_rejects_exterior_point(self):
        bad = SiegelPoint(1.0 + 0j, np.zeros(2))
        with pytest.raises(ValueError, match="outside the Siegel domain"):
            quotient_to_omega(bad, 2.0 * math.pi)

    def test_lambda_const_matches_quotient_radius(self):
        # lambda(t0) is exactly the modulus of the quotient image of the
        # orbit point at depth t0 over the origin
        for l in (1.0, 2.0 * math.pi, 9.5):
            for t0 in (0.0, 0.8, 2.3):
                a, _ = quotient_to_omega(orbit_coords(0.0, np.zeros(2), t0), l)
                assert abs(a) == pytest.approx(lambda_const(t0, l), rel=1e-14)

    def test_lambda_const_range(self):
        assert 0.0 < lambda_const(0.0, 2.0 * math.pi) < 1.0
        assert lambda_const(50.0, 2.0 * math.pi) == pytest.approx(1.0, abs=1e-12)
        for l in (0.0, math.nan):
            with pytest.raises(ValueError, match="must be positive"):
                lambda_const(1.0, l)

    def test_nan_period_rejected(self):
        p = orbit_coords(0.0, np.zeros(2), 0.5)
        with pytest.raises(ValueError, match="must be positive"):
            quotient_to_omega(p, math.nan)


class TestRescale:
    """The dilation that normalizes the central period to 2 pi, the period
    cusp_to_disk assumes."""

    @settings(max_examples=40)
    @given(st.floats(min_value=0.1, max_value=50.0), finite, finite, finite, finite, finite, finite)
    def test_rescale_is_homomorphism(self, l, s1, x1, y1, s2, x2, y2):
        # the twist Im<v', v> scales like s, so dilations respect the group law
        g = HeisenbergElement(s1, np.array([x1 + 1j * y1]))
        h = HeisenbergElement(s2, np.array([x2 + 1j * y2]))
        c = 2.0 * math.pi / l
        lhs = dilate(compose(g, h), c)
        rhs = compose(dilate(g, c), dilate(h, c))
        assert lhs.s == pytest.approx(rhs.s, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(lhs.v, rhs.v, atol=1e-12)

    def test_rescale_normalizes_period(self):
        # after dilation by 2 pi / l the central element n_(l, 0) moves no
        # point of the polar chart
        l, t, A = 5.0, 0.7, 6.0
        g = HeisenbergElement(0.3, np.array([0.4 - 0.2j, 1.1j]))
        z = dilate(HeisenbergElement(l, np.zeros(2)), 2.0 * math.pi / l)
        assert z.s == pytest.approx(2.0 * math.pi, rel=1e-15)
        w0, v0 = cusp_to_disk(t, g, A)
        w1, v1 = cusp_to_disk(t, compose(z, g), A)
        assert w1 == pytest.approx(w0, rel=1e-14)
        np.testing.assert_array_equal(v1, v0)
