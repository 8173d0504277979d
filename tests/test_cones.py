"""Tests for the minimal-cone catalog."""

import numpy as np
import pytest

from conelab import cones
from conelab.cones import (
    CATALOG,
    ConeSpec,
    DeformedCone,
    RadialProfile,
    catalog_cones,
    cone_scal,
    deformed_distance,
    deformed_metric,
    distortion_bounds,
    embedded_link_shape,
    link_diameter,
    make_cone,
    second_form_norm2,
)
from conelab.errors import DivergentDistanceError, DomainError
from conelab.grids import MetricField, scalar_curvature


class TestMakeCone:
    def test_simons(self):
        c = make_cone(3, 3)
        assert c.n == 7
        assert np.isclose(c.a, 1 / np.sqrt(2))
        assert np.isclose(c.b, 1 / np.sqrt(2))

    def test_4_3(self):
        c = make_cone(4, 3)
        assert c.n == 8
        assert np.isclose(c.a, np.sqrt(4 / 7))
        assert np.isclose(c.b, np.sqrt(3 / 7))

    def test_low_dimension_warns(self):
        with pytest.warns(UserWarning):
            c = make_cone(1, 1)
        assert c.n == 3
        assert np.isclose(c.a, 1 / np.sqrt(2))

    def test_radius_identity(self):
        for c in catalog_cones():
            assert np.isclose(c.a**2 + c.b**2, 1.0)


class TestCurvatureData:
    def test_second_form_values(self):
        simons = make_cone(3, 3)
        assert np.isclose(second_form_norm2(simons, 1.0), 6.0)
        assert np.isclose(second_form_norm2(simons, 2.0), 1.5)
        assert np.isclose(second_form_norm2(make_cone(4, 3), 1.0), 7.0)

    def test_cone_scal(self):
        simons = make_cone(3, 3)
        assert np.isclose(cone_scal(simons, 1.0), -6.0)
        r = np.logspace(-2, 3, 40)
        assert np.all(cone_scal(simons, r) < 0)
        assert abs(cone_scal(simons, 1e6)) < 1e-11

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            second_form_norm2(make_cone(3, 3), 0.0)

    def test_embedding_oracle_minimality(self):
        # numerically embedded link: mean curvature < 1e-8 in S^n
        for p, q in CATALOG:
            h, a2 = embedded_link_shape(make_cone(p, q), r=1.0)
            assert abs(h) < 1e-8
            assert np.isclose(a2, p + q, rtol=1e-6)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_embedding_oracle_matches_formula(self, r):
        c = make_cone(3, 3)
        _, a2 = embedded_link_shape(c, r=r)
        assert np.isclose(a2, second_form_norm2(c, r), rtol=1e-6)


class TestDeformedCone:
    def test_alpha_zero_is_plain_cone(self):
        with pytest.warns(UserWarning, match=r"cone \(1,1\) has n = 3 < 7"):
            c = make_cone(1, 1)
        d = DeformedCone(c, alpha=0.0, c0=1.0)
        assert d.slope == 1.0
        m = deformed_metric(d, rho_range=(0.8, 1.2), count=5)
        g = MetricField.from_function(m.chart, m.metric_fn).g
        # plain cone: g_rhorho = 1, g_link scaled by rho^2
        rho = m.chart.coords_1d(0)
        np.testing.assert_allclose(g[..., 0, 0], 1.0)
        np.testing.assert_allclose(
            g[:, 2, 2, 1, 1], c.a**2 * rho**2, rtol=1e-12
        )
        # undeformed scal matches cone_scal at rho
        assert np.isclose(d.scal_rho2(), cone_scal(c, 1.0))

    def test_alpha_bounds(self):
        c = make_cone(3, 3)
        with pytest.raises(DomainError):
            DeformedCone(c, alpha=-2.5)
        with pytest.raises(DomainError):
            DeformedCone(c, alpha=0.1)

    def test_scal_closed_form_vs_grid(self):
        # cross-check the warped closed form with metric-core stencils on a
        # griddable low-dimensional cone (torus link)
        with pytest.warns(UserWarning):
            c = make_cone(1, 2)
        d = DeformedCone(c, alpha=-0.4)
        m = deformed_metric(d, rho_range=(0.9, 1.1), count=9)
        p = (4, 4, 4, 4)
        rho = m.chart.node_coords(p)[0]
        assert np.isclose(
            scalar_curvature(m, p), d.scal_rho2() / rho**2, rtol=1e-9
        )

    def test_homothety_invariance(self):
        with pytest.warns(UserWarning):
            c = make_cone(1, 1)
        d = DeformedCone(c, alpha=-0.2)
        for s in (0.5, 3.0):
            m1, m2 = (
                MetricField.from_function(m.chart, m.metric_fn)
                for m in (deformed_metric(d, rho_range=(1.0, 2.0), count=5),
                          deformed_metric(d, rho_range=(s * 1.0, s * 2.0), count=5))
            )
            # scaling rho by s multiplies the sampled metric by s^2 (the
            # rho-rho entry is scale free, link block scales)
            np.testing.assert_allclose(
                m2.g[..., 1, 1], s**2 * m1.g[..., 1, 1], rtol=1e-12
            )

    def test_scal_scaling_invariance(self):
        d = DeformedCone(make_cone(3, 3), alpha=-0.9)
        const = d.scal_rho2()
        for s in (0.1, 10.0):
            assert np.isclose(const / (s * 1.3) ** 2 * (s * 1.3) ** 2, const)

    def test_deformed_scal_positive_in_working_regime(self):
        # for strongly negative alpha the deformed cone has positive scal
        d = DeformedCone(make_cone(3, 3), alpha=-0.9189)
        assert d.scal_rho2() > 0


class TestDeformedDistance:
    def test_beta_zero(self):
        c = make_cone(3, 3)
        assert np.isclose(deformed_distance(c, 0.0, 1.7), 1.7)

    def test_quadrature_oracle(self):
        # rho(r) = integral_0^r t^{2 beta/(n-2)} dt
        from scipy.integrate import quad

        c = make_cone(3, 3)
        beta = -1.0
        for r in (0.3, 1.0, 2.5):
            expected, _ = quad(lambda t: t ** (2 * beta / (c.n - 2)), 0.0, r)
            assert np.isclose(deformed_distance(c, beta, r), expected, rtol=1e-10)
        assert np.isclose(deformed_distance(c, -1.0, 1.0), 5.0 / 3.0)

    def test_monotone(self):
        c = make_cone(3, 3)
        r = np.linspace(0.1, 2.0, 50)
        rho = deformed_distance(c, -0.7, r)
        assert np.all(np.diff(rho) > 0)

    def test_divergent(self):
        c = make_cone(3, 3)
        with pytest.raises(DivergentDistanceError):
            deformed_distance(c, -2.6, 1.0)


class TestDistortionBounds:
    def test_degenerate_bracket(self):
        lo, hi = distortion_bounds(2.0, 0.3, 0.3, 1.5, 1.5)
        assert np.isclose(lo, hi)

    def test_undeformed(self):
        lo, hi = distortion_bounds(0.37, 0.0, 0.0, 1.0, 1.0)
        assert np.isclose(lo, 0.37) and np.isclose(hi, 0.37)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            distortion_bounds(1.0, 0.5, 0.3, 1.0, 2.0)
        with pytest.raises(DomainError):
            distortion_bounds(1.0, 0.2, 0.3, 2.0, 1.0)

    def test_measured_distance_inside_bracket(self):
        # deformed_distance for beta in (-(n-2)/2, 0) sits inside the bracket
        # with theta± = -2 beta/(n-2) ± small slack and k = 1/(1+2beta/(n-2))
        c = make_cone(3, 3)
        beta = -0.43845
        e = 1.0 + 2.0 * beta / (c.n - 2.0)
        theta = -2.0 * beta / (c.n - 2.0)
        k = 1.0 / e
        r = np.logspace(-3, 0, 25)
        rho = deformed_distance(c, beta, r)
        lo, hi = distortion_bounds(r, theta * 0.999, theta, k * 0.999, k * 1.000001)
        assert np.all(rho > lo) and np.all(rho <= hi)


class TestLinkDiameter:
    def test_always_pi_on_catalog(self):
        for c in catalog_cones():
            assert np.isclose(link_diameter(c), np.pi, atol=1e-12)

    def test_sampled_oracle(self):
        # product-metric distances d = sqrt(d_p^2 + d_q^2) over random pairs
        # never exceed the formula and approach it at antipodes
        rng = np.random.default_rng(3)
        c = make_cone(3, 3)
        dp = c.a * rng.uniform(0, np.pi, 4000)
        dq = c.b * rng.uniform(0, np.pi, 4000)
        sampled = np.sqrt(dp**2 + dq**2)
        diam = link_diameter(c)
        assert sampled.max() <= diam + 1e-12
        antipodal = np.sqrt((np.pi * c.a) ** 2 + (np.pi * c.b) ** 2)
        assert np.isclose(antipodal, diam)

    def test_finite_positive(self):
        for c in catalog_cones():
            assert 0 < link_diameter(c) < np.inf


class TestRadialProfile:
    def test_validation(self):
        with pytest.raises(DomainError):
            RadialProfile(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(DomainError):
            RadialProfile(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(DomainError):
            RadialProfile(np.array([1.0, 2.0]), np.array([np.inf, 0.0]))

    def test_interpolation(self):
        prof = RadialProfile.from_function(np.linspace(1, 2, 11), lambda r: 2 * r)
        assert np.isclose(prof(1.55), 3.1)
