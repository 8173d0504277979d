"""Tests for the minimal-cone catalog."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import cli
from conelab.cones import (
    CATALOG,
    ConeSpec,
    DeformedCone,
    RadialProfile,
    catalog_cones,
    cone_scal,
    deformed_distance,
    deformed_metric,
    make_cone,
    second_form_norm2,
)
from conelab.errors import DivergentDistanceError, DomainError
from conelab.grids import MetricField, scalar_curvature
from oracles import embedded_link_shape


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
        d = DeformedCone(c, alpha=0.0)
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
    def test_measured_distance_inside_bracket(self):
        # deformed_distance for beta in (-(n-2)/2, 0) sits inside the bracket
        # k1 r^{1-theta+} < rho <= k2 r^{1-theta-} with theta± = -2 beta/(n-2)
        # ± small slack and k = 1/(1+2beta/(n-2))
        c = make_cone(3, 3)
        beta = -0.43845
        e = 1.0 + 2.0 * beta / (c.n - 2.0)
        theta = -2.0 * beta / (c.n - 2.0)
        k = 1.0 / e
        r = np.logspace(-3, 0, 25)
        rho = deformed_distance(c, beta, r)
        lo, hi = k * 0.999 * r ** (1.0 - theta * 0.999), k * 1.000001 * r ** (1.0 - theta)
        assert np.all(rho > lo) and np.all(rho <= hi)


class TestQuadricOracle:
    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 6), q=st.integers(1, 6), r=st.floats(1e-2, 1e2), seed=st.integers(0, 2**32 - 1))
    def test_curvature_matches_the_quadric(self, p, q, r, seed):
        # the shape operator of {q|x|^2 = p|y|^2} at a random cone point is
        # traceless and gives |A|^2, scal and, by the Gauss equation, the
        # link's scal, beyond the four catalog cones
        low = pytest.warns(UserWarning, match="outside the area-minimizing regime")
        with low if p + q + 1 < 7 else contextlib.nullcontext():
            c = make_cone(p, q)
        (shape,) = cli._quadric_shape(c, np.array([r]), np.random.default_rng(seed))
        a2r2 = np.sum(shape**2) * r**2
        assert abs(np.trace(shape)) * r < 1e-12
        assert second_form_norm2(c, r) * r**2 == pytest.approx(a2r2, rel=1e-12)
        assert cone_scal(c, r) * r**2 == pytest.approx(-a2r2, rel=1e-12)
        assert c.link_scal == pytest.approx((c.n - 1) * (c.n - 2) - a2r2, rel=1e-12, abs=1e-12)


class TestRadialProfile:
    def test_validation(self):
        with pytest.raises(DomainError):
            RadialProfile(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(DomainError):
            RadialProfile(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(DomainError):
            RadialProfile(np.array([1.0, 2.0]), np.array([np.inf, 0.0]))

    def test_interpolation(self):
        grid = np.linspace(1, 2, 11)
        prof = RadialProfile(grid, 2 * grid)
        assert np.isclose(prof(1.55), 3.1)


#: malformed input -> (call, the typed error it raises)
_MALFORMED = {
    "p-fraction": (lambda: make_cone(2.5, 3), DomainError),
    "q-fraction": (lambda: make_cone(3, 2.5), DomainError),
    "p-bool": (lambda: make_cone(True, 3), DomainError),
    "p-zero": (lambda: make_cone(0, 3), DomainError),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_raises_typed_error(case):
    call, error = _MALFORMED[case]
    with pytest.raises(error):
        call()
