"""Tests for Green's-function barriers, superposition and tube checks."""

import numpy as np
import pytest

from conelab import barrier as br
from conelab import cli
from conelab.cones import DeformedCone, catalog_cones, make_cone
from conelab.errors import (
    DomainError,
    IterationLimitError,
    NoBarrierError,
    ParameterError,
    SingularPointError,
)
from conelab.grids import conformal_shape_shift
from conelab.perron import indicial_exponent, indicial_lambda_max, make_cutoff


@pytest.fixture(scope="module")
def deformed():
    c = make_cone(3, 3)
    alpha, _ = indicial_exponent(c, 5.0 / 12.0)
    return DeformedCone(c, alpha=alpha)


@pytest.fixture(scope="module")
def cutoff():
    return make_cutoff(4.0, 1.0)


def _axis_point(n, idx=0):
    p = np.zeros(n)
    p[idx] = 1.0
    return p


class TestGreen:
    def test_values(self):
        assert br.green(7, 1.0) == 1.0
        assert br.green(7, 2.0) == 2.0**-5

    def test_homogeneity(self):
        rho = np.geomspace(0.1, 10, 23)
        np.testing.assert_allclose(
            br.green(7, 3 * rho), 3.0**-5 * br.green(7, rho), rtol=1e-13
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            br.green(7, 0.0)


class TestGreenLaplacian:
    def test_analytic_harmonic(self, deformed):
        assert br.green_laplacian_residual(deformed) < 1e-12

    def test_stencil_second_order(self, deformed):
        r1 = br.green_laplacian_residual(deformed, step=1e-3)
        r2 = br.green_laplacian_residual(deformed, step=5e-4)
        assert 3.5 < r1 / r2 < 4.5

    def test_plain_cone_identical(self):
        d0 = DeformedCone(make_cone(3, 3), alpha=0.0)
        assert br.green_laplacian_residual(d0) < 1e-12


class TestTruncate:
    def test_mu_zero_constant_one(self, deformed, cutoff):
        b = br.BarrierSpec(deformed=deformed, mu=0.0, cutoff=cutoff)
        prof, rep = br.truncate(b)
        np.testing.assert_array_equal(prof.values, 1.0)
        assert rep["sup_penalty"] == 0.0

    def test_piecewise_regions(self, deformed, cutoff):
        n = deformed.base.n
        mu = 1e-3
        b = br.BarrierSpec(deformed=deformed, mu=mu, cutoff=cutoff)
        prof, _ = br.truncate(b)
        inside = prof.grid < 1.0
        outside = prof.grid > 2.0
        np.testing.assert_allclose(
            prof.values[inside], mu * prof.grid[inside] ** -(n - 2.0) + 1.0, rtol=1e-13
        )
        np.testing.assert_array_equal(prof.values[outside], 1.0)

    def test_penalty_exactly_linear(self, deformed, cutoff):
        mus = np.array([1e-4, 2e-4, 1e-3, 1e-2])
        pens = []
        for mu in mus:
            _, rep = br.truncate(br.BarrierSpec(deformed=deformed, mu=mu, cutoff=cutoff))
            pens.append(rep["sup_penalty"])
        slope = np.polyfit(np.log(mus), np.log(pens), 1)[0]
        assert abs(slope - 1.0) < 0.05
        # exact linearity, not just a fitted slope
        np.testing.assert_allclose(np.asarray(pens) / mus, pens[0] / mus[0], rtol=1e-9)

    def test_negative_mu_rejected(self, deformed, cutoff):
        with pytest.raises(ParameterError):
            br.BarrierSpec(deformed=deformed, mu=-1.0, cutoff=cutoff)


class TestScalPositivity:
    def test_mu_h_positive(self, deformed, cutoff):
        assert br.mu_h(deformed, cutoff) > 0

    def test_condition_holds_below_and_fails_above(self, deformed, cutoff):
        muh = br.mu_h(deformed, cutoff)
        iota = deformed.scal_rho2()
        rho = np.geomspace(1e-3, 10.0, 2000)
        for frac in (0.25, 0.5, 0.9):
            q = br.scal_quantity(
                br.BarrierSpec(deformed=deformed, mu=frac * muh, cutoff=cutoff), rho
            )
            assert np.all(q >= iota / 2.0)
        q_bad = br.scal_quantity(
            br.BarrierSpec(deformed=deformed, mu=4.0 * muh, cutoff=cutoff), rho
        )
        assert np.min(q_bad) < iota / 2.0

    def test_exact_away_from_shell(self, deformed, cutoff):
        # inside B_1 and outside B_2 the quantity equals iota exactly
        iota = deformed.scal_rho2()
        b = br.BarrierSpec(deformed=deformed, mu=1e-3, cutoff=cutoff)
        np.testing.assert_allclose(
            br.scal_quantity(b, np.array([0.01, 0.5, 3.0, 10.0])), iota, rtol=1e-12
        )

    def test_requires_positive_iota(self, cutoff):
        plain = DeformedCone(make_cone(3, 3), alpha=0.0)  # scal < 0
        with pytest.raises(NoBarrierError):
            br.mu_h(plain, cutoff)

    def test_default_band_value(self, deformed, cutoff):
        assert round(br.mu_h(deformed, cutoff), 6) == 0.029110

    def test_band_inside_harmonic_ball_has_no_finite_threshold(self, deformed, cutoff):
        # inside B_1 green is harmonic, so every mu passes and doubling never stops
        with pytest.raises(IterationLimitError):
            br.mu_h(deformed, cutoff, band=(1e-3, 0.5))


class TestAreaProfile:
    def test_mu_zero_monotone(self, deformed, cutoff):
        b = br.BarrierSpec(deformed=deformed, mu=0.0, cutoff=cutoff)
        rho = np.geomspace(0.01, 10, 300)
        a = br.area_profile(b, rho)
        assert np.all(np.diff(a) > 0)

    def test_large_rho_matches_untruncated(self, deformed, cutoff):
        b0 = br.BarrierSpec(deformed=deformed, mu=0.0, cutoff=cutoff)
        b1 = br.BarrierSpec(deformed=deformed, mu=1e-3, cutoff=cutoff)
        rho = np.array([2.5, 5.0, 10.0])
        np.testing.assert_allclose(br.area_profile(b1, rho), br.area_profile(b0, rho))

    def test_stationary_point_closed_form(self, deformed, cutoff):
        mu = 1e-5
        b = br.BarrierSpec(deformed=deformed, mu=mu, cutoff=cutoff)
        ob = br.ObstacleProblem(inner=1e-4, outer=0.9, area=lambda r: br.area_profile(b, r))
        n = deformed.base.n
        assert abs(ob.minimizer_radius() - mu ** (1.0 / (n - 2.0))) < 1e-7

    def test_obstacle_validation(self):
        with pytest.raises(DomainError):
            br.ObstacleProblem(inner=1.0, outer=0.5, area=lambda r: r)
        with pytest.raises(DomainError):
            br.ObstacleProblem(inner=0.1, outer=1.0, area=lambda r: r - 0.5)


class TestDeflectionRadius:
    def test_exact_power_law(self, deformed, cutoff):
        n = deformed.base.n
        for mu in (1e-5, 1e-4, 1e-3):
            b = br.BarrierSpec(deformed=deformed, mu=mu, cutoff=cutoff)
            assert abs(br.deflection_radius(b) - mu ** (1.0 / (n - 2.0))) < 1e-8

    def test_loglog_slope(self, cutoff):
        # n = 7 and n = 8 substrates, two decades of mu
        for p, q in ((3, 3), (4, 3)):
            c = make_cone(p, q)
            alpha, _ = indicial_exponent(c, 5.0 / 12.0 if (p, q) == (3, 3) else 0.5)
            d = DeformedCone(c, alpha=alpha)
            mus = np.geomspace(1e-6, 1e-4, 7)
            thetas = [
                br.deflection_radius(br.BarrierSpec(deformed=d, mu=m, cutoff=cutoff))
                for m in mus
            ]
            slope = np.polyfit(np.log(mus), np.log(thetas), 1)[0]
            assert abs(slope - 1.0 / (c.n - 2.0)) < 0.01 / (c.n - 2.0)

    def test_monotone_in_mu(self, deformed, cutoff):
        mus = np.geomspace(1e-6, 1e-3, 8)
        thetas = [
            br.deflection_radius(br.BarrierSpec(deformed=deformed, mu=m, cutoff=cutoff))
            for m in mus
        ]
        assert np.all(np.diff(thetas) > 0)

    def test_trace_positive_well_inside(self, deformed, cutoff):
        b = br.BarrierSpec(deformed=deformed, mu=1e-5, cutoff=cutoff)
        theta = br.deflection_radius(b)
        n = deformed.base.n
        rho = theta / 50.0
        assert abs(br.sphere_trace(b, rho) - (n - 1.0) / rho) < 0.1 * (n - 1.0) / rho

    def test_mu_zero_raises(self, deformed, cutoff):
        b = br.BarrierSpec(deformed=deformed, mu=0.0, cutoff=cutoff)
        with pytest.raises(NoBarrierError):
            br.deflection_radius(b)


class TestBarrierKernel:
    """sphere_trace over an array of radii, the batched shape shift under it,
    and the one-call ladder of deflection_radius."""

    @pytest.mark.parametrize("cone", catalog_cones(), ids=lambda c: f"n{c.n}")
    def test_array_trace_equals_scalar_traces_bitwise(self, cone, cutoff):
        alpha, _ = indicial_exponent(cone, 0.5 * indicial_lambda_max(cone))
        d = DeformedCone(cone, alpha=alpha)
        rho = np.geomspace(1e-6, 10.0, 257)
        for mu in np.geomspace(1e-6, 1e-3, 4):
            b = br.BarrierSpec(deformed=d, mu=float(mu), cutoff=cutoff)
            traces = br.sphere_trace(b, rho)
            assert traces.shape == rho.shape
            np.testing.assert_array_equal(traces, [br.sphere_trace(b, float(r)) for r in rho])
            np.testing.assert_array_equal(br.sphere_trace(b, rho.reshape(-1, 1)), traces[:, None])

    def test_scalar_rho_returns_float(self, deformed, cutoff):
        b = br.BarrierSpec(deformed=deformed, mu=1e-5, cutoff=cutoff)
        assert type(br.sphere_trace(b, 0.01)) is float
        assert type(br.sphere_trace(b, np.float64(0.01))) is float
        with pytest.raises(DomainError):
            br.sphere_trace(b, np.array([0.1, 0.0]))

    @pytest.mark.parametrize("lead", [(1,), (5,), (3, 4)])
    def test_batched_shape_shift_equals_per_item(self, lead):
        rng = np.random.default_rng(17)
        n = 7
        form = rng.normal(size=lead + (n - 1, n - 1))
        gr = rng.normal(size=lead + (n - 1, n - 1))
        u = rng.uniform(0.1, 2.0, lead)
        grad_u = rng.normal(size=lead + (n,))
        normal = rng.normal(size=lead + (n,))
        out = conformal_shape_shift(form, gr, u, grad_u, normal, n)
        assert out.shape == lead + (n - 1, n - 1)
        for idx in np.ndindex(*lead):
            item = conformal_shape_shift(form[idx], gr[idx], u[idx], grad_u[idx], normal[idx], n)
            np.testing.assert_array_equal(out[idx], item)
        u[(0,) * len(lead)] = 0.0
        with pytest.raises(DomainError):
            conformal_shape_shift(form, gr, u, grad_u, normal, n)

    def test_no_barrier_side(self, deformed, cutoff):
        # Theta = 0.1 at mu = 1e-5: the trace is already negative at rho = 1
        b = br.BarrierSpec(deformed=deformed, mu=1e-5, cutoff=cutoff)
        with pytest.raises(NoBarrierError, match="no barrier side"):
            br.deflection_radius(b, bracket=(1.0, 10.0))

    def test_no_sign_change(self, deformed, cutoff):
        b = br.BarrierSpec(deformed=deformed, mu=1e-5, cutoff=cutoff)
        with pytest.raises(NoBarrierError, match="no sign change"):
            br.deflection_radius(b, bracket=(1e-6, 1e-2))

    def test_nonpositive_bracket_rejected(self, deformed, cutoff):
        b = br.BarrierSpec(deformed=deformed, mu=1e-5, cutoff=cutoff)
        for bracket in ((0.0, 10.0), (-1e-6, 10.0), (1e-6, 0.0)):
            with pytest.raises(DomainError):
                br.deflection_radius(b, bracket=bracket)

    def test_theta_scaling_traces_each_ladder_once(self, monkeypatch, tmp_path):
        calls = []
        trace = br.sphere_trace

        def counted(b, rho):
            calls.append(np.size(rho))
            return trace(b, rho)

        monkeypatch.setattr(br, "sphere_trace", counted)
        scenario = {"schema_version": cli.SCHEMA_VERSION, "name": "theta", "seed": 16,
                    "checks": [{"check": "theta-scaling"}]}
        assert cli.run_scenario(scenario, output_root=tmp_path).status == "pass"
        # ten radii: one 400-rung ladder each, then scalar brentq steps
        assert calls.count(400) == 10
        assert len(calls) < 100


class TestLineBarrier:
    def test_exponents(self):
        assert br.line_exponent(7, 0.0) == 4.0
        assert br.line_exponent(7, -1.0) == 4.5

    def test_single_point_value(self):
        n = 7
        pt = br.LinePoint(direction=tuple(_axis_point(n)), weight=0.5)
        ls = br.LineBarrierSpec(n=n, points=(pt,), level=8)
        om = np.zeros(n)
        om[0], om[1] = np.cos(0.3), np.sin(0.3)
        assert np.isclose(br.line_barrier(ls, (om, 1.7)), 0.5 / 0.3**4 + 1.0)

    def test_empty_is_one(self):
        ls = br.LineBarrierSpec(n=7, points=(), level=8)
        om = _axis_point(7, 1)
        assert br.line_barrier(ls, (om, 0.0)) == 1.0

    def test_on_axis_raises(self):
        n = 7
        pt = br.LinePoint(direction=tuple(_axis_point(n)), weight=0.5)
        ls = br.LineBarrierSpec(n=n, points=(pt,), level=8)
        with pytest.raises(SingularPointError):
            br.line_barrier(ls, (_axis_point(n), 0.0))

    def test_weight_cap(self):
        n = 7
        pts = tuple(
            br.LinePoint(direction=tuple(_axis_point(n, i)), weight=6.0) for i in range(2)
        )
        with pytest.raises(ParameterError):
            br.LineBarrierSpec(n=n, points=pts, level=8)


class TestSuperposition:
    def test_single_point_level_one(self):
        n = 7
        pt = br.LinePoint(direction=tuple(_axis_point(n)), weight=0.5)
        ls = br.LineBarrierSpec(n=n, points=(pt,), level=1)
        sup = br.stieltjes_superpose(ls)
        assert len(sup.stations()) == 1
        om = np.zeros(n)
        om[0], om[2] = np.cos(0.4), np.sin(0.4)
        v = sup(om, 0.2)
        e = br.line_exponent(n, 0.0)
        cn = br._axis_kernel_constant(e)
        expected = 1.0 + 0.5 / cn * (0.4**2 + 0.2**2) ** (-(e + 1) / 2)
        assert np.isclose(v, expected, rtol=1e-13)

    def test_first_order_convergence(self):
        n = 7
        pt = br.LinePoint(direction=tuple(_axis_point(n)), weight=0.5)
        devs = {}
        angles = []
        for dd in (0.1, 0.2, 0.4, 0.5, 1.0):
            om = np.zeros(n)
            om[0], om[2] = np.cos(dd), np.sin(dd)
            angles.append(om)
        for level in (64, 128):
            ls = br.LineBarrierSpec(n=n, points=(pt,), level=level)
            sup = br.stieltjes_superpose(ls)
            devs[level] = np.array([
                max(abs(sup(om, t) - sup.segment_limit(om, t)) for t in (0.1, 0.3, 0.7))
                for om in angles
            ])
        # first order at every probe angle, and over all probes together
        ratios = devs[64] / devs[128]
        assert np.all((1.8 <= ratios) & (ratios <= 2.2)), ratios
        assert 1.8 <= devs[64].max() / devs[128].max() <= 2.2

    def test_penalty_linearity_in_weights(self):
        # doubling every weight doubles the (sum - 1) part exactly
        n = 7
        p1 = br.LinePoint(direction=tuple(_axis_point(n)), weight=0.3)
        p2 = br.LinePoint(direction=tuple(_axis_point(n, 1)), weight=0.7)
        doubled = tuple(
            br.LinePoint(direction=p.direction, weight=2 * p.weight, beta=p.beta)
            for p in (p1, p2)
        )
        om = np.zeros(n)
        om[0], om[3] = np.cos(0.8), np.sin(0.8)
        s1 = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=(p1, p2), level=16))
        s2 = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=doubled, level=16))
        assert np.isclose(s2(om, 0.4) - 1.0, 2.0 * (s1(om, 0.4) - 1.0), rtol=1e-13)

    def test_degenerate_segment(self):
        pt = br.LinePoint(direction=tuple(_axis_point(7)), weight=0.5)
        ls = br.LineBarrierSpec(n=7, points=(pt,), level=4)
        with pytest.raises(DomainError):
            br.stieltjes_superpose(ls, segment=(1.0, 1.0))


class TestTubeCheck:
    def test_single_barrier_positive(self):
        n = 7
        pt = br.LinePoint(direction=tuple(_axis_point(n)), weight=0.5)
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=(pt,), level=64))
        ok, margin = br.tube_barrier_check(sup, 0.05, axial_samples=16, transverse_samples=16)
        assert ok and margin > 0

    def test_vanishing_weight_negative(self):
        n = 7
        pt = br.LinePoint(direction=tuple(_axis_point(n)), weight=1e-12)
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=(pt,), level=8))
        ok, margin = br.tube_barrier_check(sup, 0.05, axial_samples=4, transverse_samples=4)
        assert not ok
        assert np.isclose(margin, -(n - 2.0) / np.tan(0.05), rtol=1e-3)

    def test_two_anchor_margin(self):
        n = 7
        p1 = br.LinePoint(direction=tuple(_axis_point(n)), weight=0.5)
        far = np.zeros(n)
        far[0], far[3] = np.cos(1.0), np.sin(1.0)
        p2 = br.LinePoint(direction=tuple(far), weight=0.5)
        single = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=(p1,), level=32))
        double = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=(p1, p2), level=32))
        ok1, m1 = br.tube_barrier_check(single, 0.05, axial_samples=8, transverse_samples=8)
        ok2, m2 = br.tube_barrier_check(double, 0.05, axial_samples=8, transverse_samples=8)
        assert ok1 and ok2
        # the far anchor only helps (it adds a decreasing-in-rho positive term),
        # but in the worst case costs no more than a small penalty
        assert m2 > 0.9 * m1
        # a 4-fold superposition at equal calibrated weights keeps a positive margin
        anchors = []
        for j, ang in enumerate((0.0, 0.9, 1.2, 1.5)):
            v = np.zeros(n)
            v[0], v[2 + j] = np.cos(ang), np.sin(ang)
            anchors.append(br.LinePoint(direction=tuple(v), weight=0.25))
        for points in ((anchors[0],), tuple(anchors)):
            sup = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=points, level=32))
            ok, margin = br.tube_barrier_check(sup, 0.05, axial_samples=8, transverse_samples=8)
            assert ok and margin > 0

    @pytest.mark.parametrize(
        "weight, level, samples, passes, calls",
        [
            # fails at 4x4, so it is repeated once at 8x8: 3 evaluations
            # per station, (16 + 64) stations
            (1e-12, 8, 4, False, 3 * (16 + 64)),
            # passes at 8x8: one pass
            (0.5, 32, 8, True, 3 * 64),
        ],
    )
    def test_refines_once_on_failure(self, weight, level, samples, passes, calls):
        n = 7
        pt = br.LinePoint(direction=tuple(_axis_point(n)), weight=weight)
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=(pt,), level=level))
        count = []

        class Counting:
            spec, segment = sup.spec, sup.segment

            def __call__(self, omega, t):
                count.append(1)
                return sup(omega, t)

        ok, _ = br.tube_barrier_check(Counting(), 0.05, axial_samples=samples, transverse_samples=samples)
        assert ok == passes
        assert len(count) == calls

    def test_radius_validation(self):
        pt = br.LinePoint(direction=tuple(_axis_point(7)), weight=0.5)
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=7, points=(pt,), level=4))
        with pytest.raises(DomainError):
            br.tube_barrier_check(sup, 2.0)


class TestDimshift:
    def test_n7_margin(self):
        rep = br.dimshift_scal_sign(1.0, 7)
        from fractions import Fraction

        assert rep["kappa_n"] == Fraction(5, 24)
        assert rep["kappa_prev"] == Fraction(1, 5)
        assert rep["margin_coefficient"] == Fraction(1, 120)
        assert rep["sign"] == "negative"

    def test_exact_closed_form(self):
        from fractions import Fraction

        for n in range(5, 13):
            assert br.dimshift_margin_exact(n) == Fraction(1, 4 * (n - 1) * (n - 2))

    def test_table(self):
        table = br.dimshift_table()
        assert [row["n"] for row in table] == list(range(5, 13))
        scaled = [row["n2_scaled"] for row in table]
        # n^2-scaled margins decrease toward the limit 1/4 from above
        assert all(s > 0.25 for s in scaled)
        assert all(b < a for a, b in zip(scaled, scaled[1:]))

    def test_constant_mode_residual_shift(self):
        # substituting the constant link mode: the residual changes by exactly
        # -(kappa_n - kappa_{n-1}) a^2 c
        rep = br.dimshift_scal_sign(2.0, 7, a=3.0)
        assert np.isclose(rep["residual_shift"], -float(rep["margin_coefficient"]) * 9.0 * 2.0)
