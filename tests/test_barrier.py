"""Tests for Green's-function barriers, superposition and tube checks."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conelab import barrier as br
from conelab import cli
from conelab.cones import CATALOG, DeformedCone, catalog_cones, make_cone
from conelab.errors import (
    DomainError,
    IterationLimitError,
    NoBarrierError,
    ParameterError,
    ResampleError,
    SingularPointError,
)
from conelab.grids import conformal_shape_shift
from conelab.perron import make_cutoff
from conelab.spectral import indicial_exponent, indicial_lambda_max
from oracles import mu_h_bisection, tube_check_pointwise


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


def _tilted_point(n, idx, angle):
    """cos(angle) e0 + sin(angle) e_idx."""
    p = np.zeros(n)
    p[0], p[idx] = np.cos(angle), np.sin(angle)
    return p


def _generic_anchors(n):
    # directions with every coordinate nonzero, so every dot rounds
    rng = np.random.default_rng(11)
    return (
        br.LinePoint(direction=tuple(rng.normal(size=n)), weight=0.4),
        br.LinePoint(direction=tuple(rng.normal(size=n)), weight=0.3, beta=-0.5),
    )


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
        # and a weight that is not finite
        for mu in (-1.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                br.BarrierSpec(deformed=deformed, mu=mu, cutoff=cutoff)


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
        # inside B_1 green is harmonic, so no sample bounds mu
        with pytest.raises(DomainError):
            br.mu_h(deformed, cutoff, band=(1e-3, 0.5))

    @pytest.mark.parametrize("band", [(0.0, 10.0), (1e-3, np.inf), (np.nan, 1.0), (10.0, 1e-3), (1.0, 1.0)])
    def test_band_validated(self, deformed, cutoff, band):
        with pytest.raises(DomainError):
            br.mu_h(deformed, cutoff, band=band)

    @pytest.mark.parametrize("shape", CATALOG, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.9])
    def test_closed_form_against_bisection(self, shape, frac):
        cone = make_cone(*shape)
        alpha, _ = indicial_exponent(cone, frac * indicial_lambda_max(cone))
        d = DeformedCone(cone, alpha=alpha)
        iota = d.scal_rho2()
        rho = np.geomspace(1e-3, 10.0, 2000)
        for K in (1.0, 4.0, 10.0, 40.0):
            cut = make_cutoff(K, 1.0)
            muh = br.mu_h(d, cut)
            ref = mu_h_bisection(d, cut)
            # the bisection returns a passing mu within its stopping tolerance
            assert ref <= muh <= ref + 1e-10 * max(muh, 1.0)
            below = br.scal_quantity(br.BarrierSpec(deformed=d, mu=muh * (1 - 1e-12), cutoff=cut), rho)
            above = br.scal_quantity(br.BarrierSpec(deformed=d, mu=muh * (1 + 1e-9), cutoff=cut), rho)
            assert np.all(below >= iota / 2.0)
            assert np.any(above < iota / 2.0)


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

    @pytest.mark.parametrize("cone", catalog_cones(), ids=lambda c: f"n{c.n}")
    def test_stationary_point_on_the_catalog(self, cone, cutoff):
        d = DeformedCone(cone, alpha=-0.25 * (cone.n - 2.0))
        for mu in (1e-6, 1e-4, 1e-3):
            b = br.BarrierSpec(deformed=d, mu=mu, cutoff=cutoff)
            ob = br.ObstacleProblem(inner=1e-4, outer=0.9, area=lambda r: br.area_profile(b, r))
            assert abs(ob.minimizer_radius() - mu ** (1.0 / (cone.n - 2.0))) < 1e-7

    def test_monotone_area_is_least_at_an_obstacle(self):
        assert br.ObstacleProblem(inner=0.1, outer=0.9, area=lambda r: r).minimizer_radius() == 0.1
        assert br.ObstacleProblem(inner=0.1, outer=0.9, area=lambda r: 1.0 / r).minimizer_radius() == 0.9

    def test_minimizer_search_ends_where_ulp_exceeds_the_tolerance(self):
        # ulp(3e7) = 3.7e-9 > 1e-10: the relative floor ends the search
        ob = br.ObstacleProblem(inner=1.0, outer=1e8, area=lambda r: 1.0 + np.log(r / 3e7) ** 2)
        assert abs(ob.minimizer_radius() - 3e7) < 1e-7 * 3e7

    def test_minimizer_area_calls_are_ladders(self, deformed, cutoff):
        b = br.BarrierSpec(deformed=deformed, mu=1e-5, cutoff=cutoff)
        calls = []
        ob = br.ObstacleProblem(inner=1e-4, outer=0.9,
                                area=lambda r: calls.append(np.shape(r)) or br.area_profile(b, r))
        ob.minimizer_radius()
        # the 64 probes of the constructor, then one ladder per narrowing
        assert set(calls) == {(64,)}
        assert len(calls) <= 12

    def test_obstacle_validation(self):
        with pytest.raises(DomainError):
            br.ObstacleProblem(inner=1.0, outer=0.5, area=lambda r: r)
        with pytest.raises(DomainError):
            br.ObstacleProblem(inner=0.1, outer=1.0, area=lambda r: r - 0.5)

    def test_area_probed_in_one_call(self):
        calls = []
        br.ObstacleProblem(inner=0.1, outer=1.0, area=lambda r: calls.append(np.shape(r)) or r)
        assert calls == [(64,)]


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

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, len(CATALOG) - 1), shrink=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           log_mu=st.floats(-6.0, -3.0))
    def test_closed_form_on_the_catalog(self, cutoff, k, shrink, log_mu):
        cone = make_cone(*CATALOG[k])
        mu = 10.0**log_mu
        b = br.BarrierSpec(deformed=DeformedCone(cone, alpha=-(cone.n - 2.0) / 2.0 * shrink),
                           mu=mu, cutoff=cutoff)
        exact = mu ** (1.0 / (cone.n - 2.0))
        with _counted_traces() as traces:
            theta = br.deflection_radius(b)
        assert abs(theta - exact) <= 1e-13 * exact
        # one ladder, then no more scalar traces than scipy's brentq needed
        assert traces[0] == 400 and len(traces) <= 1 + _ROOT_TRACES
        wide = br.deflection_radius(b, bracket=(1e-6, 1e3))
        assert abs(wide - theta) <= 1e-13 * theta


@contextlib.contextmanager
def _counted_traces():
    """Sizes of the sphere_trace calls made inside the block."""
    sizes = []
    trace = br.sphere_trace
    br.sphere_trace = lambda b, rho: sizes.append(np.size(rho)) or trace(b, rho)
    try:
        yield sizes
    finally:
        br.sphere_trace = trace


#: scalar traces after the ladder that scipy's brentq needed at most, its
#: two endpoint traces included, over 80 draws of the geometry workload
_ROOT_TRACES = 8


class TestBrentRoot:
    def test_linear_root_is_one_secant_step(self):
        calls = []
        f = lambda x: calls.append(x) or 0.25 - x
        assert br._brent_root(f, 0.0, 1.0, 0.25, -0.75, xtol=1e-14) == 0.25
        assert calls == [0.25]

    def test_zero_at_an_end_is_returned_without_a_step(self):
        fail = lambda x: pytest.fail("no step expected")
        assert br._brent_root(fail, 0.2, 0.3, 0.0, -1.0, xtol=1e-14) == 0.2
        assert br._brent_root(fail, 0.2, 0.3, 1.0, 0.0, xtol=1e-14) == 0.3

    def test_ends_where_ulp_exceeds_xtol(self):
        # ulp(700) = 1.1e-13 > xtol and the jump has no zero: a stopping test
        # on the bracket width alone never ends; the 4 eps |x| floor does
        jump = lambda x: 1.0 if x < 700.0 else -1.0
        root = br._brent_root(jump, 1.0, 1e3, 1.0, -1.0, xtol=1e-14)
        assert abs(root - 700.0) <= 4.0 * 4.0 * np.finfo(float).eps * 700.0

    def test_steps_are_capped(self):
        # a tolerance that no bracket meets raises instead of looping
        with pytest.raises(IterationLimitError):
            br._brent_root(lambda x: 1.0 if x < 1.0 / 3.0 else -1.0, 0.0, 1.0, 1.0, -1.0, xtol=-1.0)


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
        # and every bracket outside 0 < lo < hi < inf
        for bracket in ((0.0, 10.0), (-1e-6, 10.0), (1e-6, 0.0),
                        (1e-6, np.inf), (np.nan, 10.0), (1e-6, np.nan), (10.0, 1e-6)):
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
        # ten radii: one 400-rung ladder each, then the scalar root steps
        # (none where a rung traces to exactly 0, as at mu = 1e-5)
        starts = [k for k, size in enumerate(calls) if size == 400]
        assert len(starts) == 10 and starts[0] == 0
        assert set(calls) - {400} == {1}
        assert np.all(np.diff(starts + [len(calls)]) - 1 <= _ROOT_TRACES)


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

    def test_sphere_distance_broadcasts(self):
        rng = np.random.default_rng(4)
        om = rng.normal(size=(6, 1, 7))
        om /= np.linalg.norm(om, axis=-1, keepdims=True)
        ps = np.array([p.unit() for p in _generic_anchors(7)])
        dist = br.sphere_distance(om, ps)
        assert dist.shape == (6, 2)
        for i, j in np.ndindex(6, 2):
            # each pair rounds as the scalar np.dot of that pair
            one = float(np.arccos(np.clip(np.dot(om[i, 0], ps[j]), -1.0, 1.0)))
            assert br.sphere_distance(om[i, 0], ps[j]) == one == dist[i, j]

    def test_weight_cap(self):
        n = 7
        pts = tuple(
            br.LinePoint(direction=tuple(_axis_point(n, i)), weight=6.0) for i in range(2)
        )
        with pytest.raises(ParameterError):
            br.LineBarrierSpec(n=n, points=pts, level=8)

    def test_direction_length_must_be_n(self):
        pt = br.LinePoint(direction=tuple(_axis_point(6)), weight=0.5)
        with pytest.raises(DomainError):
            br.LineBarrierSpec(n=7, points=(pt,), level=8)

    @pytest.mark.parametrize("level", [0, 2.5, True, 4.0])
    def test_level_must_be_a_positive_integer(self, level):
        pt = br.LinePoint(direction=tuple(_axis_point(7)), weight=0.5)
        with pytest.raises(ParameterError):
            br.LineBarrierSpec(n=7, points=(pt,), level=level)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, 0.0, -0.5])
    def test_weight_must_be_positive_and_finite(self, weight):
        pt = br.LinePoint(direction=tuple(_axis_point(7)), weight=weight)
        with pytest.raises(ParameterError):
            br.LineBarrierSpec(n=7, points=(pt,), level=8)


class TestSuperposition:
    @pytest.mark.parametrize("n", range(5, 12))
    def test_axis_kernel_constant_is_the_axis_integral(self, n):
        for beta in np.linspace(-1.5, 2.0, 8):
            e = br.line_exponent(n, beta)
            val, _ = quad(lambda s: (1.0 + s * s) ** (-(e + 1.0) / 2.0), -np.inf, np.inf,
                          epsabs=0.0, epsrel=1e-13)
            assert abs(br._axis_kernel_constant(e) - val) <= 1e-13 * val

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

    @pytest.mark.parametrize("anchors", [1, 2])
    @pytest.mark.parametrize("batch", [(9,), (4, 6)])
    def test_array_calls_equal_pointwise(self, anchors, batch):
        n = 7
        sup = br.stieltjes_superpose(
            br.LineBarrierSpec(n=n, points=_generic_anchors(n)[:anchors], level=16),
            segment=(-0.5, 1.5),
        )
        rng = np.random.default_rng(anchors + len(batch))
        om = rng.normal(size=batch + (n,))
        om /= np.linalg.norm(om, axis=-1, keepdims=True)
        ts = rng.uniform(-1.0, 2.0, size=batch)
        vals = sup(om, ts)
        assert vals.shape == batch
        for idx in np.ndindex(*batch):
            one = sup(om[idx], ts[idx])
            assert type(one) is float and vals[idx] == one
        # directions (batch, 1, n) against heights (k,) give a (batch, k) table
        table = sup(om[..., None, :], ts.ravel()[:5])
        assert table.shape == batch + (5,)
        for idx in np.ndindex(*table.shape):
            assert table[idx] == sup(om[idx[:-1]], ts.ravel()[idx[-1]])

    def test_segment_limit_on_axis_raises(self):
        n = 7
        pt = br.LinePoint(direction=tuple(_axis_point(n)), weight=0.5)
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=(pt,), level=8))
        with pytest.raises(SingularPointError):
            sup.segment_limit(_axis_point(n), 0.3)
        with pytest.raises(SingularPointError):
            sup(_axis_point(n), 0.3)

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
        "weight, level, samples, passes",
        [
            (1e-12, 8, 4, False),
            (0.5, 32, 8, True),
        ],
    )
    def test_one_pass(self, weight, level, samples, passes):
        n = 7
        pt = br.LinePoint(direction=tuple(_axis_point(n)), weight=weight)
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=(pt,), level=level))
        count = []

        class Counting:
            spec, segment = sup.spec, sup.segment

            def __call__(self, omega, t):
                # evaluated (omega, t) points of this call
                count.append(np.prod(np.broadcast_shapes(np.shape(omega)[:-1], np.shape(t))))
                return sup(omega, t)

        ok, _ = br.tube_barrier_check(Counting(), 0.05, axial_samples=samples, transverse_samples=samples)
        assert ok == passes
        # one call per stencil offset, each over every station, pass or fail
        assert len(count) == 3
        assert sum(count) == 3 * samples**2

    @pytest.mark.parametrize(
        "points, level, samples, seed",
        [
            # the cases above, and the CLI's line-superposition case (seed
            # 17); an anchor (idx, angle, weight) points along
            # cos(angle) e0 + sin(angle) e_idx, so (1, 0.0, w) is e0
            (((1, 0.0, 0.5),), 64, 16, 0),
            (((1, 0.0, 1e-12),), 8, 4, 0),
            (((1, 0.0, 0.5),), 32, 8, 0),
            (((1, 0.0, 0.5), (3, 1.0, 0.5)), 32, 8, 0),
            (((1, 0.0, 0.5),), 32, 8, 17),
            (((1, 0.0, 0.5), (3, 1.0, 0.5)), 32, 8, 17),
            (tuple((2 + j, ang, 0.25) for j, ang in enumerate((0.0, 0.9, 1.2, 1.5))), 32, 8, 0),
        ],
    )
    def test_equals_pointwise_reference(self, points, level, samples, seed):
        n = 7
        anchors = tuple(
            br.LinePoint(direction=tuple(_tilted_point(n, idx, ang)), weight=w)
            for idx, ang, w in points
        )
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=anchors, level=level))
        args = (sup, 0.05, samples, samples, seed)
        ok, margin = br.tube_barrier_check(*args)
        ok_ref, margin_ref = tube_check_pointwise(*args)
        assert ok == ok_ref and margin == margin_ref

    def test_generic_anchors_equal_pointwise_reference(self):
        # a first axis off the coordinate axes: every dot and gemv rounds
        n = 7
        sup = br.stieltjes_superpose(
            br.LineBarrierSpec(n=n, points=_generic_anchors(n), level=16), segment=(0.0, 2.0)
        )
        for seed in (0, 3):
            args = (sup, 0.2, 6, 5, seed)
            assert br.tube_barrier_check(*args) == tube_check_pointwise(*args)
        # one transverse sample per seed, so that every sample sets a margin
        for seed in range(40):
            args = (sup, 0.2, 3, 1, seed)
            assert br.tube_barrier_check(*args) == tube_check_pointwise(*args)

    def test_sample_on_another_axis_resamples(self):
        # the second anchor sits on the tube, at the first transverse sample
        n, rho = 7, 0.05
        p = _axis_point(n)
        coeff = np.random.default_rng(0).normal(size=n - 1)
        v = br._orthonormal_complement(p).T @ (coeff / np.linalg.norm(coeff))
        hit = np.cos(rho) * p + np.sin(rho) * v
        anchors = (br.LinePoint(direction=tuple(p), weight=0.5),
                   br.LinePoint(direction=tuple(hit), weight=0.5))
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=anchors, level=8))
        for check in (br.tube_barrier_check, tube_check_pointwise):
            with pytest.raises(ResampleError):
                check(sup, rho, 4, 4)

    def test_sample_counts_validated(self):
        pt = br.LinePoint(direction=tuple(_axis_point(7)), weight=0.5)
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=7, points=(pt,), level=4))
        for axial, transverse in ((0, 4), (4, 0), (2.5, 4), (4, 2.5), (True, 4), (4, True)):
            with pytest.raises(ParameterError):
                br.tube_barrier_check(sup, 0.05, axial, transverse)
        # numpy integers are counts
        assert br.tube_barrier_check(sup, 0.05, np.int64(2), np.int32(2))[0]

    def test_radius_validation(self):
        pt = br.LinePoint(direction=tuple(_axis_point(7)), weight=0.5)
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=7, points=(pt,), level=4))
        with pytest.raises(DomainError):
            br.tube_barrier_check(sup, 2.0)


def _obstacle(inner, outer):
    return br.ObstacleProblem(inner=inner, outer=outer, area=lambda r: r)


def _line_spec():
    anchor = br.LinePoint(direction=tuple(_axis_point(7)), weight=1.0)
    return br.LineBarrierSpec(n=7, points=(anchor,), level=8)


def _superpose(segment):
    return br.stieltjes_superpose(_line_spec(), segment)


#: malformed input -> (call, the typed error it raises)
_MALFORMED = {
    "obstacle-outer-inf": (lambda: _obstacle(0.1, np.inf), DomainError),
    "obstacle-inner-nan": (lambda: _obstacle(np.nan, 1.0), DomainError),
    "segment-inf-end": (lambda: _superpose((0.0, np.inf)), DomainError),
    "segment-inf-start": (lambda: _superpose((-np.inf, 0.0)), DomainError),
    "segment-nan-end": (lambda: _superpose((0.0, np.nan)), DomainError),
    # 8e12 stations: evaluating one point allocated 58.2 TiB
    "segment-beyond-station-cap": (lambda: _superpose((0.0, 1e12)), ParameterError),
    "superposition-beyond-station-cap": (lambda: br.Superposition(_line_spec(), (0.0, 1e12)), ParameterError),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_raises_typed_error(case):
    call, error = _MALFORMED[case]
    with pytest.raises(error):
        call()


def test_station_cap_is_inclusive():
    assert _superpose((0.0, br._MAX_STATIONS / 8)).stations().size == br._MAX_STATIONS
    with pytest.raises(ParameterError, match="stations"):
        _superpose((0.0, br._MAX_STATIONS / 8 + 1.0))
