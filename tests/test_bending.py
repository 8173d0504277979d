"""Tests for the tube-bending module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from conelab import bending as bd
from conelab import grids
from conelab.errors import (
    DomainError,
    IterationLimitError,
    ParameterError,
    ResolutionError,
)
from conelab.grids import AnalyticMetric, MetricField, scalar_curvature
from oracles import bend_jet_full_quadrature, cross_section_tube, cylinder_tube, trace_a


# ---------------------------------------------------------------------------
# the bend profile h
# ---------------------------------------------------------------------------

class TestBuildH:
    def test_profile_invariants_on_dense_sample(self):
        bp = bd.build_h(3.0, 0.25)
        t = np.linspace(-bp.sigma, bp.sigma, 10001)
        h, hp, hpp = bp.jet(t)
        assert h.min() > 0
        assert np.abs(hp).max() <= 1.0
        assert hpp.min() >= 0.0
        np.testing.assert_allclose(h, h[::-1], rtol=0, atol=1e-15)

    def test_identity_outside_transition(self):
        bp = bd.build_h(2.0, 0.3)
        t = np.array([-0.9, -0.5, -0.3, 0.3, 0.4, 0.7])
        h, hp, hpp = bp.jet(t)
        np.testing.assert_array_equal(h, np.abs(t))
        np.testing.assert_array_equal(hp, np.sign(t))
        np.testing.assert_array_equal(hpp, np.zeros_like(t))

    def test_jet_at_transition_endpoint(self):
        bp = bd.build_h(5.0, 0.1)
        h, hp, hpp = bp.jet(np.array([0.1]))
        assert h[0] == pytest.approx(0.1, abs=1e-15)
        assert hp[0] == 1.0
        assert hpp[0] == 0.0

    def test_core_jet_values(self):
        # h'(0) = 0 and h''(0) = k exactly by construction
        k = 7.5
        bp = bd.build_h(k, 0.2)
        _, hp, hpp = bp.jet(np.array([0.0]))
        assert hp[0] == 0.0
        assert hpp[0] == k

    def test_height_matches_quadrature_oracle(self):
        k, delta = 2.0, 0.3
        bp = bd.build_h(k, delta)
        psi = lambda s: k * delta * s / (delta - s)
        for t in (0.0, 0.07, 0.15, 0.29):
            tail, _ = quad(lambda s: np.exp(-psi(s)), t, delta, epsabs=1e-14)
            assert bp(np.array([t]))[0] == pytest.approx(t + tail, abs=1e-12)

    def test_stiffness_ratio_certified(self):
        for k in (0.5, 2.0, 20.0):
            bp = bd.build_h(k, 0.2)
            assert bp.report["ratio_right"] >= -1e-9 * k
            assert bp.report["ratio_left"] >= -1e-9 * k
            # equality at t = 0 makes the certified minimum essentially zero
            assert bp.report["ratio_right"] < 1e-3 * k

    def test_derivative_consistency(self):
        # h' and h'' from the jet agree with differences of h
        bp = bd.build_h(4.0, 0.25)
        t = np.linspace(-0.2, 0.2, 41)
        eps = 1e-6
        h_p = bp(t + eps)
        h_m = bp(t - eps)
        h0, hp, hpp = bp.jet(t)
        np.testing.assert_allclose((h_p - h_m) / (2 * eps), hp, atol=1e-8)
        np.testing.assert_allclose((h_p - 2 * h0 + h_m) / eps**2, hpp, atol=2e-4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            bd.build_h(0.0, 0.2)
        with pytest.raises(ParameterError):
            bd.build_h(1.0, -0.2)
        with pytest.raises(DomainError):
            bd.build_h(1.0, 0.3, sigma=0.5)


#: multiples of delta: the core, both transition ends, the last point the
#: quadrature clamps, and points beyond sigma = 2.5 delta
_SPECIAL = (0.0, -0.0, 1.0, -1.0, 1.0 - 1e-14, -(1.0 - 1e-14), 2.5, -2.5, 2.75, -3.0)
_MULTIPLES = st.one_of(st.sampled_from(_SPECIAL), st.floats(-3.0, 3.0))


class TestJetQuadrature:
    """The quadrature runs only where |t| < delta, and h, h', h'' equal the
    full quadrature over every point to the bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.floats(1e-2, 1e3),
        delta=st.floats(1e-3, 10.0),
        scalar=_MULTIPLES,
        shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
        data=st.data(),
    )
    def test_bit_identical_to_full_quadrature(self, k, delta, scalar, shape, data):
        bp = bd.BendProfile(k=k, delta=delta, sigma=2.5 * delta, report={})
        array = data.draw(hnp.arrays(float, shape, elements=_MULTIPLES))
        for t in (scalar * delta, np.float64(scalar * delta), array * delta):
            got, want = bp.jet(t), bend_jet_full_quadrature(bp, t)
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(w) == np.shape(t)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_special_points_on_one_array(self):
        bp = bd.build_h(3.0, 0.25)
        t = np.array(_SPECIAL) * bp.delta
        for g, w in zip(bp.jet(t), bend_jet_full_quadrature(bp, t)):
            assert g.tobytes() == w.tobytes()
        for g, w in zip(bp.jet(t.reshape(2, 5)), bend_jet_full_quadrature(bp, t.reshape(2, 5))):
            assert g.tobytes() == w.tobytes()

    def test_scal_compare_evaluates_the_profile_at_most_twice(self, monkeypatch):
        tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)
        bp = bd.build_h(2.0, 0.2)
        calls = []
        jet = bd.BendProfile.jet
        monkeypatch.setattr(bd.BendProfile, "jet", lambda self, t: calls.append(np.shape(t)) or jet(self, t))
        bd.scal_compare(tm, bp, samples=201)
        assert 1 <= len(calls) <= 2

    def test_bent_warp_follows_its_input(self):
        # the one-entry memo is keyed on values: a new array, the same values
        # in a new array, and an array changed in place each get their own jet
        tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)
        bp = bd.build_h(2.0, 0.2)
        warp = bd.bent_warp(tm, bp)
        f, df, d2f = tm.warp

        def fresh(t):
            h, hp, hpp = bp.jet(t)
            return f(h), df(h) * hp, d2f(h) * hp**2 + df(h) * hpp

        t1, t2 = np.linspace(0.0, 0.4, 7), np.linspace(-0.3, 0.1, 7)
        t3 = t1.copy()
        for t in (t1, t2, t1.copy(), t1[:3], t3):
            for fn, want in zip(warp, fresh(t)):
                assert fn(t).tobytes() == want.tobytes()
        t3[2] = 0.05
        for fn, want in zip(warp, fresh(t3)):
            assert fn(t3).tobytes() == want.tobytes()
        # every call shares the memo's arrays, so none can be written
        with pytest.raises(ValueError, match="read-only"):
            warp[0](t3)[0] = 1.0


# ---------------------------------------------------------------------------
# tube metrics
# ---------------------------------------------------------------------------

class TestTubeMetric:
    def test_sphere_tube_mean_curvature(self):
        # geodesic sphere of radius theta0 in the round S^n
        tm = bd.sphere_tube(4, theta0=0.9, sigma=0.4)
        assert trace_a(tm) == pytest.approx(3.0 / np.tan(0.9), rel=1e-14)

    def test_cross_section_tube_mean_curvature(self):
        tm = cross_section_tube(2.0, 0.5)
        assert trace_a(tm) == pytest.approx(0.5, rel=1e-14)

    def test_cylinder_tube_flat_core(self):
        tm = cylinder_tube(4, radius=1.0, sigma=0.4)
        assert trace_a(tm) == 0.0

    def test_fermi_form(self):
        tm = bd.sphere_tube(5, theta0=1.1, sigma=0.4)
        g, dg, _ = tm.field().jet(np.array([0.17, 1.3, 1.6, 1.5, 1.8]))
        assert g[0, 0] == 1.0
        np.testing.assert_array_equal(g[0, 1:], np.zeros(4))
        # normal derivative of the core block is negative definite (shrinking)
        assert np.all(np.diag(dg[0])[1:] < 0)

    def test_field_builds_metric(self):
        tm = cross_section_tube(1.5, 0.4)
        m = tm.field()
        assert isinstance(m, AnalyticMetric)
        g, dg, d2g = m.jet(np.array([0.1, np.pi / 2]))
        assert (g.shape, dg.shape, d2g.shape) == ((2, 2), (2, 2, 2), (2, 2, 2, 2))

    def test_validation(self):
        with pytest.raises(DomainError):
            bd.sphere_tube(4, theta0=1.8, sigma=0.4)  # not mean-convex range
        with pytest.raises(DomainError):
            bd.sphere_tube(4, theta0=0.5, sigma=0.6)  # deeper than focal
        with pytest.raises(DomainError):
            # increasing warp: negative mean curvature core
            bd.TubeMetric(
                chart=cross_section_tube(1.0, 0.4).chart,
                warp=(lambda t: 1.0 + t, lambda t: 1.0 + 0 * t, lambda t: 0 * t),
                core_factors=({},),
                sigma=0.4,
            )


# ---------------------------------------------------------------------------
# bending
# ---------------------------------------------------------------------------

class TestBendMetric:
    def test_locality_bitwise(self):
        # outside the transition width the bent metric is the base metric,
        # bit for bit
        cases = [
            (bd.sphere_tube(4, theta0=0.9, sigma=0.45), bd.build_h(2.0, 0.2), [1.5, 1.6, 1.7]),
            (cross_section_tube(1.3, 0.45, count=81), bd.build_h(1.5, 0.2), [np.pi / 2]),
        ]
        for tm, bp, angles in cases:
            base = tm.field()
            bent = bd.bend_metric(tm, bp)
            for t in (0.2, 0.25, 0.3, 0.4, 0.44):
                x = np.array([t, *angles])
                np.testing.assert_array_equal(bent.metric_fn(x), base.metric_fn(x))

    def test_core_turns_totally_geodesic(self):
        tm = bd.sphere_tube(4, theta0=0.9, sigma=0.45)
        bp = bd.build_h(2.0, 0.2)
        assert bd.totally_geodesic_residual(tm, bp) == 0.0
        # the unbent core is not totally geodesic
        fb, dfb, _ = bd.bent_warp(tm, bp)
        assert dfb(np.array([0.0]))[0] == 0.0
        assert tm.warp[1](0.0) != 0.0

    def test_shallow_tube_rejected(self):
        tm = bd.sphere_tube(4, theta0=0.9, sigma=0.15)
        with pytest.raises(DomainError):
            bd.bend_metric(tm, bd.build_h(2.0, 0.2))
        with pytest.raises(DomainError):
            bd.scal_compare(tm, bd.build_h(2.0, 0.2))


class TestScalCompare:
    def test_certified_stiffness_nonnegative(self):
        tm = bd.sphere_tube(4, theta0=0.9, sigma=0.45)
        rep = bd.scal_compare(tm, bd.build_h(2.0, 0.2), samples=101)
        assert rep["min_diff"] >= 0.0
        assert rep["tail_max_abs"] == 0.0

    def test_weak_stiffness_fails_inside_transition(self):
        tm = bd.sphere_tube(4, theta0=1.4, sigma=0.45)
        rep = bd.scal_compare(tm, bd.build_h(0.25, 0.2), samples=101)
        assert rep["min_diff"] < -1.0
        assert rep["argmin_t"] < 0.2

    def test_cylinder_unchanged(self):
        # constant warp: bending is the identity on the metric
        tm = cylinder_tube(4, radius=1.0, sigma=0.45)
        rep = bd.scal_compare(tm, bd.build_h(4.0, 0.2), samples=51)
        np.testing.assert_array_equal(rep["diff"], np.zeros_like(rep["diff"]))

    def test_cross_section_closed_form(self):
        # 2-D tube dt^2 + (r0 - t)^2 dtheta^2 is flat; the bent difference is
        # scal(bent) = -2 F''/F = 2 h''/(r0 - h) exactly
        r0 = 1.3
        tm = cross_section_tube(r0, 0.45)
        bp = bd.build_h(1.5, 0.2)
        rep = bd.scal_compare(tm, bp, samples=101)
        h, _, hpp = bp.jet(rep["t"])
        np.testing.assert_allclose(rep["diff"], 2.0 * hpp / (r0 - h), atol=1e-10)

    def test_high_dimension_tube(self):
        tm = bd.sphere_tube(7, theta0=1.0, sigma=0.45)
        rep = bd.scal_compare(tm, bd.build_h(2.0, 0.2), samples=31)
        assert rep["min_diff"] >= 0.0

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_samples_rejected(self, samples):
        tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)
        with pytest.raises(ParameterError):
            bd.scal_compare(tm, bd.build_h(2.0, 0.2), samples=samples)


def _pointwise_scal_compare(tm, bp, samples):
    """Reference for scal_compare: one single-point scal evaluation per
    sample and metric."""
    base, bent = tm.field(), bd.bend_metric(tm, bp)
    angles = [0.5 * (lo + hi) for lo, hi, _ in tm.chart.axes[1:]]
    ts = np.linspace(0.0, tm.sigma * (1.0 - 1e-9), samples)
    h = bp.jet(ts)[0]

    def scal(m, x):
        return grids.scal_from_jet(m.metric_fn(x), m.dmetric_fn(x), m.d2metric_fn(x))

    return np.array([scal(bent, np.array([t, *angles])) - scal(base, np.array([hi, *angles]))
                     for t, hi in zip(ts, h)])


class TestBatchedScalCompare:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 6),
        theta0=st.floats(0.6, 1.45),
        k=st.floats(0.25, 16.0),
        delta=st.floats(0.1, 0.3),
        samples=st.integers(2, 61),
    )
    def test_matches_pointwise_reference(self, n, theta0, k, delta, samples):
        tm = bd.sphere_tube(n, theta0=theta0, sigma=0.45)
        bp = bd.build_h(k, delta)
        rep = bd.scal_compare(tm, bp, samples=samples)
        ref = _pointwise_scal_compare(tm, bp, samples)
        np.testing.assert_allclose(rep["diff"], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        if np.any(rep["t"] >= delta):
            assert rep["tail_max_abs"] == 0.0

    def test_cross_section_matches_pointwise_reference(self):
        tm = cross_section_tube(1.3, 0.45)
        bp = bd.build_h(1.5, 0.2)
        rep = bd.scal_compare(tm, bp, samples=101)
        np.testing.assert_allclose(rep["diff"], _pointwise_scal_compare(tm, bp, 101), rtol=1e-12)
        assert rep["tail_max_abs"] == 0.0

    def test_profile_evaluations_do_not_grow_with_samples(self, monkeypatch):
        calls = []
        jet = bd.BendProfile.jet

        def counted(self, t):
            calls.append(np.shape(t))
            return jet(self, t)

        monkeypatch.setattr(bd.BendProfile, "jet", counted)
        tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)
        bp = bd.build_h(2.0, 0.2)
        counts = []
        for samples in (11, 201):
            calls.clear()
            bd.scal_compare(tm, bp, samples=samples)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 16


class TestStiffnessSearch:
    def test_doubling_search_values(self):
        cases = [(1.4, 61, 4.0), (1.2, 61, 2.0), (0.9, 61, 1.0), (1.2, 101, 2.0)]
        for theta0, samples, expect in cases:
            tm = bd.sphere_tube(4, theta0=theta0, sigma=0.45)
            k, rep = bd.stiffness_search(tm, delta=0.2, samples=samples)
            assert k == expect
            assert rep["min_diff"] >= 0.0

    def test_stiffness_monotone_in_mean_curvature(self):
        # flatter cores (smaller trA) need stiffer bends
        thetas = (1.45, 1.2, 0.9, 0.5)
        tms = [bd.sphere_tube(4, theta0=t, sigma=0.45) for t in thetas]
        traces = [trace_a(tm) for tm in tms]
        ks = [bd.stiffness_search(tm, delta=0.2, samples=61)[0] for tm in tms]
        assert traces == sorted(traces)
        assert ks == sorted(ks, reverse=True)

    def test_cap_exhaustion(self):
        tm = bd.sphere_tube(4, theta0=1.4, sigma=0.45)
        with pytest.raises(IterationLimitError):
            bd.stiffness_search(tm, delta=0.2, cap=2.0, samples=61)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_samples_rejected(self, samples):
        tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)
        with pytest.raises(ParameterError):
            bd.stiffness_search(tm, delta=0.2, samples=samples)


# ---------------------------------------------------------------------------
# bucket decomposition
# ---------------------------------------------------------------------------

class TestDominantDecomposition:
    def _setup(self):
        tm = bd.sphere_tube(4, theta0=0.9, sigma=0.8)
        bp = bd.build_h(2.0, 0.3)
        return tm, bp

    def test_buckets_reproduce_difference(self):
        tm, bp = self._setup()
        for t in (0.03, 0.12, 0.22, 0.29):
            b = bd.dominant_decomposition(tm, bp, t)
            total = b["i1"] + b["i2"] + b["i3"] + b["i4"] + b["i5"]
            scale = max(abs(b["difference"]), 1.0)
            assert abs(b["i6_offdiagonal"]) < 1e-12 * scale
            assert total + b["i6_offdiagonal"] == pytest.approx(
                b["difference"], rel=1e-12
            )

    def test_gain_term_dominates(self):
        tm, bp = self._setup()
        b = bd.dominant_decomposition(tm, bp, 0.12)
        costs = abs(b["i1"]) + abs(b["i2"]) + abs(b["i3"]) + abs(b["i4"])
        assert b["i5"] > 0
        assert b["i5"] > costs

    def test_gain_diagonal_identity(self):
        # the gain bucket is h'' * (-tr_g dg/dt) = 2 h'' trA at the matched
        # point, i.e. exactly four times the reported diagonal lower bound
        tm, bp = self._setup()
        for t in (0.05, 0.12, 0.25):
            b = bd.dominant_decomposition(tm, bp, t)
            assert b["i5"] == pytest.approx(4.0 * b["i5_diag_bound"], rel=1e-12)
            h = b["h"]
            trace = 3.0 * np.cos(0.9 - h) / np.sin(0.9 - h)
            hpp = bp.jet(np.array([t]))[2][0]
            assert b["i5"] == pytest.approx(2.0 * hpp * trace, rel=1e-12)

    def test_buckets_vanish_outside_transition(self):
        tm, bp = self._setup()
        b = bd.dominant_decomposition(tm, bp, 0.35)
        for key in ("i1", "i2", "i3", "i4", "i5", "i6_offdiagonal", "difference"):
            assert b[key] == pytest.approx(0.0, abs=1e-13)

    def test_cross_section_buckets(self):
        # flat 2-D tube: only the gain bucket survives at the core
        tm = cross_section_tube(1.3, 0.45)
        bp = bd.build_h(1.5, 0.2)
        b = bd.dominant_decomposition(tm, bp, 0.0)
        h, _, hpp = (float(v[0]) for v in bp.jet(np.array([0.0])))
        assert b["i5"] == pytest.approx(2.0 * hpp / (1.3 - h), rel=1e-12)
        # the warp has no angular dependence, so the mixed buckets vanish
        assert b["i2"] == 0.0
        assert b["i4"] == 0.0
        assert b["i1"] + b["i3"] == pytest.approx(b["difference"] - b["i5"], abs=1e-13)
        # inside the transition the buckets still sum to the closed form
        # scal(bent) = 2 h''/(r0 - h) of the flat tube
        t = 0.09
        b = bd.dominant_decomposition(tm, bp, t)
        h, _, hpp = (float(v[0]) for v in bp.jet(np.array([t])))
        total = sum(b[k] for k in ("i1", "i2", "i3", "i4", "i5"))
        assert total == pytest.approx(2.0 * hpp / (1.3 - h), rel=1e-12)
        assert abs(b["i6_offdiagonal"]) < 1e-12


# ---------------------------------------------------------------------------
# stencil cross-check
# ---------------------------------------------------------------------------

class TestStencilCrossCheck:
    def test_bent_scal_matches_grid_stencils(self):
        # sample the bent metric on a fine 2-D chart and compare stencil
        # scalar curvature to the exact value
        r0, delta = 1.3, 0.2
        tm = cross_section_tube(r0, 0.45, count=41)
        bp = bd.build_h(1.5, delta)
        bent = bd.bend_metric(tm, bp)
        sampled = MetricField.from_function(bent.chart, bent.metric_fn)
        ts = bent.chart.coords_1d(0)
        h, _, hpp = bp.jet(ts)
        # outside the transition the metric is polynomial in t and the
        # 3-point stencil is exact; inside, probe away from |t| ~ delta
        # where the higher h-derivatives spike
        for i in (4, 8, 32, 36):
            exact = 2.0 * hpp[i] / (r0 - h[i])
            assert abs(scalar_curvature(sampled, (i, 20)) - exact) < 1e-10
        for i in (16, 18, 22, 24):
            exact = 2.0 * hpp[i] / (r0 - h[i])
            assert abs(scalar_curvature(sampled, (i, 20)) - exact) < 0.1
        # at the core the profile is C^2 but not C^3 (the even extension
        # kinks h'''), so the stencil error there is first order in the
        # spacing: halving the spacing halves the error
        vals = []
        for count in (41, 81):
            tmc = cross_section_tube(r0, 0.45, count=count)
            bentc = bd.bend_metric(tmc, bp)
            mid = (count - 1) // 2
            vals.append(
                scalar_curvature(MetricField.from_function(bentc.chart, bentc.metric_fn), (mid, mid))
            )
        exact0 = 2.0 * bp.jet(np.array([0.0]))[2][0] / (r0 - bp(np.array([0.0]))[0])
        ratio = abs(vals[0] - exact0) / abs(vals[1] - exact0)
        assert 1.7 < ratio < 2.5
