"""Tests for the tube-bending module."""

import tracemalloc

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
from conelab.jets import Jet, jet_compose
from oracles import (
    bend_jet_full_quadrature,
    cross_section_tube,
    cylinder_tube,
    stiffness_search_certify_each,
    trace_a,
)


def _parts(j):
    """(f, f', f'') of a Jet."""
    return j.f, j.d1, j.d2


# ---------------------------------------------------------------------------
# the bend profile h
# ---------------------------------------------------------------------------

class TestBuildH:
    def test_profile_invariants_on_dense_sample(self):
        bp = bd.build_h(3.0, 0.25)
        t = np.linspace(-2.5 * bp.delta, 2.5 * bp.delta, 10001)
        h, hp, hpp = _parts(bp.jet(t))
        assert h.min() > 0
        assert np.abs(hp).max() <= 1.0
        assert hpp.min() >= 0.0
        np.testing.assert_allclose(h, h[::-1], rtol=0, atol=1e-15)

    def test_identity_outside_transition(self):
        bp = bd.build_h(2.0, 0.3)
        t = np.array([-0.9, -0.5, -0.3, 0.3, 0.4, 0.7])
        h, hp, hpp = _parts(bp.jet(t))
        np.testing.assert_array_equal(h, np.abs(t))
        np.testing.assert_array_equal(hp, np.sign(t))
        np.testing.assert_array_equal(hpp, np.zeros_like(t))

    def test_jet_at_transition_endpoint(self):
        bp = bd.build_h(5.0, 0.1)
        h, hp, hpp = _parts(bp.jet(np.array([0.1])))
        assert h[0] == pytest.approx(0.1, abs=1e-15)
        assert hp[0] == 1.0
        assert hpp[0] == 0.0

    def test_core_jet_values(self):
        # h'(0) = 0 and h''(0) = k exactly by construction
        k = 7.5
        bp = bd.build_h(k, 0.2)
        _, hp, hpp = _parts(bp.jet(np.array([0.0])))
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
        h0, hp, hpp = _parts(bp.jet(t))
        np.testing.assert_allclose((h_p - h_m) / (2 * eps), hp, atol=1e-8)
        np.testing.assert_allclose((h_p - 2 * h0 + h_m) / eps**2, hpp, atol=2e-4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            bd.build_h(0.0, 0.2)
        with pytest.raises(ParameterError):
            bd.build_h(1.0, -0.2)

    @pytest.mark.parametrize("k, delta", [(np.nan, 0.2), (np.inf, 0.2), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_parameters_rejected(self, k, delta):
        with pytest.raises(ParameterError):
            bd.build_h(k, delta)

    @pytest.mark.parametrize("k", [np.inf, 0.0, np.nan])
    def test_uncertified_profile_validates_its_parameters(self, k):
        with pytest.raises(ParameterError):
            bd.BendProfile(k=k, delta=0.2, report={})

    def test_nan_report_fails_the_certificate(self, monkeypatch):
        # a profile whose samples are NaN certifies nothing
        jet = bd.BendProfile.jet
        monkeypatch.setattr(bd.BendProfile, "jet", lambda self, t: jet(self, t) * np.nan)
        with pytest.raises(ResolutionError):
            bd.build_h(2.0, 0.2)


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
        bp = bd.BendProfile(k=k, delta=delta, report={})
        array = data.draw(hnp.arrays(float, shape, elements=_MULTIPLES))
        for t in (scalar * delta, np.float64(scalar * delta), array * delta):
            got, want = bp.jet(t), bend_jet_full_quadrature(bp, t)
            for g, w in zip(_parts(got), _parts(want)):
                assert np.shape(g) == np.shape(w) == np.shape(t)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    @pytest.mark.parametrize("k", [1.0, 2.0, 64.0, 2.0**18])
    def test_bit_identical_on_the_certificate_samples(self, k):
        # build_h's 10000 samples and both transition ends, up to k = 2^18,
        # where the rate psi is steepest
        bp = bd.BendProfile(k=k, delta=0.2, report={})
        t = np.concatenate((np.linspace(-0.5, 0.5, 10000), [bp.delta, -bp.delta]))
        for g, w in zip(_parts(bp.jet(t)), _parts(bend_jet_full_quadrature(bp, t))):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("two_d", [False, True])
    @pytest.mark.parametrize("k", [1.0, 2.0**18])
    @pytest.mark.parametrize("count", [0, 1, bd._TAIL_ROWS - 1, bd._TAIL_ROWS, bd._TAIL_ROWS + 1,
                                       2 * bd._TAIL_ROWS + 7])
    def test_bit_identical_across_tail_blocks(self, count, k, two_d):
        # `count` points with |t| < delta, shuffled among points outside,
        # fill the tail blocks exactly, leave one row over or leave a
        # partial last block
        bp = bd.BendProfile(k=k, delta=0.2, report={})
        inside = np.linspace(-0.999, 0.999, count) * bp.delta
        outside = np.array([1.0, -1.0, 1.7, -2.5, 3.0, 2.0][:5 + (count + 1) % 2]) * bp.delta
        t = np.random.default_rng(count).permutation(np.concatenate((inside, outside)))
        if two_d:
            t = t.reshape(2, -1)
        assert np.count_nonzero(np.abs(t) < bp.delta) == count
        for g, w in zip(_parts(bp.jet(t)), _parts(bend_jet_full_quadrature(bp, t))):
            assert g.shape == w.shape == t.shape
            assert g.tobytes() == w.tobytes()

    def test_tail_scratch_does_not_grow_with_the_points(self):
        # the tail's (block, nodes) scratch is reused by every block: the
        # peak allocation is the two scratch arrays plus a few arrays of
        # one float per point, far below one (points, nodes) array
        bp = bd.BendProfile(k=2.0, delta=0.2, report={})
        t = np.linspace(-0.19, 0.19, 20000)
        tracemalloc.start()
        try:
            bp.jet(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch = 2 * bd._TAIL_ROWS * bd._GAUSS_NODES.size * 8
        assert peak <= scratch + 16 * t.nbytes < t.nbytes * bd._GAUSS_NODES.size

    def test_special_points_on_one_array(self):
        bp = bd.build_h(3.0, 0.25)
        t = np.array(_SPECIAL) * bp.delta
        for ts in (t, t.reshape(2, 5)):
            for g, w in zip(_parts(bp.jet(ts)), _parts(bend_jet_full_quadrature(bp, ts))):
                assert g.tobytes() == w.tobytes()

    def test_batch_point_and_scalar_agree(self):
        # a point's h does not depend on the other points of its call
        bp = bd.build_h(2.0, 0.2)
        ts = np.linspace(0.0, 0.45 * (1.0 - 1e-9), 201)  # scal_compare's samples
        for t in (ts, -ts[::-1]):
            batch = _parts(bp.jet(t))
            for i, ti in enumerate(t):
                for one in (bp.jet(ti), bp.jet(t[i:i + 1]), bp.jet(float(ti))):
                    assert [float(np.ravel(c)[0]) for c in _parts(one)] == [c[i] for c in batch]

    def test_scal_compare_evaluates_the_profile_at_most_twice(self, monkeypatch):
        tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)
        bp = bd.build_h(2.0, 0.2)
        calls = []
        jet = bd.BendProfile.jet
        monkeypatch.setattr(bd.BendProfile, "jet", lambda self, t: calls.append(np.shape(t)) or jet(self, t))
        bd.scal_compare(tm, bp, samples=201)
        assert 1 <= len(calls) <= 2

    def test_one_profile_evaluation_per_bent_metric_jet(self, monkeypatch):
        tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)
        bent = bd.bend_metric(tm, bd.build_h(2.0, 0.2))
        calls = []
        jet = bd.BendProfile.jet
        monkeypatch.setattr(bd.BendProfile, "jet", lambda self, t: calls.append(np.shape(t)) or jet(self, t))
        bent.jet(np.array([[0.1, 1.5, 1.6, 1.7], [0.3, 1.4, 1.5, 1.6]]))
        assert calls == [(2,)]

    def test_bent_warp_is_the_composed_jet(self):
        # the bent warp is jet_compose(f, h) and f(h(t)) by the chain rule,
        # bit for bit, on new arrays, repeated values and an array changed
        # in place
        tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)
        bp = bd.build_h(2.0, 0.2)
        warp = bd.bent_warp(tm, bp)

        def check(t):
            h = bp.jet(t)
            f = tm.warp(h.f)
            chain = (f.f, f.d1 * h.d1, f.d2 * h.d1**2 + f.d1 * h.d2)
            for got, composed, want in zip(_parts(warp(t)), _parts(jet_compose(tm.warp, h)), chain):
                assert got.tobytes() == composed.tobytes() == want.tobytes()

        t1 = np.linspace(0.0, 0.4, 7)
        for t in (t1, np.linspace(-0.3, 0.1, 7), t1.copy(), t1[:3]):
            check(t)
        before = warp(t1).f[2]
        t1[2] = 0.05
        check(t1)
        assert warp(t1).f[2] != before


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
                warp=lambda t: Jet(1.0 + t, 1.0 + 0 * t, 0 * t),
                core_factors=({},),
                sigma=0.4,
            )

    @pytest.mark.parametrize("warp, sigma", [
        (lambda t: Jet(np.nan + t, -1.0 + 0 * t, 0 * t), 0.4),
        (lambda t: Jet(1.0 - t, np.nan + t, 0 * t), 0.4),
        (lambda t: Jet(1.0 - t, -1.0 + 0 * t, 0 * t), np.nan),
    ])
    def test_nan_tube_rejected(self, warp, sigma):
        with pytest.raises(DomainError):
            bd.TubeMetric(chart=cross_section_tube(1.0, 0.4).chart, warp=warp,
                          core_factors=({},), sigma=sigma)


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
        assert bd.bent_warp(tm, bp)(np.array([0.0])).d1[0] == 0.0
        assert tm.warp(0.0).d1 != 0.0

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
        h, _, hpp = _parts(bp.jet(rep["t"]))
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
    h = bp.jet(ts).f

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

    def test_report_holds_the_certified_profile(self):
        # the profile the search certified, which callers reuse rather
        # than rebuild: the same k*, delta and certificate as build_h
        tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)
        k, rep = bd.stiffness_search(tm, delta=0.2, samples=61)
        bp = rep["profile"]
        assert isinstance(bp, bd.BendProfile)
        assert (bp.k, bp.delta, bp.report) == (k, 0.2, bd.build_h(k, 0.2).report)
        np.testing.assert_array_equal(rep["diff"], bd.scal_compare(tm, bp, samples=61)["diff"])

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

    @pytest.mark.parametrize("delta", [0.0, -0.2, np.nan, np.inf])
    def test_bad_delta_rejected_before_any_work(self, delta, monkeypatch):
        tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)

        def no_compare(*args, **kwargs):
            raise AssertionError("scal compared before delta was checked")

        monkeypatch.setattr(bd, "scal_compare", no_compare)
        # below a cap of 1 no candidate is compared: delta is checked first
        for cap in (2.0**20, 0.5):
            with pytest.raises(ParameterError):
                bd.stiffness_search(tm, delta=delta, cap=cap, samples=61)

    @pytest.mark.parametrize("cap", [np.nan, 0.5, -1.0])
    def test_bad_cap_rejected_before_any_work(self, cap, monkeypatch):
        tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)
        monkeypatch.setattr(bd, "scal_compare", lambda *a, **k: pytest.fail("scal compared before cap was checked"))
        with pytest.raises(ParameterError, match="cap"):
            bd.stiffness_search(tm, delta=0.2, cap=cap, samples=61)

    @settings(max_examples=30, deadline=None)
    @given(theta0=st.floats(0.5, 1.45), delta=st.floats(0.05, 0.4), samples=st.sampled_from([31, 61]))
    def test_matches_the_search_that_certifies_every_candidate(self, theta0, delta, samples):
        # one certificate per search, at k*, and the same k*, scal
        # differences and certificate as certifying every candidate
        tm = bd.sphere_tube(4, theta0=theta0, sigma=0.45)
        want_k, want = stiffness_search_certify_each(tm, delta, samples=samples)
        certified = []
        build_h = bd.build_h
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bd, "build_h", lambda k, d: certified.append(k) or build_h(k, d))
            k, rep = bd.stiffness_search(tm, delta, samples=samples)
        assert certified == [k] == [want_k]
        for key in ("t", "diff"):
            assert rep[key].tobytes() == want[key].tobytes()
        for key in ("min_diff", "argmin_t", "tail_max_abs"):
            assert rep[key] == want[key]
        assert rep["profile"] == want["profile"]


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
            hpp = bp.jet(np.array([t])).d2[0]
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
        h, _, hpp = (float(v[0]) for v in _parts(bp.jet(np.array([0.0]))))
        assert b["i5"] == pytest.approx(2.0 * hpp / (1.3 - h), rel=1e-12)
        # the warp has no angular dependence, so the mixed buckets vanish
        assert b["i2"] == 0.0
        assert b["i4"] == 0.0
        assert b["i1"] + b["i3"] == pytest.approx(b["difference"] - b["i5"], abs=1e-13)
        # inside the transition the buckets still sum to the closed form
        # scal(bent) = 2 h''/(r0 - h) of the flat tube
        t = 0.09
        b = bd.dominant_decomposition(tm, bp, t)
        h, _, hpp = (float(v[0]) for v in _parts(bp.jet(np.array([t]))))
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
        h, _, hpp = _parts(bp.jet(ts))
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
        exact0 = 2.0 * bp.jet(np.array([0.0])).d2[0] / (r0 - bp(np.array([0.0]))[0])
        ratio = abs(vals[0] - exact0) / abs(vals[1] - exact0)
        assert 1.7 < ratio < 2.5


def _compare(samples):
    return bd.scal_compare(bd.sphere_tube(4, theta0=0.9, sigma=0.45), bd.build_h(2.0, 0.2), samples=samples)


#: malformed input -> (call, the typed error it raises)
_MALFORMED = {
    "samples-fraction": (lambda: _compare(3.5), ParameterError),
    "samples-str": (lambda: _compare("3"), ParameterError),
    "samples-bool": (lambda: _compare(True), ParameterError),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_raises_typed_error(case):
    call, error = _MALFORMED[case]
    with pytest.raises(error):
        call()
