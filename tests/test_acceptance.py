"""Acceptance gate: the twelve headline properties, with pinned tolerances.

Each test is self-contained and runs in seconds; together they exercise the
full pipeline from curvature assembly through spectra, minimal
supersolutions, barriers, coverings and bending.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conelab import barrier as br
from conelab import bending as bd
from conelab import covering as cv
from conelab import perron as pn
from conelab import spectral as sp
from conelab.cones import DeformedCone, RadialProfile, catalog_cones, make_cone
from conelab.fields import TrigField, flat_metric
from conelab.grids import Chart, MetricField, conformal_deform, conformal_scal, scalar_curvature
from conelab.jets import jet_power


def _cube_chart(dim, lo, hi, count):
    return Chart(tuple((lo, hi, count) for _ in range(dim)))


def _center(chart):
    return tuple(c // 2 for c in chart.shape)


# -- 1: conformal transformation law vs finite differences -------------------

def test_transformation_law_second_order_on_random_factors():
    n = 3
    counts = (17, 33)
    for seed in range(50):
        u = TrigField.random(n, seed=seed)
        errs = []
        for count in counts:
            chart = _cube_chart(n, 0.0, 1.0, count)
            m = flat_metric(chart)
            p = _center(chart)
            x = chart.node_coords(p)
            out = conformal_deform(m, u.value(chart.mesh()))
            expected = conformal_scal(0.0, float(u.value(x)), float(u.laplacian(x)), n)
            errs.append(abs(scalar_curvature(out, p) - expected))
        order = np.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2, f"seed {seed}: order {order}"


# -- 2: the limit eigenvalue on the minimal (3,3) cone -----------------------

def test_limit_eigenvalue_value_and_bound():
    res = sp.lambda0_detailed(make_cone(3, 3))
    assert abs(res.lambda0 - 5.0 / 6.0) < 1e-3
    assert res.lambda0 > 0.25
    assert np.all(np.diff(res.lambda_sequence) <= 1e-12)  # non-increasing


# -- 3: unique decaying exponent across the admissible band ------------------

def _shooting_exponent(c, lam, alpha_guess):
    """Independent oracle: integrate the radial equation in log coordinates
    from the initial slope and recover the decay exponent from the ratio."""
    coupling = (c.kappa + lam) * (c.p + c.q)

    def rhs(_, y):
        return [y[1], -(c.n - 2.0) * y[1] - coupling * y[0]]

    sol = solve_ivp(rhs, (0.0, 3.0), [1.0, alpha_guess], rtol=1e-12, atol=1e-14)
    u_end, du_end = sol.y[0, -1], sol.y[1, -1]
    return du_end / u_end  # constant-coefficient: u'/u -> the exponent


def test_indicial_band_unique_root_matches_shooting():
    for c in catalog_cones():
        lam0 = sp.lambda0_closed_form(c)
        for lam in np.linspace(0.125, lam0 - 1e-6, 9):
            alpha, alpha_minus = pn.indicial_exponent(c, lam)
            half = (c.n - 2.0) / 2.0
            assert -half < alpha < 0.0           # exactly one root in the band
            assert alpha_minus <= -half           # the other sits outside
            shot = _shooting_exponent(c, lam, alpha)
            assert abs(shot - alpha) < 1e-6


# -- 4: minimal supersolution is the power law ---------------------------------

def test_perron_minimal_power_law_and_minimality():
    pp = pn.PerronProblem(cone=make_cone(3, 3), lam=0.125, domain=(0.01, 1.0),
                          boundary_value=1.0)
    det = pn.perron_minimal_detailed(pp)
    exact = det.c * pp.grid**det.alpha
    assert np.max(np.abs(det.profile(pp.grid) - exact)) / np.max(exact) < 1e-4
    assert det.residual < 1e-8
    seed = pn.default_seed(pp)
    assert np.all(det.profile(seed.grid) <= seed.values * (1.0 + 1e-9))
    assert all(det.minimality_checks)


# -- 5: crease smoothing keeps the strict inequality and is local ------------

def test_crease_smoothing_margin_and_locality():
    c = make_cone(3, 3)
    a_fast = -(c.n - 2.0) / 2.0
    a_slow, _ = pn.indicial_exponent(c, pn.indicial_lambda_max(c) / 2.0)
    scale = 0.3 ** (a_fast - a_slow)
    g = np.geomspace(0.05, 1.0, 4000)
    f1 = RadialProfile(g, g**a_fast, tag="supersolution",
                       jet_fn=lambda x: jet_power(x, a_fast))
    f2 = RadialProfile(g, scale * g**a_slow, tag="supersolution",
                       jet_fn=lambda x: jet_power(x, a_slow) * scale)
    out, rep = pn.crease_smooth(f1, f2, 0.3, eta=0.05, K=10.0, cone=c,
                                return_report=True)
    assert rep["margin"] > 0
    op_vals = pn.operator_value_jet(c, out.jet_fn(g), g)
    assert op_vals.min() > 0  # strict at every sample
    r_lo, r_hi = rep["window"]
    left, right = g < r_lo * 0.999, g > r_hi * 1.001
    np.testing.assert_allclose(out.values[left], f2(g[left]), rtol=1e-12)
    np.testing.assert_allclose(out.values[right], f1(g[right]), rtol=1e-12)


# -- 6: harmonicity of the barrier profile ------------------------------------

def _standard_deformed():
    c = make_cone(3, 3)
    alpha, _ = pn.indicial_exponent(c, 5.0 / 12.0)
    return DeformedCone(c, alpha=alpha)


def test_green_identity_analytic_and_stencil_order():
    d = _standard_deformed()
    assert br.green_laplacian_residual(d) < 1e-12
    r1 = br.green_laplacian_residual(d, step=1e-3)
    r2 = br.green_laplacian_residual(d, step=5e-4)
    assert 3.5 < r1 / r2 < 4.5  # second order: 4x shrink per halving


# -- 7: truncation penalty linear in mu; curvature safe below mu_H -----------

def test_truncation_penalty_slope_and_curvature_margin():
    d = _standard_deformed()
    cut = pn.make_cutoff(4.0, 1.0)
    mus = np.geomspace(1e-4, 1e-2, 5)
    pens = [br.truncate(br.BarrierSpec(deformed=d, mu=float(m), cutoff=cut))[1]["sup_penalty"]
            for m in mus]
    slope = np.polyfit(np.log(mus), np.log(pens), 1)[0]
    assert abs(slope - 1.0) < 0.05
    muh = br.mu_h(d, cut)
    iota = d.scal_rho2()
    rho = np.geomspace(1e-3, 10.0, 1000)
    for frac in (0.25, 0.5, 0.9):
        b = br.BarrierSpec(deformed=d, mu=frac * muh, cutoff=cut)
        assert np.min(br.scal_quantity(b, rho)) >= iota / 2.0


# -- 8: deflection radius power law -------------------------------------------

def test_deflection_radius_exact_and_fitted_slope():
    cut = pn.make_cutoff(4.0, 1.0)
    for (p, q), lam in (((3, 3), 5.0 / 12.0), ((4, 3), 0.5)):
        c = make_cone(p, q)
        alpha, _ = pn.indicial_exponent(c, lam)
        d = DeformedCone(c, alpha=alpha)
        for mu in (1e-5, 1e-4, 1e-3):
            b = br.BarrierSpec(deformed=d, mu=mu, cutoff=cut)
            assert abs(br.deflection_radius(b) - mu ** (1.0 / (c.n - 2.0))) < 1e-8
        mus = np.geomspace(1e-6, 1e-4, 7)  # two decades
        thetas = [br.deflection_radius(br.BarrierSpec(deformed=d, mu=float(m), cutoff=cut))
                  for m in mus]
        slope = np.polyfit(np.log(mus), np.log(thetas), 1)[0]
        target = 1.0 / (c.n - 2.0)
        assert abs(slope - target) < 0.01 * target


# -- 9: covering properties on random instances -------------------------------

def test_covering_random_instances_and_determinism():
    for trial in range(200):
        rng = np.random.default_rng(5000 + trial)
        d = 2 + trial % 2
        n = 1000 if trial < 2 else 150  # a couple of large instances
        centers = rng.random((n, d))
        radii = 10.0 ** rng.uniform(-2, 0, n)
        idx = rng.choice(n, 20, replace=False)
        bs = cv.make_ball_set(centers, radii, target=centers[idx], seed=trial)
        fa = cv.assign_families(bs)  # raises if the default bound is exceeded
        assert fa.used <= cv.C_BOUND_DEFAULTS[d]
        report = cv.verify_families(bs, fa)  # O(N^2) brute force
        assert report["all_passed"], (trial, report)
    # byte-exact determinism
    rng = np.random.default_rng(5000)
    centers = rng.random((200, 2))
    radii = 10.0 ** rng.uniform(-2, 0, 200)
    bs1 = cv.make_ball_set(centers, radii, target=centers[:3], seed=11)
    bs2 = cv.make_ball_set(centers, radii, target=centers[:3], seed=11)
    text1 = cv.ball_set_to_json(bs1, cv.assign_families(bs1, c_bound=50))
    text2 = cv.ball_set_to_json(bs2, cv.assign_families(bs2, c_bound=50))
    assert text1 == text2


# -- 10: superposition converges at first order; tube margins positive -------

def test_superposition_first_order_and_tube_margins():
    n = 7
    e0 = np.zeros(n)
    e0[0] = 1.0
    pt = br.LinePoint(direction=tuple(e0), weight=0.25)
    om = np.zeros(n)
    om[0], om[2] = np.cos(0.4), np.sin(0.4)
    devs = {}
    for level in (64, 128):
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=(pt,), level=level))
        devs[level] = max(abs(sup(om, t) - sup.segment_limit(om, t))
                          for t in (0.1, 0.3, 0.7))
    assert 1.8 <= devs[64] / devs[128] <= 2.2
    # single anchor and a 4-fold superposition at equal calibrated weights
    anchors = []
    for j, ang in enumerate((0.0, 0.9, 1.2, 1.5)):
        v = np.zeros(n)
        v[0], v[2 + j % 4] = np.cos(ang), np.sin(ang)
        anchors.append(br.LinePoint(direction=tuple(v), weight=0.25))
    single = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=(anchors[0],), level=32))
    multi = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=tuple(anchors), level=32))
    ok1, m1 = br.tube_barrier_check(single, 0.05, axial_samples=8, transverse_samples=8)
    ok2, m2 = br.tube_barrier_check(multi, 0.05, axial_samples=8, transverse_samples=8)
    assert ok1 and m1 > 0
    assert ok2 and m2 > 0


# -- 11: bending certification -------------------------------------------------

def test_bending_certified_stiffness_and_buckets():
    tm = bd.sphere_tube(4, theta0=1.2, sigma=0.45)
    delta = 0.2
    k_star, rep = bd.stiffness_search(tm, delta=delta, samples=101)  # finite
    assert rep["min_diff"] >= 0.0
    bp = bd.build_h(k_star, delta)
    assert bd.totally_geodesic_residual(tm, bp) < 1e-8  # analytic path
    # bucket sum reproduces the scal difference within 5x the stencil error
    r0 = 1.3
    ct = bd.cross_section_tube(r0, 0.45, count=81)
    bpc = bd.build_h(1.5, delta)
    bent = bd.bend_metric(ct, bpc)
    sampled = MetricField(bent.chart, bent.g)
    ts = bent.chart.coords_1d(0)
    i = 48  # a node inside the transition zone, away from its endpoints
    assert 0.0 < ts[i] < delta
    h, _, hpp = bpc.jet(ts)
    exact = 2.0 * hpp[i] / (r0 - h[i])  # base tube is flat: diff = bent scal
    stencil = scalar_curvature(sampled, (i, 40))
    stencil_err = abs(stencil - exact)
    buckets = bd.dominant_decomposition(ct, bpc, ts[i])
    total = sum(buckets[k] for k in ("i1", "i2", "i3", "i4", "i5"))
    assert abs(total - stencil) <= 5.0 * stencil_err
    assert abs(buckets["i6_offdiagonal"]) < 1e-12
    # metrics identical outside the transition width
    base = ct.field()
    bent_full = bd.bend_metric(ct, bpc)
    for t in (delta, 0.3, 0.44):
        x = np.array([t, np.pi / 2])
        np.testing.assert_array_equal(bent_full.metric_fn(x), base.metric_fn(x))


# -- 12: dimension-shift margins are exact fractions ---------------------------

def test_dimension_shift_margin_table_exact():
    from fractions import Fraction

    for n in range(5, 13):
        rep = br.dimshift_scal_sign(1.0, n)
        exact = Fraction(1, 4 * (n - 1) * (n - 2))
        assert rep["margin_coefficient"] == exact
        assert br.dimshift_margin_exact(n) == exact
    table = br.dimshift_table(range(5, 13))
    scaled = [row["n2_scaled"] for row in table]
    assert all(s > 0.25 for s in scaled)
    assert np.all(np.diff(scaled) < 0)  # decreasing to the 1/4 limit
