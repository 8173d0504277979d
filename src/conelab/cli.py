"""Scenario runner and report generator.

Scenarios are JSON files with a versioned schema and a mandatory seed; the
runner dispatches to a registry of named checks, each of which declares
the library operations it exercises (listed in each report's ``ops``) and
states each of its bounds in one `Gate` call.
Artifacts are deterministic: identical scenario plus seed gives
byte-identical JSON/CSV output (no timestamps).  `conelab run` and
`conelab report` exit 1 when a check fails, 2 on a config error and 3 on
an internal error, an exception from outside `conelab.errors`.
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import io
import json
import operator
import os
import re
import sys
import time
from dataclasses import dataclass, field
from functools import partialmethod
from pathlib import Path

import numpy as np

from . import barrier as br
from . import bending as bd
from . import covering as cv
from . import errors
from . import perron as pn
from . import spectral as sp
from .cones import DeformedCone, RadialProfile, catalog_cones, cone_scal, deformed_metric, make_cone
from .cones import second_form_norm2
from .errors import ConfigError
from .fields import TrigField, flat_metric
from .grids import (
    Chart,
    _is_index,
    christoffel,
    conformal_deform,
    conformal_scal,
    conformal_shape_shift,
    level_set_shape,
    scal_from_jet,
    scalar_curvature,
)
from .jets import jet_power

SCHEMA_VERSION = 1
OUTPUT_ENV = "CONELAB_OUTPUT"
#: scenario names become artifact file stems inside the output root
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
#: largest conformal-consistency grid count: the grid holds count^3 nodes
MAX_COUNT = 97
#: a check raising one of these fails; any other exception is an internal error
TYPED_ERRORS = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------

class Gate:
    """The bounds of one check run, each stated once.

    A comparison records the measured value as a float under its name and
    the bound under the check's `tolerance` key, and ands the comparison
    into `passed`; a check states each bound in one such call."""

    def __init__(self):
        self.measured, self.tolerance, self.passed = {}, {}, True

    def require(self, ok, **tol):
        """A condition on values the artifact does not record; the bounds
        it uses are recorded under their tolerance keys."""
        self.tolerance.update(tol)
        self.passed = self.passed and bool(ok)

    def note(self, **measured):
        """Measured values without a bound of their own."""
        self.measured.update((name, float(value)) for name, value in measured.items())

    def _compare(self, test, name, value, /, **tol):
        self.measured[name] = float(value)
        self.require(test(value, *tol.values()), **tol)

    below = partialmethod(_compare, operator.lt)
    above = partialmethod(_compare, operator.gt)
    at_least = partialmethod(_compare, operator.ge)
    equals = partialmethod(_compare, operator.eq)
    #: open band lo < value < hi; the one tolerance entry is the pair (lo, hi)
    between = partialmethod(_compare, lambda value, band: band[0] < value < band[1])
    #: |value - centre| < band; the tolerance entries are the centre, then the band
    near = partialmethod(_compare, lambda value, centre, band: abs(value - centre) < band)
    #: the same with |value - centre| <= band
    near_closed = partialmethod(_compare, lambda value, centre, band: abs(value - centre) <= band)


def _cube_chart(dim, lo, hi, count):
    return Chart(tuple((lo, hi, count) for _ in range(dim)))


def _center(chart):
    return tuple(c // 2 for c in chart.shape)


def _deformed(c, lam=5.0 / 12.0):
    alpha, _ = sp.indicial_exponent(c, lam)
    return DeformedCone(c, alpha=alpha)


def _conformal_errors(fields, n, count, coarse):
    """Max |scal - transformation law| on the unit cube with ``count`` nodes
    per axis over the nodes it shares with ``coarse`` at coarse indices
    {3, centre, coarse - 4} per axis, one per conformal factor in ``fields``."""
    chart = _cube_chart(n, 0.0, 1.0, count)
    m = flat_metric(chart)
    idx = sorted({3, coarse // 2, coarse - 4})
    nodes = np.stack(np.meshgrid(*[idx] * n, indexing="ij"), axis=-1) * ((count - 1) // (coarse - 1))
    x = chart.node_coords(nodes)
    errs = []
    for u in fields:
        expected = conformal_scal(0.0, u.value(x), u.laplacian(x), n)
        # the deformed metric is dropped before the next factor's is built
        errs.append(np.abs(scalar_curvature(conformal_deform(m, u.on_chart(chart)), nodes) - expected).max())
    return errs


def check_conformal_consistency(params, seed, gate):
    """Finite-difference scal of the deformed flat metric reproduces the
    transformation law at second order in the max norm over nodes all grids
    share; each consecutive pair of counts takes its actual step ratio."""
    factors = params["factors"]
    counts = tuple(params["counts"])
    n = 3
    # the unit cube with `count` nodes per axis has step 1/(count-1)
    step_ratios = [np.log2((c1 - 1) / (c0 - 1)) for c0, c1 in zip(counts, counts[1:])]
    fields = [TrigField.random(n, seed=seed + i) for i in range(factors)]
    # errors by count, then factor: one grid is alive at a time
    by_count = [_conformal_errors(fields, n, count, counts[0]) for count in counts]
    orders = []
    for errs in zip(*by_count):
        orders += [np.log2(e0 / e1) / r for e0, e1, r in zip(errs, errs[1:], step_ratios)]
    # every order lies in the band iff the extremes do; np.min/np.max keep a nan
    gate.near_closed("order_min", np.min(orders), order=2.0, order_band=0.2)
    gate.near_closed("order_max", np.max(orders), order=2.0, order_band=0.2)
    chart = _cube_chart(n, 0.0, 1.0, counts[0])
    gam_flat = np.abs(christoffel(flat_metric(chart), _center(chart))).max()
    gate.below("flat_christoffel", gam_flat, flat_christoffel=1e-12)
    return f"{factors} random conformal factors, grids {counts}"


def check_shape_shift(params, seed, gate):
    """Round-sphere second form in flat space, and its conformal shift
    against the second form in the deformed metric u^4 delta: the
    difference shrinks at second order in the step."""
    dim, centre = 3, 1.0 / np.sqrt(3.0)
    wave = np.random.default_rng(seed).uniform(-0.5, 0.5, dim)
    errs = []
    for count in (9, 17):
        chart = _cube_chart(dim, centre - 0.2, centre + 0.2, count)
        m, p, mesh = flat_metric(chart), _center(chart), chart.mesh()
        x, f = chart.node_coords(p), np.linalg.norm(mesh, axis=-1)
        r, h = float(np.linalg.norm(x)), float(chart.spacings.max())
        form, trace = level_set_shape(m, f, p)
        if not errs:
            gate.below("trace_error", abs(trace - (dim - 1.0) / r), trace=50.0 * h**2)
        u = 1.0 + 0.4 * np.sin(mesh @ wave)
        # one frame for both: level_set_shape's frame in u^{4/(n-2)} delta is
        # the flat one over u^{2/(n-2)}; the distance sphere's normal is inward
        deformed = u[p] ** (2.0 / (dim - 2.0)) * level_set_shape(conformal_deform(m, u), f, p)[0]
        shifted = conformal_shape_shift(form, np.eye(dim - 1), u[p], 0.4 * np.cos(x @ wave) * wave, -x / r, dim)
        errs.append(np.abs(deformed - shifted).max())
    # halving the step shrinks a second-order difference 4x
    gate.between("shift_ratio", errs[0] / errs[1], ratio_band=(3.5, 4.5))
    gate.below("shift_error", errs[1], shift=50.0 * h**2)
    return f"sphere level set in flat 3-space, u = 1 + 0.4 sin({np.round(wave, 6).tolist()} . x)"


def _quadric_shape(c, r, rng):
    """Shape operators P Hess F P / |grad F| of the cone {F = 0},
    F = q|x|^2 - p|y|^2 on R^{p+1} x R^{q+1}, at one random point
    r (a w1, b w2) per radius, w1 and w2 unit vectors; P projects onto the
    tangent space there."""
    w = [rng.normal(size=(r.size, k)) for k in (c.p + 1, c.q + 1)]
    points = r[:, None] * np.hstack([s * v / np.linalg.norm(v, axis=1, keepdims=True) for s, v in zip((c.a, c.b), w)])
    hess = np.diag(np.repeat([2.0 * c.q, -2.0 * c.p], [c.p + 1, c.q + 1]))
    grad = points @ hess
    norm = np.linalg.norm(grad, axis=1)[:, None, None]
    proj = np.eye(c.n + 1) - grad[:, :, None] * grad[:, None, :] / norm**2
    return proj @ hess @ proj / norm


def check_cone_catalog(params, seed, gate):
    """The catalog's curvature against the quadric {q|x|^2 = p|y|^2} at
    seeded cone points: its shape operator is traceless and gives |A|^2,
    scal = -|A|^2 and, by the Gauss equation in S^n, the link's scal."""
    rng, r = np.random.default_rng(seed), np.geomspace(0.1, 10.0, 7)
    worst = np.zeros(4)
    for c in catalog_cones():
        shape = _quadric_shape(c, r, rng)
        a2r2 = np.sum(shape**2, axis=(1, 2)) * r**2
        gauss = (c.n - 1.0) * (c.n - 2.0) - a2r2
        errs = [np.trace(shape, axis1=1, axis2=2) * r, second_form_norm2(c, r) * r**2 / a2r2 - 1.0,
                cone_scal(c, r) * r**2 / a2r2 + 1.0, c.link_scal / gauss - 1.0]
        worst = np.maximum(worst, np.abs(errs).max(axis=1))
    for name, value in zip(("mean_curvature_r", "second_form_error", "scal_error", "link_scal_error"), worst):
        gate.below(name, value, identity=1e-12)
    extra, radius_tol = make_cone(3, 3), 1e-15
    gate.require(extra.n == 7 and abs(extra.a - np.sqrt(0.5)) < radius_tol, radius=radius_tol)
    return "mean curvature, |A|^2 r^2, scal r^2 and link scal against the quadric on all catalog cones"


_t, _w = np.polynomial.legendre.leggauss(24)
#: Gauss-Legendre nodes and weights on [0.5, 1.7], for the deformed-cone length
_LENGTH_NODES, _LENGTH_WEIGHTS = 1.1 + 0.6 * _t, 0.6 * _w


def check_deformed_cone(params, seed, gate):
    """Deformed-cone metric curvature matches the warped closed form, and
    the deformed distance matches quadrature of its length element."""
    d = _deformed(make_cone(3, 3))
    m = deformed_metric(d)
    p = _center(m.chart)
    x = m.chart.node_coords(p)
    rho = float(x[0])
    # evaluate via the exact jet callback (the chart is too coarse for
    # the interior stencil margin in dimension 7)
    scal = scal_from_jet(*m.jet(x))
    gate.below("scal_error", abs(scal - d.scal_rho2() / rho**2), scal=1e-8)
    # u^{4/(n-2)} dr^2 with u = r^alpha has the length element t^{2 alpha/(n-2)} dt
    length = _LENGTH_WEIGHTS @ _LENGTH_NODES ** (2.0 * d.alpha / (d.base.n - 2.0))
    gate.below("distance_error", abs(d.rho_of_r(1.7) - d.rho_of_r(0.5) - length), distance=1e-13)
    return f"alpha = {d.alpha}"


def check_lambda0_simons(params, seed, gate):
    """Limit eigenvalue on the minimal (3,3) cone: 5/6 within its derived
    rounding bound, above the Hardy threshold 1/4, exhaustion sequence
    non-increasing."""
    c = make_cone(3, 3)
    res = sp.lambda0_detailed(c)
    oracle = 5.0 / 6.0
    gate.near("lambda0", res.lambda0, oracle=oracle, band=res.error_estimate)
    gate.note(gap_to_oracle=abs(res.lambda0 - oracle))
    gate.above("lambda0", res.lambda0, hardy_floor=0.25)
    seq, slack = np.array(res.lambda_sequence), 1e-12
    gate.require(np.all(np.diff(seq) <= slack), monotone_slack=slack)
    w = sp.WeightedProblem(cone=c, r_out=1.0)
    gate.require(sp.dirichlet_eigen(w, 2).lam > 0)
    return f"exhaustion sequence {list(np.round(seq, 6))}"


def check_spectral_band(params, seed, gate):
    """Rayleigh quotients dominate the limit eigenvalue; the closed-form
    eigenfunction below the band has vanishing operator residual."""
    c = make_cone(3, 3)
    lam0 = sp.indicial_lambda_max(c)
    r = np.geomspace(0.01, 1.0, 2001)
    hat = np.minimum(np.log(r / r[0]), np.log(r[-1] / r)) / np.log(r[-1] / r[0])
    quot = sp.rayleigh(c, RadialProfile(r, hat * r ** (-(c.n - 2) / 2.0)))
    floor, slack = float(lam0), 1e-9
    gate.require(quot >= floor - slack, rayleigh_floor=floor, rayleigh_slack=slack)
    gate.note(rayleigh_gap=quot - lam0)
    prof = sp.eigenfunction_below(c, 0.4)
    gate.below("residual", sp.radial_operator_residual(c, 0.4, prof), residual=1e-10)
    return "hat test profile and closed-form eigenfunction at lambda = 0.4"


def check_perron_minimal(params, seed, gate):
    """Minimal supersolution equals the pure power law and sits below the
    seed; window solves reproduce power solutions on their own nodes."""
    c = make_cone(3, 3)
    pp = pn.PerronProblem(cone=c, lam=0.125, domain=(0.01, 1.0), boundary_value=1.0)
    det = pn.perron_minimal_detailed(pp)
    exact = det.c * pp.grid**det.alpha
    dev = np.max(np.abs(det.profile.values - exact)) / np.max(exact)
    gate.below("power_law_deviation", dev, deviation=1e-4)
    gate.below("residual", det.residual, residual=1e-8)
    seed_prof = pn.default_seed(pp)
    ok_super, _ = pn.is_supersolution(pp, seed_prof)
    gate.require(ok_super and all(det.minimality_checks))
    seed_rtol = 1e-9
    gate.require(np.all(det.profile.values <= seed_prof.values * (1 + seed_rtol)), below_seed_rtol=seed_rtol)
    win = tuple(int(i) for i in np.searchsorted(pp.grid, (0.2, 0.4)))
    loc = pn.local_solve(pp, win, pp.grid[list(win)] ** det.alpha)
    gate.below("local_solve_error", np.max(np.abs(loc.values - loc.grid**det.alpha)), local_solve=1e-8)
    lifted, lift_rtol = pn.lift(pp, seed_prof, win), 1e-12
    gate.require(np.all(lifted.values <= seed_prof.values * (1 + lift_rtol)), lift_rtol=lift_rtol)
    return f"alpha = {det.alpha}, {det.iterations} sweeps"


def check_crease(params, seed, gate):
    """Crease smoothing of two crossing supersolution branches keeps the
    strict operator inequality and is local to the reported window."""
    c = make_cone(3, 3)
    a_fast = -(c.n - 2.0) / 2.0
    a_slow, _ = sp.indicial_exponent(c, sp.indicial_lambda_max(c) / 2.0)
    rstar = 0.3
    scale = rstar ** (a_fast - a_slow)
    g = np.geomspace(0.05, 1.0, 4000)
    f1 = RadialProfile(g, g**a_fast, jet_fn=lambda x: jet_power(x, a_fast))
    f2 = RadialProfile(g, scale * g**a_slow, jet_fn=lambda x: jet_power(x, a_slow) * scale)
    out, rep = pn.crease_smooth(f1, f2, rstar, eta=0.05, K=10.0, cone=c)
    floor = 0.0
    gate.above("operator_margin", rep["margin"], margin_floor=floor)
    # the strict operator inequality must hold at every sample, not only at the reported minimum
    gate.require(sp.operator_value_jet(c, out.jet_fn(g), g).min() > floor, margin_floor=floor)
    r_lo, r_hi = rep["window"]
    left, right = g < r_lo * 0.999, g > r_hi * 1.001
    local = max(
        np.max(np.abs(out.values[left] / f2(g[left]) - 1.0)),
        np.max(np.abs(out.values[right] / f1(g[right]) - 1.0)),
    )
    gate.below("locality_error", local, locality=1e-12)
    cut = pn.make_cutoff(10.0, 1.0)
    gate.above("cutoff_margin", min(cut.margins.values()), cutoff_margin_floor=0.0)
    return f"window {rep['window']}, delta = {rep['delta']}"


def check_green_identity(params, seed, gate):
    """Green profile is exactly harmonic on the analytic path; the stencil
    path residual shrinks at second order."""
    d = _deformed(make_cone(3, 3))
    gate.below("analytic_residual", br.green_laplacian_residual(d), analytic=1e-12)
    r1 = br.green_laplacian_residual(d, step=1e-3)
    r2 = br.green_laplacian_residual(d, step=5e-4)
    # halving the step shrinks a second-order residual 4x
    gate.between("stencil_ratio", r1 / r2, ratio_band=(3.5, 4.5))
    gate.require(br.green(7, 2.0) == 2.0**-5)
    return "harmonicity of the deformed-distance power profile"


def check_truncation_penalty(params, seed, gate):
    """sup|Laplacian phi+| is linear in mu; the curvature condition holds
    with margin below the closed-form threshold weight mu_h."""
    d = _deformed(make_cone(3, 3))
    cut = pn.make_cutoff(4.0, 1.0)
    mus = np.array([1e-4, 1e-3, 1e-2])
    pens = []
    for mu in mus:
        _, rep = br.truncate(br.BarrierSpec(deformed=d, mu=float(mu), cutoff=cut))
        pens.append(rep["sup_penalty"])
    slope = np.polyfit(np.log(mus), np.log(pens), 1)[0]
    gate.near("penalty_slope", slope, slope=1.0, slope_band=0.05)
    muh = br.mu_h(d, cut)
    gate.note(mu_h=muh)
    gate.require(muh > 0)
    iota = d.scal_rho2()
    rho = np.geomspace(1e-3, 10.0, 800)
    margin = np.min(br.scal_quantity(br.BarrierSpec(deformed=d, mu=0.5 * muh, cutoff=cut), rho)) - iota / 2.0
    gate.at_least("half_height_margin", margin, margin_floor=0.0)
    return f"mu grid {mus.tolist()}, iota = {iota}"


def check_theta_scaling(params, seed, gate):
    """Deflection radius obeys Theta = mu^{1/(n-2)}: exact in the model and
    1% in the fitted log-log slope over two decades."""
    pq = {7: (3, 3), 8: (4, 3)}[params["n"]]
    c = make_cone(*pq)
    d = _deformed(c, 5.0 / 12.0 if pq == (3, 3) else 0.5)
    cut = pn.make_cutoff(4.0, 1.0)
    exact_err = 0.0
    for mu in (1e-5, 1e-4, 1e-3):
        b = br.BarrierSpec(deformed=d, mu=mu, cutoff=cut)
        exact_err = max(exact_err, abs(br.deflection_radius(b) - mu ** (1.0 / (c.n - 2.0))))
    gate.below("max_exact_error", exact_err, exact=1e-8)
    mus = np.geomspace(1e-6, 1e-4, 7)
    thetas = [br.deflection_radius(br.BarrierSpec(deformed=d, mu=float(m), cutoff=cut)) for m in mus]
    target = 1.0 / (c.n - 2.0)
    gate.near("loglog_slope", np.polyfit(np.log(mus), np.log(thetas), 1)[0],
              slope=target, slope_band=0.01 * target)
    # area profile is stationary exactly at the deflection radius
    ob = br.ObstacleProblem(inner=1e-4, outer=0.9,
                            area=lambda r: br.area_profile(br.BarrierSpec(deformed=d, mu=1e-5, cutoff=cut), r))
    gate.below("area_stationary_error", abs(ob.minimizer_radius() - 1e-5 ** (1.0 / (c.n - 2.0))),
               stationary=1e-7)
    return f"n = {c.n}, cone {pq}"


def check_line_superposition(params, seed, gate):
    """Discretized axis superposition converges to the closed-form line
    barrier at first order; tube margins positive for one and two anchors."""
    n = 7
    pt = br.LinePoint(direction=tuple(np.eye(n)[0]), weight=0.5)
    om = np.zeros(n)
    om[0], om[2] = np.cos(0.4), np.sin(0.4)
    devs = {}
    for level in (32, 64):
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=(pt,), level=level))
        devs[level] = max(abs(sup(om, t) - sup.segment_limit(om, t)) for t in (0.1, 0.3, 0.7))
    gate.between("convergence_ratio", devs[32] / devs[64], ratio_band=(1.8, 2.2))
    floor = 1.0
    gate.require(br.line_barrier(br.LineBarrierSpec(n=n, points=(pt,)), (om, 0.3)) > floor,
                 line_value_floor=floor)
    far = np.zeros(n)
    far[0], far[3] = np.cos(1.0), np.sin(1.0)
    p2 = br.LinePoint(direction=tuple(far), weight=0.5)
    for name, points in (("single_margin", (pt,)), ("double_margin", (pt, p2))):
        sup = br.stieltjes_superpose(br.LineBarrierSpec(n=n, points=points, level=32))
        _, margin = br.tube_barrier_check(sup, 0.05, axial_samples=8, transverse_samples=8, seed=seed)
        gate.above(name, margin, margin_floor=0.0)
    return "first-order level refinement 32 -> 64"


def check_covering_random(params, seed, gate):
    """Greedy families on random instances: all derived properties pass,
    the recentering round-trip is exact, and runs are byte-deterministic."""
    instances, n_balls = params["instances"], params["balls"]
    worst_used = 0
    rng = np.random.default_rng(seed)
    for trial in range(instances):
        d = 2 + trial % 2
        centers = rng.random((n_balls, d))
        radii = 10.0 ** rng.uniform(-2, 0, n_balls)
        idx = rng.choice(n_balls, 10, replace=False)
        bs = cv.make_ball_set(centers, radii, target=centers[idx], seed=seed + trial)
        fa = cv.assign_families(bs)
        worst_used = max(worst_used, fa.used)
        rep = cv.verify_families(bs, fa)
        if not rep["all_passed"]:
            gate.note(trial=trial)
            gate.require(False)
            return f"verification failed: {rep}"
    gate.note(max_families_used=worst_used)
    # assign_families raises BoundExceededError past these bounds, so they
    # are recorded here, not compared
    gate.require(True, bound_r2=float(cv.C_BOUND_DEFAULTS[2]), bound_r3=float(cv.C_BOUND_DEFAULTS[3]))
    fixed = np.random.default_rng(seed)
    centers = fixed.random((80, 2))
    radii = 10.0 ** fixed.uniform(-2, 0, 80)
    bs = cv.make_ball_set(centers, radii, target=centers[:5], seed=seed)
    fa1 = cv.assign_families(bs, c_bound=100)
    fa2 = cv.assign_families(bs, c_bound=100)
    deterministic = cv.ball_set_to_json(bs, fa1) == cv.ball_set_to_json(bs, fa2)
    src = cv.make_ball_set(rng.random((6, 2)) * 5, 10.0 ** rng.uniform(-1, 0, 6), seed=seed)
    doubled = cv.double_balls(src.balls)
    fad = cv.assign_families(doubled, c_bound=100)
    back = cv.center_shift(doubled, fad)
    gate.require(deterministic and all(b.center == src.by_id(b.ball_id).center for b in back.balls))
    return f"{instances} random instances, {n_balls} balls each"


def check_bending_sphere(params, seed, gate):
    """Bending a mean-convex sphere-core tube: finite certified stiffness,
    totally geodesic core, exact bucket decomposition, strict locality."""
    theta0, delta = float(params["theta0"]), float(params["delta"])
    tm = bd.sphere_tube(4, theta0=theta0, sigma=0.45)
    k_star, rep = bd.stiffness_search(tm, delta=delta, samples=61)
    gate.note(k_star=k_star)
    gate.at_least("min_scal_diff", rep["min_diff"], scal_diff_floor=0.0)
    bp = rep["profile"]
    gate.below("totally_geodesic_residual", bd.totally_geodesic_residual(tm, bp), tg=1e-8)
    buckets = bd.dominant_decomposition(tm, bp, 0.5 * delta)
    gate.below("bucket_residual", abs(buckets["i6_offdiagonal"]), bucket=1e-12)
    base = tm.field()
    bent = bd.bend_metric(tm, bp)
    x = np.array([0.3, 1.5, 1.6, 1.7])
    # away from the transition the bent metric equals the base metric exactly
    exact = 0.0
    gate.require(np.abs(bent.metric_fn(x) - base.metric_fn(x)).max() == exact, locality=exact)
    return f"sphere core theta0 = {theta0}, transition width {delta}"


#: name -> (function, set of "module.op" labels exercised)
CHECKS = {
    "conformal-consistency": (check_conformal_consistency, {
        "metric-core.conformal_deform", "metric-core.conformal_scal",
        "metric-core.scalar_curvature", "metric-core.christoffel"}),
    "shape-shift": (check_shape_shift, {
        "metric-core.level_set_shape", "metric-core.conformal_shape_shift"}),
    "cone-catalog": (check_cone_catalog, {
        "cone-catalog.make_cone", "cone-catalog.cone_scal",
        "cone-catalog.second_form_norm2"}),
    "deformed-cone": (check_deformed_cone, {
        "cone-catalog.deformed_metric", "cone-catalog.deformed_distance"}),
    "lambda0-simons": (check_lambda0_simons, {
        "spectral.lambda0", "spectral.dirichlet_eigen"}),
    "spectral-band": (check_spectral_band, {
        "spectral.rayleigh", "spectral.eigenfunction_below"}),
    "perron-minimal": (check_perron_minimal, {
        "perron.perron_minimal", "spectral.indicial_exponent", "perron.is_supersolution",
        "perron.lift", "perron.local_solve"}),
    "crease": (check_crease, {"perron.make_cutoff", "perron.crease_smooth"}),
    "green-identity": (check_green_identity, {
        "barrier.green", "barrier.green_laplacian_residual"}),
    "truncation-penalty": (check_truncation_penalty, {"barrier.truncate"}),
    "theta-scaling": (check_theta_scaling, {
        "barrier.deflection_radius", "barrier.area_profile"}),
    "line-superposition": (check_line_superposition, {
        "barrier.line_barrier", "barrier.stieltjes_superpose", "barrier.tube_barrier_check"}),
    "covering-random": (check_covering_random, {
        "covering.assign_families", "covering.verify_families", "covering.center_shift"}),
    "bending-sphere": (check_bending_sphere, {
        "bending.build_h", "bending.bend_metric", "bending.scal_compare",
        "bending.dominant_decomposition"}),
}

def _is_positive(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < float("inf")


def _is_nested_counts(v):
    return (
        isinstance(v, (list, tuple))
        and len(v) >= 2
        and all(_is_index(c) and 7 <= c <= MAX_COUNT and c % 2 == 1 for c in v)
        and all(a < b for a, b in zip(v, v[1:]))
        and all((c - 1) % (v[0] - 1) == 0 for c in v)
    )


#: check name -> {param: (default, predicate, requirement)}; a check not
#: listed takes no params
PARAMS = {
    "conformal-consistency": {
        "factors": (5, lambda v: _is_index(v) and v >= 1, "an integer >= 1"),
        "counts": ((17, 33), _is_nested_counts,
                   f"a list of at least two increasing odd integers in [7, {MAX_COUNT}], "
                   "each c with c - 1 a multiple of the first count minus 1"),
    },
    "theta-scaling": {"n": (7, lambda v: _is_index(v) and v in (7, 8), "7 or 8")},
    "covering-random": {
        "instances": (20, lambda v: _is_index(v) and v >= 1, "an integer >= 1"),
        # each instance draws 10 target centres from its balls
        "balls": (120, lambda v: _is_index(v) and v >= 10, "an integer >= 10"),
    },
    "bending-sphere": {
        "theta0": (1.2, _is_positive, "a number > 0"),
        "delta": (0.2, _is_positive, "a number > 0"),
    },
}


# ---------------------------------------------------------------------------
# scenarios and reports
# ---------------------------------------------------------------------------

def load_scenario(source):
    """Parse and validate a scenario (a path or a dict).

    Raises ConfigError on any schema violation; nothing is executed or
    written on the error path."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            text = Path(source).read_text()
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot read scenario {source}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {data.get('schema_version')!r}")
    if not isinstance(data.get("name"), str) or not _NAME.fullmatch(data["name"]):
        raise ConfigError(
            f"scenario name {data.get('name')!r} must be a file stem matching {_NAME.pattern}"
        )
    if not isinstance(data.get("seed"), int) or isinstance(data["seed"], bool):
        raise ConfigError("scenario seed is mandatory and must be an integer")
    checks = data.get("checks")
    if not isinstance(checks, list):
        raise ConfigError("scenario checks must be a list")
    for entry in checks:
        if not isinstance(entry, dict) or "check" not in entry:
            raise ConfigError(f"malformed check entry {entry!r}")
        if entry["check"] not in CHECKS:
            raise ConfigError(f"unknown check {entry['check']!r}")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("check params must be an object")
        schema = PARAMS.get(entry["check"], {})
        for key, value in params.items():
            if key not in schema:
                raise ConfigError(f"unknown param {key!r} for check {entry['check']!r}")
            _, accepts, requirement = schema[key]
            if not accepts(value):
                raise ConfigError(
                    f"param {key!r} of check {entry['check']!r} must be {requirement}, got {value!r}"
                )
    return data


@dataclass
class RunReport:
    scenario: str
    seed: int
    checks: list
    ops: list
    environment: dict = field(default_factory=dict)

    @property
    def status(self):
        if not self.checks:
            return "skip"
        statuses = {c["status"] for c in self.checks}
        return "error" if "error" in statuses else "pass" if statuses == {"pass"} else "fail"

    def to_artifact_dict(self):
        """Deterministic artifact payload: wall times stripped (they go to
        the timing sidecar, `to_timing_dict`)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "status": self.status,
            "checks": [
                {key: val for key, val in c.items() if key != "wall_time"}
                for c in self.checks
            ],
            "ops": self.ops,
            "environment": self.environment,
        }

    def to_timing_dict(self):
        """Wall time of each check in seconds, in check order."""
        return {
            "scenario": self.scenario,
            "checks": [{"name": c["name"], "wall_time": c["wall_time"]} for c in self.checks],
        }


def _version():
    import importlib.metadata

    try:
        return importlib.metadata.version("conelab")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def run_scenario(source, output_root=None) -> RunReport:
    """Execute a scenario and write its artifacts: the byte-reproducible
    `<name>.report.json` and `<name>.checks.csv`, and the check wall times
    in the `<name>.timing.json` sidecar.

    Each check runs on its params over the `PARAMS` defaults and states its
    bounds through a fresh `Gate`.  A `conelab.errors` exception inside a
    check becomes a recorded failure and any other exception an internal
    error (status "error"); config errors propagate before any artifact is
    written."""
    data = load_scenario(source)
    results = []
    ops = set()
    for entry in data["checks"]:
        name = entry["check"]
        fn, exercised = CHECKS[name]
        params = {key: spec[0] for key, spec in PARAMS.get(name, {}).items()} | entry.get("params", {})
        gate = Gate()
        t0 = time.perf_counter()
        try:
            details = fn(params, data["seed"], gate)
            status = "pass" if gate.passed else "fail"
            ops |= exercised
        except Exception as exc:
            # a failed check records no partial measurements or bounds
            gate, details = Gate(), f"{type(exc).__name__}: {exc}"
            status = "fail" if isinstance(exc, TYPED_ERRORS) else "error"
        results.append({"name": name, "status": status, "measured": gate.measured,
                        "tolerance": gate.tolerance, "details": details,
                        "wall_time": time.perf_counter() - t0})
    report = RunReport(
        scenario=data["name"],
        seed=data["seed"],
        checks=results,
        ops=sorted(ops),
        environment={"package": "conelab", "version": _version(), "schema_version": SCHEMA_VERSION},
    )
    root = Path(output_root or os.environ.get(OUTPUT_ENV, "conelab-artifacts"))
    root.mkdir(parents=True, exist_ok=True)
    (root / f"{data['name']}.report.json").write_text(
        json.dumps(report.to_artifact_dict(), sort_keys=True, indent=2) + "\n"
    )
    (root / f"{data['name']}.checks.csv").write_text(report_table([report])[0])
    # wall times differ from run to run, so they stay out of the report
    (root / f"{data['name']}.timing.json").write_text(
        json.dumps(report.to_timing_dict(), indent=2) + "\n"
    )
    return report


def _fmt_mapping(d):
    return ";".join(f"{k}={v!r}" for k, v in sorted(d.items()))


def report_table(reports):
    """Consolidated CSV (stable column order) and human-readable summary.

    Returns (csv_text, summary_text)."""
    if not reports:
        raise ConfigError("report_table needs at least one report")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", "check", "status", "measured", "tolerance"])
    lines = []
    for rep in reports:
        if not rep.checks:
            lines.append(f"{rep.scenario}: SKIP (no checks)")
            continue
        for c in rep.checks:
            writer.writerow([rep.scenario, c["name"], c["status"],
                             _fmt_mapping(c["measured"]), _fmt_mapping(c["tolerance"])])
        n_pass = sum(1 for c in rep.checks if c["status"] == "pass")
        lines.append(f"{rep.scenario}: {rep.status.upper()} ({n_pass}/{len(rep.checks)} checks)")
    return buf.getvalue(), "\n".join(lines) + "\n"


def report_from_artifact(path) -> RunReport:
    """Read a .report.json artifact; ConfigError names the file when it is
    unreadable, not JSON, or lacks a field the report table reads."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"report artifact {path} is not readable JSON: {exc}") from exc
    fields = ("scenario", "seed", "checks")
    if not isinstance(data, dict) or not all(key in data for key in fields):
        raise ConfigError(f"report artifact {path} must be an object with keys {', '.join(fields)}")
    record = ("name", "status", "measured", "tolerance")
    if not isinstance(data["checks"], list) or not all(
        isinstance(c, dict) and all(key in c for key in record)
        and isinstance(c["measured"], dict) and isinstance(c["tolerance"], dict)
        for c in data["checks"]
    ):
        raise ConfigError(f"report artifact {path} has a malformed check record (needs {', '.join(record)})")
    return RunReport(
        scenario=data["scenario"],
        seed=data["seed"],
        checks=data["checks"],
        ops=data.get("ops", []),
        environment=data.get("environment", {}),
    )


def bundled_scenarios():
    """name -> path for the scenario files shipped with the package."""
    base = importlib.resources.files("conelab") / "scenarios"
    return {p.name[:-5]: p for p in sorted(base.iterdir(), key=lambda p: p.name)
            if p.name.endswith(".json")}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="conelab", description="scenario runner for the conelab library"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario file and write artifacts")
    p_run.add_argument("scenario", help="path to a scenario JSON (or a bundled name)")
    p_run.add_argument("--output", default=None, help=f"artifact root (default ${OUTPUT_ENV} or ./conelab-artifacts)")
    p_rep = sub.add_parser("report", help="consolidate report artifacts from a directory")
    p_rep.add_argument("directory")
    sub.add_parser("list-scenarios", help="list bundled scenarios")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in bundled_scenarios():
            print(name)
        return 0

    try:
        if args.command == "run":
            path = args.scenario
            if not os.path.exists(path):
                path = str(bundled_scenarios().get(path, path))
            reports = [run_scenario(path, output_root=args.output)]
        else:
            paths = sorted(Path(args.directory).glob("*.report.json"))
            if not paths:
                raise ConfigError(f"no report artifacts found in {args.directory}")
            reports = [report_from_artifact(p) for p in paths]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    csv_text, summary = report_table(reports)
    if args.command == "report":
        (Path(args.directory) / "summary.csv").write_text(csv_text)
    print(summary, end="")
    # a failed check exits 1 and an internal error 3, which outranks it
    return max({"fail": 1, "error": 3}.get(rep.status, 0) for rep in reports)


if __name__ == "__main__":
    sys.exit(main())
