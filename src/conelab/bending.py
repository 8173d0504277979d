"""Curvature bending of tube metrics.

A tube metric dt^2 + g_t over a mean-convex core W is bent by substituting
g_{h(t)} for g_t, where h is a stiff convex smoothing of |t|.  At t = 0 the
core becomes totally geodesic (h'(0) = 0) while the stiffness inequality
h'' >= k |h' - 1| makes the second-form gain term dominate the first-order
costs, so scal does not drop.  The module builds h, bends warped test
tubes, compares scal pointwise at matched points, and splits the scal
difference into the exact linear/quadratic buckets of the curvature
expansion.  The profile h and the tube warps are 1-D 2-jets (t -> Jet);
the bent warp is their chain-rule composition, so one evaluation of a
bent metric evaluates h once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IterationLimitError, ParameterError, ResolutionError
from .fields import round_sphere_factors, warped_product_metric
from .grids import AnalyticMetric, Chart, _is_index, scal_from_jet
from .jets import Jet, jet_compose

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(48)
#: inside points per block of the profile's tail quadrature
_TAIL_ROWS = 512


# ---------------------------------------------------------------------------
# the bend profile h
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BendProfile:
    """Even convex smoothing of |t|: h(t) = |t| exactly for |t| >= delta,
    h > 0 everywhere, |h'| <= 1, and the stiffness ratio h'' >= k |h' -+ 1|
    on each half-line.

    Construction: h'(t) = sign(t) (1 - e^{-psi(|t|)}) with the barrier rate
    psi(s) = k delta s/(delta - s), so h'' = psi' e^{-psi} >= k (1 - h')
    with equality exactly at t = 0.
    """

    k: float
    delta: float
    report: dict

    def __post_init__(self):
        if not (0 < self.k < np.inf and 0 < self.delta < np.inf):
            raise ParameterError("k and delta must be positive and finite")

    def _psi(self, s):
        return self.k * self.delta * s / (self.delta - s)

    def _dpsi(self, s):
        return self.k * self.delta**2 / (self.delta - s) ** 2

    def jet(self, t):
        """Jet of h, vectorized; h by 48-node Gauss quadrature of the
        closed-form h' (accurate to ~1e-15 on these smooth integrands).

        h = |t| exactly for |t| >= delta, so the quadrature runs only over
        the points with |t| < delta, ``_TAIL_ROWS`` of them at a time.  Each
        point's weighted sum is a sum along its own row, so its h does not
        depend on the other points of the call or on the blocking.  Every
        block works in place in the same two (block, nodes) scratch arrays,
        with the arithmetic of ``_psi``, so h is the same to the bit."""
        t = np.asarray(t, dtype=float)
        cap = self.delta * (1.0 - 1e-14)
        s = np.minimum(np.abs(t), cap)
        inside = np.abs(t) < self.delta
        decay = np.where(inside, np.exp(-self._psi(s)), 0.0)
        hp = np.sign(t) * (1.0 - decay)
        hpp = np.where(inside, self._dpsi(s) * decay, 0.0)
        # tail(s) = integral_s^delta e^{-psi}, so h = |t| + tail(|t|)
        s_in = s[inside]
        tail_in = np.empty(s_in.shape)
        x = np.empty((min(s_in.size, _TAIL_ROWS), _GAUSS_NODES.size))
        rate = np.empty(x.shape)
        for i in range(0, s_in.size, _TAIL_ROWS):
            si = s_in[i:i + _TAIL_ROWS]
            xb, rb = x[:si.size], rate[:si.size]
            half = (self.delta - si) / 2.0
            mid = (self.delta + si) / 2.0
            np.multiply(half[:, None], _GAUSS_NODES, out=xb)
            np.add(mid[:, None], xb, out=xb)
            np.minimum(xb, cap, out=xb)
            np.subtract(self.delta, xb, out=rb)  # psi(x) = (k delta) x / (delta - x)
            np.multiply(self.k * self.delta, xb, out=xb)
            np.divide(xb, rb, out=xb)
            np.negative(xb, out=xb)
            np.exp(xb, out=xb)
            np.multiply(xb, _GAUSS_WEIGHTS, out=xb)
            np.multiply(half, xb.sum(-1), out=tail_in[i:i + _TAIL_ROWS])
        tail = np.zeros(s.shape)
        tail[inside] = tail_in
        return Jet(np.abs(t) + tail, hp, hpp)

    def __call__(self, t):
        return self.jet(t).f


def build_h(k, delta) -> BendProfile:
    """Construct and certify a BendProfile on [-sigma, sigma], sigma = 2.5 delta.

    All profile invariants are checked on 10000 samples; the report holds
    the minima of the two stiffness ratio inequalities.  Each certificate
    test fails on NaN.  k and delta are checked by BendProfile itself."""
    sigma = 2.5 * delta
    bp = BendProfile(k=k, delta=delta, report={})
    t = np.linspace(-sigma, sigma, 10000)
    j = bp.jet(t)
    h, hp, hpp = j.f, j.d1, j.d2
    pos = t >= 0
    report = {
        "min_h": float(h.min()),
        "max_abs_hp": float(np.abs(hp).max()),
        "min_hpp": float(hpp.min()),
        "evenness": float(np.max(np.abs(h - h[::-1]))),
        "ratio_right": float((hpp[pos] - k * np.abs(hp[pos] - 1.0)).min()),
        "ratio_left": float((hpp[~pos] - k * np.abs(hp[~pos] + 1.0)).min()),
        "identity_tail": float(np.max(np.abs(h[np.abs(t) >= delta] - np.abs(t[np.abs(t) >= delta])))),
    }
    if not (
        report["min_h"] > 0
        and report["max_abs_hp"] <= 1.0 + 1e-12
        and report["min_hpp"] >= -1e-12
        and report["ratio_right"] >= -1e-9 * k
        and report["ratio_left"] >= -1e-9 * k
        and report["identity_tail"] <= 0
    ):
        raise ResolutionError(f"bend profile invariants failed: {report}")
    return BendProfile(k=k, delta=delta, report=report)


# ---------------------------------------------------------------------------
# tube metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TubeMetric:
    """Warped one-sided tube dt^2 + f(t)^2 g_core in Fermi coordinates.

    The warp decreases into the tube (f' <= 0 at the core), so the core has
    nonnegative mean curvature with respect to the inward normal:
    trA = -(dim core) f'(0)/f(0) >= 0.
    """

    chart: Chart
    warp: object  # t -> Jet of f
    core_factors: tuple
    sigma: float

    def __post_init__(self):
        core = self.warp(0.0)
        if not (core.f > 0):
            raise DomainError("warp must be positive at the core")
        if not (core.d1 <= 1e-14):
            raise DomainError("warp must not increase into the tube (trA >= 0)")
        if not (self.sigma > 0):
            raise DomainError("tube depth must be positive")

    def field(self) -> AnalyticMetric:
        return warped_product_metric(self.chart, self.warp, list(self.core_factors))


def sphere_tube(n, theta0, sigma, count=5) -> TubeMetric:
    """Inward tube over the geodesic sphere of radius theta0 in the round
    S^n: warp f(t) = sin(theta0 - t), core = round S^{n-1}."""
    if not (0 < theta0 < np.pi / 2):
        raise DomainError("core radius must lie in (0, pi/2)")
    if sigma >= theta0:
        raise DomainError("tube deeper than the focal distance")
    axes = [(-sigma, sigma, count)]
    axes += [(np.pi / 2 - 0.4, np.pi / 2 + 0.4, count) for _ in range(n - 1)]

    def warp(t):
        s = np.sin(theta0 - t)
        return Jet(s, -np.cos(theta0 - t), -s)

    return TubeMetric(
        chart=Chart(tuple(axes)),
        warp=warp,
        core_factors=tuple(round_sphere_factors(n - 1, radius=1.0, axis_offset=1)),
        sigma=sigma,
    )


def bent_warp(tm: TubeMetric, bp: BendProfile):
    """Warp of the bent metric: F(t) = f(h(t)) with exact chain-rule jets."""
    return lambda t: jet_compose(tm.warp, bp.jet(t))


def bend_metric(tm: TubeMetric, bp: BendProfile) -> AnalyticMetric:
    """Substituted metric dt^2 + f(h(t))^2 g_core as an AnalyticMetric."""
    if bp.delta >= tm.sigma:
        raise DomainError("tube too shallow for the bend transition width")
    return warped_product_metric(tm.chart, bent_warp(tm, bp), list(tm.core_factors))


# ---------------------------------------------------------------------------
# pointwise scal comparison at matched points
# ---------------------------------------------------------------------------

def _center_angles(tm: TubeMetric):
    return np.array([0.5 * (a[0] + a[1]) for a in tm.chart.axes[1:]])


def scal_compare(tm: TubeMetric, bp: BendProfile, samples=201):
    """scal(bent)(t) - scal(base)(h(t)) on the one-sided range [0, sigma).

    The identification t <-> h(t) matches the leaves N_t of the two tubes;
    beyond the transition width the difference vanishes identically."""
    if not _is_index(samples) or samples < 2:
        raise ParameterError(f"scal_compare needs an integer number of samples >= 2, got {samples!r}")
    bent = bend_metric(tm, bp)
    angles = _center_angles(tm)
    ts = np.linspace(0.0, tm.sigma * (1.0 - 1e-9), samples)
    rest = np.broadcast_to(angles, (samples, len(angles)))
    # every sample in one batched evaluation per metric
    diff = (scal_from_jet(*bent.jet(np.column_stack((ts, rest))))
            - scal_from_jet(*tm.field().jet(np.column_stack((bp.jet(ts).f, rest)))))
    idx = int(np.argmin(diff))
    return {
        "t": ts,
        "diff": diff,
        "min_diff": float(diff[idx]),
        "argmin_t": float(ts[idx]),
        "tail_max_abs": float(np.max(np.abs(diff[ts >= bp.delta]))),
    }


def stiffness_search(tm: TubeMetric, delta, cap=2.0**20, samples=201):
    """Doubling search from k = 1 for the smallest stiffness k* with min
    scal difference >= 0.  Each candidate is compared with an uncertified
    profile; only k* is certified, by one ``build_h``.  Returns k* and the
    scal_compare report of k*, which also holds the certified profile under
    "profile".  A delta outside (0, inf) or a cap below 1 is a ParameterError."""
    if not (0 < delta < np.inf and cap >= 1):
        raise ParameterError(f"need 0 < delta < inf and cap >= 1, got delta {delta!r} and cap {cap!r}")
    k = 1.0
    while k <= cap:
        rep = scal_compare(tm, BendProfile(k=k, delta=delta, report={}), samples=samples)
        if rep["min_diff"] >= 0:
            return k, {**rep, "profile": build_h(k, delta)}
        k *= 2.0
    raise IterationLimitError(f"no certified stiffness below the cap {cap}")


def totally_geodesic_residual(tm: TubeMetric, bp: BendProfile):
    """Sup over the core of |second fundamental form| of {t = 0} in the bent
    metric: A_ab = 1/2 d(g_h)_ab/dt = h'(0) f f' (...) = 0 since h'(0) = 0."""
    bent = bend_metric(tm, bp)
    x = np.concatenate(([0.0], _center_angles(tm)))
    g, dg = bent.jet_fn(x, (0, 1))
    a_form = 0.5 * dg[0][1:, 1:]
    ginv_core = np.linalg.inv(g[1:, 1:])
    return float(np.max(np.abs(ginv_core @ a_form)))


# ---------------------------------------------------------------------------
# bucket decomposition of the scal difference
# ---------------------------------------------------------------------------

def _linear_part(g, d2g):
    return scal_from_jet(g, np.zeros_like(d2g[0]), d2g)

def _quad_form(g, u, v):
    z = np.zeros((g.shape[0],) * 4)
    s = lambda w: scal_from_jet(g, w, z)
    return 0.5 * (s(u + v) - s(u) - s(v))


def dominant_decomposition(tm: TubeMetric, bp: BendProfile, t):
    """Exact bucket split of scal(bent)(t) - scal(base)(h(t)).

    Writing a for the normal-derivative block of the base metric jet at the
    matched point, the buckets are the (h'^2-1)- and (h'-1)-weighted
    quadratic and mixed first-order terms (i1, i2), the corresponding
    second-order terms (i3, i4), and the h''-weighted gain term (i5); i6
    collects whatever the five buckets miss (off-diagonal contributions;
    zero for these diagonal test tubes up to rounding).  The sum reproduces
    the pointwise difference exactly, which is the executable form of the
    curvature expansion identity."""
    angles = _center_angles(tm)
    j = bp.jet(np.array([float(t)]))
    h, hp, hpp = float(j.f[0]), float(j.d1[0]), float(j.d2[0])
    g, dg, d2g = tm.field().jet(np.concatenate(([h], angles)))
    a = dg[0]
    e_first = np.zeros_like(dg)
    e_first[0] = a
    dg_rest = dg - e_first

    p_normal = np.zeros_like(d2g)
    p_normal[0, 0] = d2g[0, 0]
    p_mixed = np.zeros_like(d2g)
    p_mixed[0, 1:] = d2g[0, 1:]
    p_mixed[1:, 0] = d2g[1:, 0]
    e_gain = np.zeros_like(d2g)
    e_gain[0, 0] = a

    i1 = (hp**2 - 1.0) * _quad_form(g, e_first, e_first)
    i2 = 2.0 * (hp - 1.0) * _quad_form(g, e_first, dg_rest)
    i3 = (hp**2 - 1.0) * _linear_part(g, p_normal)
    i4 = (hp - 1.0) * _linear_part(g, p_mixed)
    i5 = hpp * _linear_part(g, e_gain)

    x_bent = np.concatenate(([float(t)], angles))
    diff = scal_from_jet(*bend_metric(tm, bp).jet(x_bent)) - scal_from_jet(g, dg, d2g)
    buckets = {"i1": i1, "i2": i2, "i3": i3, "i4": i4, "i5": i5}
    total = sum(buckets.values())
    ginv = np.linalg.inv(g)
    trace_a_here = -0.5 * float(np.einsum("ab,ab->", ginv, a))  # inward normal
    buckets.update(
        {
            "i6_offdiagonal": diff - total,
            "difference": diff,
            "i5_diag_bound": 0.5 * hpp * trace_a_here,
            "t": float(t),
            "h": h,
        }
    )
    return buckets
