"""Analytic scalar fields and catalog test metrics.

Provides randomized smooth positive conformal factors with exact
derivatives (for transformation-law consistency tests), sampled over a
whole chart by the addition theorem, and builders of diagonal
AnalyticMetrics (cylinders, warped tubes), which hold one exact jet
callback and no samples.  A separable factor and a warp profile are
each one callable t -> Jet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grids import AnalyticMetric, Chart, MetricField
from .jets import Jet


# ---------------------------------------------------------------------------
# random smooth positive scalar fields with exact derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigField:
    """u(x) = base + sum_j amp_j cos(k_j . x + phase_j), kept positive.

    Exposes exact value/grad/hess/laplacian, all vectorized over trailing
    coordinate axes of shape (..., n), and on_chart, the value at every
    node of a chart.
    """

    base: float
    amps: np.ndarray      # (m,)
    waves: np.ndarray     # (m, n)
    phases: np.ndarray    # (m,)

    @classmethod
    def random(cls, dim, seed):
        """Three modes with frequencies in [-2, 2]^dim."""
        rng = np.random.default_rng(seed)
        amps = rng.uniform(0.05, 0.25, size=3)
        waves = rng.uniform(-2.0, 2.0, size=(3, dim))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        base = 1.0 + amps.sum()  # u >= base - sum(amps) = 1
        return cls(base, amps, waves, phases)

    def _args(self, x):
        x = np.asarray(x, dtype=float)
        args = np.tensordot(x, self.waves, axes=([-1], [1]))  # (..., m)
        args += self.phases
        return args

    def value(self, x):
        args = self._args(x)
        return self.base + np.cos(args, out=args) @ self.amps

    def on_chart(self, chart):
        """u at every node of chart, shape chart.shape, by the addition
        theorem cos(k.x + phi) = Re(e^{i phi} prod_c e^{i k_c x_c}): one
        complex exponential per wave, axis and 1-D coordinate instead of a
        cos per node and wave.  The leading axes are multiplied out by
        broadcasting, times amp_j; the real parts along the last axis,
        Re(z) cos(k x) - Im(z) sin(k x) summed over the waves, are one
        matmul."""
        *lead, last = (np.exp(1j * np.multiply.outer(self.waves[:, c], chart.coords_1d(c)))
                       for c in range(chart.dim))
        z = self.amps * np.exp(1j * self.phases)
        for c, e in enumerate(lead):
            z = z[..., None] * e.reshape(e.shape[:1] + (1,) * c + e.shape[1:])
        z = z.reshape(len(z), -1)
        u = np.concatenate([z.real, z.imag]).T @ np.concatenate([last.real, -last.imag])
        return self.base + u.reshape(chart.shape)

    def grad(self, x):
        s = np.sin(self._args(x)) * self.amps  # (..., m)
        return -np.tensordot(s, self.waves, axes=([-1], [0]))

    def hess(self, x):
        c = np.cos(self._args(x)) * self.amps  # (..., m)
        kk = np.einsum("mi,mj->mij", self.waves, self.waves)
        return -np.tensordot(c, kk, axes=([-1], [0]))

    def laplacian(self, x):
        c = np.cos(self._args(x)) * self.amps
        k2 = np.einsum("mi,mi->m", self.waves, self.waves)
        return -c @ k2


# ---------------------------------------------------------------------------
# diagonal analytic metrics: g_ii(x) = prod_j f_{ij}(x_j)
# ---------------------------------------------------------------------------

def const_factor(c=1.0):
    def factor(t):
        zero = 0.0 * t
        return Jet(c + zero, zero, zero)

    return factor


def sin2_factor():
    def factor(t):
        twice = 2.0 * t
        return Jet(np.sin(t) ** 2, np.sin(twice), 2.0 * np.cos(twice))

    return factor


def func2_factor(profile):
    """Factor F(t)^2 for a scalar profile t -> Jet of F."""

    def factor(t):
        p = profile(t)
        return Jet(p.f**2, 2.0 * p.f * p.d1, 2.0 * (p.d1**2 + p.f * p.d2))

    return factor


def diagonal_metric_field(chart: Chart, factors) -> AnalyticMetric:
    """The AnalyticMetric g = diag(prod_j f_{ij}(x_j)) with exact jets.

    ``factors[i]`` is a dict {axis: factor}, each factor a callable
    t -> Jet of f_ij; absent axes contribute the constant factor 1.  The
    jet callback is one product-rule kernel over the requested orders,
    vectorized over leading axes of x.
    """
    n = chart.dim
    rows = [sorted(row.items()) for row in factors]
    plans = {}

    def plan(order):
        """The index plan of ``order``, built on its first use by this
        metric: for each row i and each axis tuple c <= d <= ..., the
        factors with their derivative orders m_j (how often axis j is
        differentiated) and the mirrored output cells."""
        if order not in plans:
            plans[order] = [
                (
                    [(factor, j, axes.count(j)) for j, factor in row],
                    [(slice(None),) + perm + (i, i) for perm in set(itertools.permutations(axes))],
                )
                for i, row in enumerate(rows)
                for axes in itertools.combinations_with_replacement([j for j, _ in row], order)
            ]
        return plans[order]

    evaluated = list(dict.fromkeys((factor, j) for row in rows for j, factor in row))

    def jet_fn(x, orders):
        """d^order g_ii along axes (c, d, ...) = prod_j f_ij^(m_j)(x_j) for
        each order asked for; each factor is evaluated once per call.
        Factors see 1-D arrays even at one point, so a point's value does
        not depend on the batch it is evaluated in."""
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, n)
        jets = {}
        for factor, j in evaluated:
            jet = factor(pts[:, j])
            jets[factor, j] = (jet.f, jet.d1, jet.d2)
        result = []
        for order in orders:
            out = np.zeros((len(pts),) + (n,) * (order + 2))
            for terms, cells in plan(order):
                prod = 1.0
                for factor, j, m in terms:
                    prod = prod * jets[factor, j][m]
                for cell in cells:
                    out[cell] = prod
            result.append(out.reshape(x.shape[:-1] + out.shape[1:]))
        return tuple(result)

    return AnalyticMetric(chart, jet_fn)


# ---------------------------------------------------------------------------
# standard test metrics
# ---------------------------------------------------------------------------

def flat_metric(chart: Chart) -> MetricField:
    """The Euclidean metric sampled on chart: a read-only broadcast view of
    one identity, validated once."""
    n = chart.dim
    return MetricField(chart, np.broadcast_to(np.eye(n), chart.shape + (n, n)))


def round_sphere_factors(dim_sphere, radius=1.0, axis_offset=0):
    """Separable diagonal factors of the round S^{dim_sphere}(radius) in
    spherical coordinates theta_1..theta_{dim_sphere} living on chart axes
    axis_offset..axis_offset+dim_sphere-1."""
    rows = []
    sin2 = sin2_factor()  # one object, so a metric evaluates it once per axis
    for i in range(dim_sphere):
        row = {axis_offset + j: sin2 for j in range(i)}
        if radius != 1.0:
            # overall radius^2, hung on the (otherwise factor-free) own axis
            row[axis_offset + i] = const_factor(radius * radius)
        rows.append(row)
    return rows


def cylinder_metric(n, span=0.4, center=np.pi / 2) -> AnalyticMetric:
    """Product metric on R x S^{n-1}(1): g = ds^2 + g_{S^{n-1}}.

    Chart axes: s, theta_1..theta_{n-1}, 7 nodes each, centered away from
    coordinate degeneracies.  Carries an exact jet callback.
    """
    axes = [(-span, span, 7)]
    axes += [(center - span, center + span, 7) for _ in range(n - 1)]
    chart = Chart(tuple(axes))
    factors = [{}] + round_sphere_factors(n - 1, radius=1.0, axis_offset=1)
    return diagonal_metric_field(chart, factors)


def warped_product_metric(chart: Chart, profile, core_factors) -> AnalyticMetric:
    """g = dt^2 + F(t)^2 g_core on a chart whose axis 0 is t.

    ``profile`` is a callable t -> Jet of F; ``core_factors`` are diagonal
    factors of g_core on axes 1..n-1 (as in diagonal_metric_field, indexed
    by chart axis).
    """
    n = chart.dim
    warp = func2_factor(profile)
    rows = [{}]
    for i in range(1, n):
        row = dict(core_factors[i - 1])
        row[0] = warp
        rows.append(row)
    return diagonal_metric_field(chart, rows)
