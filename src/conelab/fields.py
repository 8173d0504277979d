"""Analytic scalar fields and catalog test metrics.

Provides randomized smooth positive conformal factors with exact
derivatives (for transformation-law consistency tests) and builders of
diagonal AnalyticMetrics (polar plane, round spheres, cylinders, warped
tubes), which hold exact derivative callbacks and no samples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grids import AnalyticMetric, Chart, MetricField


# ---------------------------------------------------------------------------
# random smooth positive scalar fields with exact derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigField:
    """u(x) = base + sum_j amp_j cos(k_j . x + phase_j), kept positive.

    Exposes exact value/grad/hess/laplacian, all vectorized over trailing
    coordinate axes of shape (..., n).
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
        base = 1.0 + amps.sum()  # guarantees u >= 1 - sum|amp| ... >= 0.5
        return cls(base, amps, waves, phases)

    def _args(self, x):
        x = np.asarray(x, dtype=float)
        return np.tensordot(x, self.waves, axes=([-1], [1])) + self.phases  # (..., m)

    def value(self, x):
        return self.base + np.cos(self._args(x)) @ self.amps

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


@dataclass(frozen=True)
class CoordinateField:
    """The level function f(x) = x_axis (a flat coordinate hyperplane)."""

    axis: int
    dim: int

    def value(self, x):
        return np.asarray(x, dtype=float)[..., self.axis]

    def grad(self, x):
        e = np.zeros(self.dim)
        e[self.axis] = 1.0
        return e

    def hess(self, x):
        return np.zeros((self.dim, self.dim))


@dataclass(frozen=True)
class RadiusField:
    """f(x) = |x| in flat coordinates, with exact derivatives."""

    dim: int

    def value(self, x):
        return np.linalg.norm(np.asarray(x, dtype=float), axis=-1)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return x / np.linalg.norm(x)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        xhat = x / r
        return (np.eye(self.dim) - np.outer(xhat, xhat)) / r


# ---------------------------------------------------------------------------
# diagonal analytic metrics: g_ii(x) = prod_j f_{ij}(x_j)
# ---------------------------------------------------------------------------

def const_factor(c=1.0):
    return (lambda t: c + 0.0 * t, lambda t: 0.0 * t, lambda t: 0.0 * t)


def power2_factor(scale=1.0):
    """(scale * t)^2 as a separable factor."""
    s2 = scale * scale
    return (lambda t: s2 * t**2, lambda t: 2.0 * s2 * t, lambda t: 2.0 * s2 + 0.0 * t)


def sin2_factor():
    return (
        lambda t: np.sin(t) ** 2,
        lambda t: np.sin(2.0 * t),
        lambda t: 2.0 * np.cos(2.0 * t),
    )


def func2_factor(f, d1, d2):
    """Factor F(t)^2 for a scalar profile with derivatives f, d1, d2."""
    return (
        lambda t: f(t) ** 2,
        lambda t: 2.0 * f(t) * d1(t),
        lambda t: 2.0 * (d1(t) ** 2 + f(t) * d2(t)),
    )


def diagonal_metric_field(chart: Chart, factors) -> AnalyticMetric:
    """The AnalyticMetric g = diag(prod_j f_{ij}(x_j)) with exact jets.

    ``factors[i]`` is a dict {axis: (f, f', f'')}; absent axes contribute
    the constant factor 1.  The three callbacks are one product-rule
    kernel at orders 0, 1 and 2, vectorized over leading axes of x.
    """
    n = chart.dim
    rows = [sorted(row.items()) for row in factors]

    def _jet(x, order):
        """d^order g_ii along axes (c, d, ...) = prod_j f_ij^(m_j)(x_j),
        where m_j counts how often axis j is differentiated; each factor
        derivative is evaluated once per call, c <= d filled and mirrored.
        Factors see 1-D arrays even at one point, so a point's value does
        not depend on the batch it is evaluated in."""
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, n)
        out = np.zeros((len(pts),) + (n,) * (order + 2))
        values = {}
        for i, row in enumerate(rows):
            for axes in itertools.combinations_with_replacement([j for j, _ in row], order):
                prod = 1.0
                for j, trip in row:
                    fn = trip[axes.count(j)]
                    if (fn, j) not in values:
                        values[fn, j] = fn(pts[:, j])
                    prod = prod * values[fn, j]
                for perm in set(itertools.permutations(axes)):
                    out[(slice(None),) + perm + (i, i)] = prod
        return out.reshape(x.shape[:-1] + out.shape[1:])

    def metric_fn(x):
        return _jet(x, 0)

    def dmetric_fn(x):
        return _jet(x, 1)

    def d2metric_fn(x):
        return _jet(x, 2)

    return AnalyticMetric(chart, metric_fn, dmetric_fn, d2metric_fn)


# ---------------------------------------------------------------------------
# standard test metrics
# ---------------------------------------------------------------------------

def flat_metric(chart: Chart) -> MetricField:
    n = chart.dim
    g = np.broadcast_to(np.eye(n), chart.shape + (n, n)).copy()
    return MetricField(chart, g)


def polar_metric(chart: Chart) -> AnalyticMetric:
    """g = diag(1, r^2) on a 2-D (r, theta) chart."""
    return diagonal_metric_field(chart, [{}, {0: power2_factor()}])


def sphere_metric(chart: Chart, radius=1.0) -> AnalyticMetric:
    """Round 2-sphere of given radius in (theta, phi) coordinates."""
    r2 = radius * radius
    return diagonal_metric_field(
        chart,
        [
            {0: const_factor(r2)},
            {0: func2_factor(lambda t: radius * np.sin(t), lambda t: radius * np.cos(t),
                             lambda t: -radius * np.sin(t))},
        ],
    )


def round_sphere_factors(dim_sphere, radius=1.0, axis_offset=0):
    """Separable diagonal factors of the round S^{dim_sphere}(radius) in
    spherical coordinates theta_1..theta_{dim_sphere} living on chart axes
    axis_offset..axis_offset+dim_sphere-1."""
    rows = []
    for i in range(dim_sphere):
        row = {axis_offset + j: sin2_factor() for j in range(i)}
        if radius != 1.0:
            # overall radius^2, hung on the (otherwise factor-free) own axis
            row[axis_offset + i] = const_factor(radius * radius)
        rows.append(row)
    return rows


def cylinder_metric(n, span=0.4, center=np.pi / 2) -> AnalyticMetric:
    """Product metric on R x S^{n-1}(1): g = ds^2 + g_{S^{n-1}}.

    Chart axes: s, theta_1..theta_{n-1}, 7 nodes each, centered away from
    coordinate degeneracies.  Carries exact derivative callbacks.
    """
    axes = [(-span, span, 7)]
    axes += [(center - span, center + span, 7) for _ in range(n - 1)]
    chart = Chart(tuple(axes))
    factors = [{}] + round_sphere_factors(n - 1, radius=1.0, axis_offset=1)
    return diagonal_metric_field(chart, factors)


def warped_product_metric(chart: Chart, profile, core_factors) -> AnalyticMetric:
    """g = dt^2 + F(t)^2 g_core on a chart whose axis 0 is t.

    ``profile`` is (F, F', F'') callables; ``core_factors`` are diagonal
    factors of g_core on axes 1..n-1 (as in diagonal_metric_field, indexed
    by chart axis).
    """
    n = chart.dim
    warp = func2_factor(*profile)
    rows = [{}]
    for i in range(1, n):
        row = dict(core_factors[i - 1])
        row[0] = warp
        rows.append(row)
    return diagonal_metric_field(chart, rows)
