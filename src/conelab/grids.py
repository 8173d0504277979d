"""Finite-difference Riemannian calculus on structured grids.

A metric on a uniform rectangular chart has one of two representations:
a MetricField holds the components sampled at every node, validated on
construction; an AnalyticMetric holds exact callbacks for g and its first
and second derivatives, validated at each point it is evaluated.
Validation takes the nodes in blocks of _BLOCK, in three passes over the
blocks (finite, symmetric, positive definite), so its working memory does
not grow with the node count and its first failed test is the one a
single pass over all nodes would fail.
Christoffel symbols and scalar curvature are assembled pointwise from the
metric 2-jet, which comes from 2nd-order central stencils of the samples
or from the callbacks.

Index conventions for derivative arrays:
    dg[c, a, b]      = d g_ab / d x_c
    d2g[c, d, a, b]  = d^2 g_ab / (d x_c d x_d)
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BoundaryMarginError,
    DegenerateLevelSetError,
    DomainError,
    SingularMetricError,
)

_PIVOT_TOL = 1e-12
_BLOCK = 4096  # nodes per metric validation block


# ---------------------------------------------------------------------------
# charts and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Uniform rectangular coordinate chart.

    axes: tuple of (min, max, sample count) per coordinate axis.
    """

    axes: tuple

    def __post_init__(self):
        if len(self.axes) < 2:
            raise DomainError("chart needs dimension >= 2")
        for lo, hi, cnt in self.axes:
            if cnt < 5:
                raise DomainError("need >= 5 samples per axis for interior stencils")
            if not hi > lo:
                raise DomainError("axis bounds must be increasing")

    @property
    def dim(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(int(c) for _, _, c in self.axes)

    @property
    def spacings(self):
        return np.array([(hi - lo) / (cnt - 1) for lo, hi, cnt in self.axes])

    def coords_1d(self, axis):
        lo, hi, cnt = self.axes[axis]
        return np.linspace(lo, hi, int(cnt))

    def mesh(self):
        """Coordinates at all nodes, shape grid_shape + (dim,)."""
        grids = np.meshgrid(*[self.coords_1d(i) for i in range(self.dim)], indexing="ij")
        return np.stack(grids, axis=-1)

    def node_coords(self, p):
        p = tuple(int(i) for i in p)
        return np.array([self.coords_1d(ax)[i] for ax, i in enumerate(p)])

    def check_margin(self, p, margin):
        for ax, i in enumerate(p):
            cnt = self.shape[ax]
            if i < margin or i > cnt - 1 - margin:
                raise BoundaryMarginError(
                    f"node {tuple(p)} within {margin} nodes of boundary on axis {ax}"
                )


def _min_cholesky_pivot(a, scratch):
    """Smallest Cholesky pivot of the (n, n, B) stack a, whose a[i, j] is
    entry ij of every node; the factor of the lower triangle is built
    column by column over all B nodes at once, in the first a.size
    entries of scratch (each entry read is written first)."""
    n = a.shape[0]
    chol = scratch[:a.size].reshape(a.shape)
    pivot = np.inf
    for j in range(n):
        col = a[j:, j] - np.einsum("ikb,kb->ib", chol[j:, :j], chol[j, :j])
        if not (col[0] > 0).all():
            raise SingularMetricError("metric not positive definite")
        piv = np.sqrt(col[0])
        chol[j:, j] = col / piv
        pivot = min(pivot, piv.min(initial=np.inf))
    return pivot


def _check_metric(g):
    """Every (n, n) block of g is finite, symmetric to 1e-12 and positive
    definite with Cholesky pivots above 1e-12.

    The nodes are taken _BLOCK at a time, so every temporary and the one
    Cholesky scratch array hold at most _BLOCK nodes.  Three passes over
    the blocks test finiteness, then symmetry (the strict upper triangle
    against its mirror), then the Cholesky factor; the pivot tolerance is
    tested once every node has factored.  So the first failed test over
    all nodes names the error, whatever block it fails in."""
    n = g.shape[-1]
    nodes = g.reshape(-1, n, n)
    blocks = [nodes[s:s + _BLOCK] for s in range(0, len(nodes), _BLOCK)]
    if not all(np.isfinite(b).all() for b in blocks):
        raise DomainError("metric not finite at every node")
    iu, ju = np.triu_indices(n, 1)
    if any(np.abs(b[:, iu, ju] - b[:, ju, iu]).max(initial=0.0) > 1e-12 for b in blocks):
        raise DomainError("metric not symmetric at every node")
    scratch = np.zeros(blocks[0].size) if blocks else None
    pivot = min((_min_cholesky_pivot(b.transpose(1, 2, 0), scratch) for b in blocks), default=np.inf)
    if pivot <= _PIVOT_TOL:
        raise SingularMetricError("metric pivot below tolerance 1e-12")


@dataclass(frozen=True)
class MetricField:
    """Metric components sampled on a chart; g has shape chart.shape + (n, n)
    and is validated at every node on construction."""

    chart: Chart
    g: np.ndarray

    # no callbacks: a sampled field's jets come from its samples (the
    # perfbench tracer reads these names on every field it wraps)
    metric_fn = dmetric_fn = d2metric_fn = None

    def __post_init__(self):
        n = self.chart.dim
        expected = self.chart.shape + (n, n)
        if self.g.shape != expected:
            raise DomainError(f"g has shape {self.g.shape}, expected {expected}")
        _check_metric(self.g)

    @classmethod
    def from_function(cls, chart, fn):
        """Sample a vectorized metric function fn: (..., n) -> (..., n, n)."""
        return cls(chart, np.asarray(fn(chart.mesh()), dtype=float))


@dataclass(frozen=True)
class AnalyticMetric:
    """Metric given by exact callbacks on a chart; nothing is sampled.

    Each callback maps points x of shape (..., n) to g, dg and d2g with the
    index conventions above.  The chart fixes node coordinates and
    boundary margins.
    """

    chart: Chart
    metric_fn: object
    dmetric_fn: object
    d2metric_fn: object

    def jet(self, x):
        """(g, dg, d2g) at points x of shape (..., n); g is validated at
        every point."""
        g = np.asarray(self.metric_fn(x), dtype=float)
        _check_metric(g)
        dg = np.asarray(self.dmetric_fn(x), dtype=float)
        return g, dg, np.asarray(self.d2metric_fn(x), dtype=float)


# ---------------------------------------------------------------------------
# pointwise assembly from (g, dg, d2g)
# ---------------------------------------------------------------------------

def _inverse(g):
    if np.any(np.abs(np.linalg.det(g)) < 1e-300):
        raise SingularMetricError("metric not invertible")
    return np.linalg.inv(g)


def _lowered(dg):
    """d_a g_br + d_b g_ar - d_r g_ab at [..., a, b, r] (d_d of it for d2g)."""
    return np.swapaxes(dg, -3, -2) + dg - np.moveaxis(dg, -3, -1)


def christoffel_from_jet(g, dg):
    """Gamma^gamma_{alpha beta} from the metric and its first derivatives.

    Leading axes of g (..., n, n) and dg (..., n, n, n) are batch axes."""
    return 0.5 * np.einsum("...gr,...abr->...gab", _inverse(g), _lowered(dg))


def scal_from_jet(g, dg, d2g):
    """Scalar curvature assembled from the metric 2-jet.

    scal = g^{ij}(d_k Gam^k_ij - d_j Gam^k_ik
                  + Gam^l_ij Gam^k_kl - Gam^l_ik Gam^k_jl)

    Leading axes of g, dg and d2g are batch axes; a single point returns
    a Python float.
    """
    ginv = _inverse(g)
    t = _lowered(dg)
    gam = 0.5 * np.einsum("...gr,...abr->...gab", ginv, t)

    dginv = -np.einsum("...ga,...dab,...br->...dgr", ginv, dg, ginv)
    dgam = 0.5 * (
        np.einsum("...dgr,...abr->...dgab", dginv, t)
        + np.einsum("...gr,...dabr->...dgab", ginv, _lowered(d2g))
    )

    contracted = np.einsum("...kkl->...l", gam)
    t1 = np.einsum("...ij,...kkij->...", ginv, dgam)
    t2 = np.einsum("...ij,...jkik->...", ginv, dgam)
    t3 = np.einsum("...ij,...lij,...l->...", ginv, gam, contracted)
    t4 = np.einsum("...ij,...lik,...kjl->...", ginv, gam, gam)
    scal = t1 - t2 + t3 - t4
    return float(scal) if np.ndim(scal) == 0 else scal


# ---------------------------------------------------------------------------
# derivative extraction at a node
# ---------------------------------------------------------------------------

def central_jet(sample, h):
    """(f, df, d2f) at the origin from 2nd-order central differences.

    ``sample(offset)`` returns the value (scalar or array) at the integer
    step tuple ``offset``; ``h[c]`` is the step along axis c.  Derivative
    arrays follow the index conventions above: df[c] = d f / d x_c and
    d2f[c, d] = d^2 f / (d x_c d x_d).
    """
    n = len(h)

    def at(*moves):
        offset = [0] * n
        for axis, sign in moves:
            offset[axis] += sign
        return sample(tuple(offset))

    f = np.asarray(at(), dtype=float)
    df = np.empty((n,) + f.shape)
    d2f = np.empty((n, n) + f.shape)
    for c in range(n):
        fp, fm = at((c, 1)), at((c, -1))
        df[c] = (fp - fm) / (2.0 * h[c])
        d2f[c, c] = (fp - 2.0 * f + fm) / h[c] ** 2
        for d in range(c + 1, n):
            fpp, fpm = at((c, 1), (d, 1)), at((c, 1), (d, -1))
            fmp, fmm = at((c, -1), (d, 1)), at((c, -1), (d, -1))
            d2f[c, d] = d2f[d, c] = (fpp - fpm - fmp + fmm) / (4.0 * h[c] * h[d])
    return f, df, d2f


def _node_sampler(values, p):
    """offset -> values at grid node p + offset."""
    return lambda offset: values[tuple(map(operator.add, p, offset))]


def metric_jet(m, p):
    """(g, dg, d2g) of the metric at node p: exact for an AnalyticMetric,
    central stencils of the samples for a MetricField."""
    p = tuple(int(i) for i in p)
    if isinstance(m, AnalyticMetric):
        return m.jet(m.chart.node_coords(p))
    return central_jet(_node_sampler(m.g, p), m.chart.spacings)


def christoffel(m, p):
    """Christoffel symbols Gamma^gamma_{alpha beta} at grid node p."""
    m.chart.check_margin(p, 2)
    g, dg, _ = metric_jet(m, p)
    return christoffel_from_jet(g, dg)


def scalar_curvature(m, p):
    """Scalar curvature at grid node p."""
    m.chart.check_margin(p, 3)
    return scal_from_jet(*metric_jet(m, p))


# ---------------------------------------------------------------------------
# conformal transformation law
# ---------------------------------------------------------------------------

def conformal_coupling(n):
    """kappa(n) = (n-2)/(4(n-1)) as an exact fraction.

    The float of kappa, of 1/kappa and of 1/(2 kappa) are the correctly
    rounded values of the three ratios, so every float coupling in the
    package derives from this one definition without changing a bit."""
    return Fraction(n - 2, 4 * (n - 1))


def conformal_scal(scal_g, u, lap_u, n):
    """Scalar curvature of u^{4/(n-2)} g from the transformation law."""
    if n < 3:
        raise DomainError("transformation law needs n >= 3")
    if u <= 0:
        raise DomainError("conformal factor must be positive")
    c = float(1 / conformal_coupling(n))
    return u ** (-(n + 2.0) / (n - 2.0)) * (-c * lap_u + scal_g * u)


def conformal_deform(m, u, n=None):
    """Componentwise g -> u^{4/(n-2)} g for a positive scalar field u.

    u may be a scalar or an array over the grid nodes.  The output is a
    sampled MetricField (stencil path), since u is given by samples; an
    AnalyticMetric input is first sampled over its whole chart.  ``n``
    defaults to the chart dimension; pass it explicitly on dimensionally
    reduced grids (radial sections of higher-dimensional metrics).
    """
    n = m.chart.dim if n is None else n
    if n < 3:
        raise DomainError("conformal exponent needs n >= 3")
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise DomainError("conformal factor must be positive at every node")
    if isinstance(m, AnalyticMetric):
        m = MetricField.from_function(m.chart, m.metric_fn)
    factor = u ** (4.0 / (n - 2.0))
    g = m.g * factor[..., None, None] if factor.ndim else m.g * factor
    return MetricField(m.chart, g)


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def _scalar_jet(m, f, p):
    """(df, d2f) of a level function at node p (stencil or analytic)."""
    if hasattr(f, "grad") and hasattr(f, "hess"):
        x = m.chart.node_coords(p)
        return np.asarray(f.grad(x), dtype=float), np.asarray(f.hess(x), dtype=float)
    _, df, d2f = central_jet(_node_sampler(np.asarray(f, dtype=float), p), m.chart.spacings)
    return df, d2f


def level_set_shape(m, f, p):
    """Second fundamental form and mean curvature of {f = f(p)} at node p.

    Orientation is fixed so that distance spheres (f = |x| in flat space)
    come out with positive trace (n-1)/r: the round-sphere/inward
    convention.  Negating f negates the result exactly.

    Returns (secondform, trace) where secondform is expressed in a
    g-orthonormal tangent frame at p.
    """
    m.chart.check_margin(p, 2)
    p = tuple(int(i) for i in p)
    n = m.chart.dim
    g, dg, _ = metric_jet(m, p)
    gam = christoffel_from_jet(g, dg)
    ginv = _inverse(g)

    df, d2f = _scalar_jet(m, f, p)
    norm2 = float(df @ ginv @ df)
    if norm2 < 1e-24:
        raise DegenerateLevelSetError(f"vanishing gradient at node {p}")
    norm = np.sqrt(norm2)
    nu_up = (ginv @ df) / norm  # unit normal, contravariant, along grad f

    hess = d2f - np.einsum("cab,c->ab", gam, df)
    trace = float(np.einsum("ab,ab->", ginv - np.outer(nu_up, nu_up), hess)) / norm

    # Euclidean-coordinate tangent directions (annihilate df), then
    # g-orthonormalize.
    _, _, vt = np.linalg.svd(df.reshape(1, -1))
    tangent = vt[1:].T  # n x (n-1)
    gram = tangent.T @ g @ tangent
    chol = np.linalg.cholesky(gram)
    frame = tangent @ np.linalg.inv(chol).T
    secondform = frame.T @ (hess / norm) @ frame
    return secondform, trace


def conformal_shape_shift(secondform, g_restriction, u, grad_u, normal, n):
    """Second fundamental form after the conformal change u^{4/(n-2)} g.

    A_new(v, w) = A(v, w) - (2/(n-2)) * N(grad u / u) * g(v, w), where N is
    the component of grad u / u along ``normal``.  All vectors are given in
    a common orthonormal frame.  Leading axes of u (...) and grad_u
    (..., n) are batch axes, broadcast against the forms (..., n-1, n-1);
    each batch entry equals the unbatched call on it.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise DomainError("conformal factor must be positive")
    nshift = np.sum(np.asarray(grad_u, dtype=float) * np.asarray(normal, dtype=float), axis=-1) / u
    return np.asarray(secondform, dtype=float) - ((2.0 / (n - 2.0)) * nshift)[..., None, None] * (
        np.asarray(g_restriction, dtype=float)
    )
