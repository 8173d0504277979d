"""Finite-difference Riemannian calculus on structured grids.

A metric on a uniform rectangular chart has one of two representations:
a MetricField holds a base g sampled at every node and one factor per
node, the metric at node k being factor[k] * g[k], validated on
construction; an AnalyticMetric holds one exact callback that returns g
and its first and second derivatives of the orders asked for, and g is
validated at each point it is evaluated.
Validation takes the nodes of g in blocks of _BLOCK, in three passes over
the blocks (finite, symmetric, positive definite) that each give one value
per node; a node's factor f decides on them, since the Cholesky factor of
f g is sqrt(f) L_g.  So the product is never formed or factored, working
memory does not grow with the node count, and the first failed test is
the one a single pass over all nodes of the product would fail.  Along
node axes on which g is one broadcast node, f enters by its extremes.
Christoffel symbols and scalar curvature are assembled from the metric
2-jet, which comes from 2nd-order central stencils of the samples or from
the jet callback, at grid nodes of shape (..., n): one node is a batch of
one, and a stencil reads a batch's nodes in one index gather per offset.

Index conventions for derivative arrays:
    dg[c, a, b]      = d g_ab / d x_c
    d2g[c, d, a, b]  = d^2 g_ab / (d x_c d x_d)
"""

from __future__ import annotations

import numbers
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


def _is_index(i):
    """i is an integer, and not a bool."""
    return isinstance(i, numbers.Integral) and not isinstance(i, bool)


def _positive_interval(pair, what):
    """(lo, hi) as floats with 0 < lo < hi < inf, else DomainError."""
    try:
        lo, hi = map(float, pair)
    except (TypeError, ValueError):
        raise DomainError(f"{what} {pair!r} must be a pair of numbers") from None
    if not 0 < lo < hi < np.inf:
        raise DomainError(f"{what} {pair} must satisfy 0 < lo < hi < inf")
    return lo, hi


def _positive(x, what):
    """x as a float array with every entry 0 < x < inf, else DomainError
    (NaN included)."""
    x = np.asarray(x, dtype=float)
    if not np.all((0 < x) & (x < np.inf)):
        raise DomainError(f"{what} must be positive and finite")
    return x


# ---------------------------------------------------------------------------
# charts and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Uniform rectangular coordinate chart.

    axes: tuple of (min, max, sample count) per coordinate axis; a count is
    an integer, so that the spacings are those of the nodes.
    """

    axes: tuple

    def __post_init__(self):
        if len(self.axes) < 2:
            raise DomainError("chart needs dimension >= 2")
        for lo, hi, cnt in self.axes:
            if not _is_index(cnt):
                raise DomainError(f"sample counts must be integers, got {cnt!r}")
            if cnt < 5:
                raise DomainError("need >= 5 samples per axis for interior stencils")
            if not -np.inf < lo < hi < np.inf:
                raise DomainError("axis bounds must be finite and increasing")

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
        grids = np.meshgrid(*[self.coords_1d(i) for i in range(self.dim)], indexing="ij", copy=False)
        return np.stack(grids, axis=-1)  # one copy, from broadcast views

    def node_coords(self, p):
        """Coordinates of the grid nodes p, shape (..., dim)."""
        p = self.check_margin(p, 0)
        return np.stack([self.coords_1d(ax)[p[..., ax]] for ax in range(self.dim)], axis=-1)

    def check_margin(self, p, margin):
        """The grid nodes p as an integer array of shape (..., dim), each at
        least ``margin`` nodes inside the boundary."""
        p = np.asarray(p)
        if p.ndim == 0 or p.shape[-1] != self.dim or p.dtype.kind not in "iu":
            raise DomainError(f"nodes must be integers of shape (..., {self.dim}), got {p.dtype} {p.shape}")
        p = p.astype(int)
        outside = (p < margin) | (p > np.subtract(self.shape, 1 + margin))
        if outside.any():
            *node, ax = np.argwhere(outside)[0]
            raise BoundaryMarginError(f"node {p[tuple(node)].tolist()} within {margin} nodes of boundary on axis {ax}")
        return p


def _cholesky_pivots(a, scratch):
    """Smallest Cholesky pivot of each node of the (n, n, B) stack a, whose
    a[i, j] is entry ij of every node; the factor of the lower triangle is
    built column by column over all B nodes at once, in the first a.size
    entries of scratch (each entry read is written first)."""
    n = a.shape[0]
    chol = scratch[:a.size].reshape(a.shape)
    pivot = np.full(a.shape[2], np.inf)
    for j in range(n):
        col = a[j:, j] - np.einsum("ikb,kb->ib", chol[j:, :j], chol[j, :j])
        if not (col[0] > 0).all():
            raise SingularMetricError("metric not positive definite")
        piv = np.sqrt(col[0])
        chol[j:, j] = col / piv
        np.minimum(pivot, piv, out=pivot)
    return pivot


def _distinct(a, axes):
    """a with each of its first ``axes`` axes of stride 0 (a broadcast
    view, one node's memory at every index) cut to its first index."""
    node_axes = zip(a.strides[:axes], a.shape)
    return a[tuple(slice(1) if stride == 0 and size else slice(None) for stride, size in node_axes)]


def _per_node(g, test):
    """test(a) over the (n, n) nodes of g in blocks of _BLOCK nodes, each
    block a of shape (n, n, B) with a[i, j] entry ij of every node: one
    value per node, of shape g.shape[:-2]."""
    nodes = g.reshape((-1,) + g.shape[-2:])
    out = np.empty(len(nodes))
    for s in range(0, len(nodes), _BLOCK):
        out[s:s + _BLOCK] = test(nodes[s:s + _BLOCK].transpose(1, 2, 0))
    return out.reshape(g.shape[:-2])


def _check_metric(g, factor=1.0):
    """factor * g, factor[k] * g[k] at node k, is finite, symmetric to
    1e-12 and positive definite with Cholesky pivots above 1e-12 at every
    node; factor is a scalar or has the node shape g.shape[:-2].

    Three passes over blocks of _BLOCK nodes of g give one value per node,
    and the node's factor f decides on it: f max|g| finite, then |f| times
    the largest asymmetry of g at most 1e-12, then f > 0 and g positive
    definite, then sqrt(f) times the smallest pivot of g above 1e-12 once
    every node has factored.  These are the tests of f g up to the rounding
    of the product, so the first failed test over all nodes names the
    error, whatever block it fails in.

    A node axis of stride 0 in g or in factor is collapsed to its first
    index: each distinct node is validated once, and the decision is the
    same as over the copy.  Along a node axis on which g collapsed, the
    factor enters by its extremes, max|f| in the finite and symmetry tests
    and min f in the positivity and pivot tests: each test is monotone in
    f (a NaN propagates into both), so it decides as over every node, in
    two passes over the factor."""
    n = g.shape[-1]
    g = _distinct(g, g.ndim - 2)
    f = _distinct(np.asarray(factor, dtype=float), np.ndim(factor))
    collapsed = tuple(k for k in range(f.ndim) if g.shape[k] == 1)
    lo = f.min(collapsed, keepdims=True)
    big = np.maximum(f.max(collapsed, keepdims=True), -lo)  # max|f|
    iu, ju = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # strict upper triangle
    # an overflow to inf, or 0 * inf, is what the first test detects
    with np.errstate(over="ignore", invalid="ignore"):
        # max|g| per node: a C-ordered |block| reduces over its leading
        # (entry) axes, one vector operation per entry
        if not np.isfinite(big * _per_node(g, lambda a: np.abs(a, order="C").max((0, 1)))).all():
            raise DomainError("metric not finite at every node")
        asym = _per_node(g, lambda a: np.abs(a[iu, ju] - a[ju, iu]).max(0, initial=0.0))
        if (big * asym > 1e-12).any():
            raise DomainError("metric not symmetric at every node")
    if not (lo > 0).all():
        raise SingularMetricError("metric not positive definite")
    scratch = np.zeros(min(g.size // (n * n), _BLOCK) * n * n)
    pivot = _per_node(g, lambda a: _cholesky_pivots(a, scratch))
    if not (np.sqrt(lo) * pivot > _PIVOT_TOL).all():
        raise SingularMetricError("metric pivot below tolerance 1e-12")


def _node_values(chart, x, what):
    """x as a read-only float array of chart.shape: a scalar is one value
    at every node (a stride-0 view), and an array must have exactly that
    shape."""
    x = np.asarray(x, dtype=float)
    if x.ndim and x.shape != chart.shape:
        raise DomainError(f"{what} has shape {x.shape}, expected a scalar or {chart.shape}")
    return np.broadcast_to(x, chart.shape)


@dataclass(frozen=True)
class MetricField:
    """Metric sampled on a chart: factor[k] * g[k] at node k.

    g has shape chart.shape + (n, n).  factor is a scalar or an array of
    exactly chart.shape; it is stored with chart.shape (a scalar as a
    stride-0 view), and is 1 for a field built without one.  Both are kept
    as read-only views, and the metric is validated at every node on
    construction without forming the product; stencils form it at the
    nodes they read."""

    chart: Chart
    g: np.ndarray
    factor: np.ndarray = 1.0

    # no callbacks: a sampled field's jets come from its samples (the
    # perfbench tracer reads these names on every field it wraps)
    metric_fn = dmetric_fn = d2metric_fn = None

    def __post_init__(self):
        n = self.chart.dim
        expected = self.chart.shape + (n, n)
        if self.g.shape != expected:
            raise DomainError(f"g has shape {self.g.shape}, expected {expected}")
        object.__setattr__(self, "g", np.broadcast_to(self.g, expected))
        object.__setattr__(self, "factor", _node_values(self.chart, self.factor, "factor"))
        _check_metric(self.g, self.factor)

    @classmethod
    def from_function(cls, chart, fn):
        """Sample a vectorized metric function fn: (..., n) -> (..., n, n)."""
        return cls(chart, np.asarray(fn(chart.mesh()), dtype=float))


@dataclass(frozen=True)
class AnalyticMetric:
    """Metric given by one exact jet callback on a chart; nothing is sampled.

    ``jet_fn(x, orders)`` maps points x of shape (..., n) to a tuple with
    one array per requested derivative order (0 for g, 1 for dg, 2 for
    d2g, index conventions above).  The chart fixes node coordinates and
    boundary margins.
    """

    chart: Chart
    jet_fn: object

    def jet(self, x):
        """(g, dg, d2g) at points x of shape (..., n); g is validated at
        every point."""
        g, dg, d2g = (np.asarray(a, dtype=float) for a in self.jet_fn(x, (0, 1, 2)))
        _check_metric(g)
        return g, dg, d2g

    def metric_fn(self, x):
        return self.jet_fn(x, (0,))[0]

    def dmetric_fn(self, x):
        return self.jet_fn(x, (1,))[0]

    def d2metric_fn(self, x):
        return self.jet_fn(x, (2,))[0]


# ---------------------------------------------------------------------------
# assembly from (g, dg, d2g)
# ---------------------------------------------------------------------------

def _inverse(g):
    if (np.abs(np.linalg.det(g)) < 1e-300).any():
        raise SingularMetricError("metric not invertible")
    return np.linalg.inv(g)


def _lowered(dg):
    """d_a g_br + d_b g_ar - d_r g_ab at [..., a, b, r] (d_d of it for d2g)."""
    swapped = dg.swapaxes(-3, -2)
    return swapped + dg - swapped.swapaxes(-2, -1)


def christoffel_from_jet(g, dg):
    """Gamma^gamma_{alpha beta} from the metric and its first derivatives.

    Leading axes of g (..., n, n) and dg (..., n, n, n) are batch axes."""
    return 0.5 * np.einsum("...gr,...abr->...gab", _inverse(g), _lowered(dg))


def _total(a, k):
    """Sum of a over its last k axes, one point's entries at a time."""
    return a.reshape(a.shape[:a.ndim - k] + (-1,)).sum(-1)


def scal_from_jet(g, dg, d2g):
    """Scalar curvature assembled from the metric 2-jet.

    scal = g^{ij}(d_k Gam^k_ij - d_j Gam^k_ik
                  + Gam^l_ij Gam^k_kl - Gam^l_ik Gam^k_jl)

    Only the two traces of d Gam that scal needs are formed, never d Gam
    itself: with d_d g^{gr} = -g^{ga} d_d g_ab g^{br}, every term is a
    matmul or an elementwise product summed over one point's own trailing
    axes, O(n^4) per point.  Leading axes of g, dg and d2g are batch axes,
    and a point's value does not depend on the other points of the call;
    a single point returns a Python float.
    """
    batch, n = g.shape[:-2], g.shape[-1]
    ginv = _inverse(g)
    ginv_t = ginv.swapaxes(-1, -2)
    row = ginv.reshape(batch + (1, n * n))
    gam = 0.5 * (_lowered(dg) @ ginv_t[..., None, :, :])  # gam[i, k, l] = Gam^l_ik
    gam_rows = gam.reshape(batch + (n, n * n))
    # s[l] = g^{ij} Gam^l_ij, div[b] = g^{ka} d_k g_ab, c[l] = Gam^k_kl
    s = (row @ gam.reshape(batch + (n * n, n)))[..., 0, :]
    div = (row @ dg.reshape(batch + (n * n, n)))[..., 0, :]
    c = gam.diagonal(0, -3, -1).sum(-1)
    # raised[i, k, b] = g^{ij} g^{ka} d_j g_ab, lead[j, k, l] = g^{ij} Gam^l_ik
    raised = ginv @ (ginv[..., None, :, :] @ dg).reshape(gam_rows.shape)
    lead = ginv_t @ gam_rows
    # the d2g parts: q[k, r] = g^{ij} L_kijr, p[k, r] = g^{ij} L_jikr with
    # L_dabr = d_d(d_a g_br + d_b g_ar - d_r g_ab)
    low = _lowered(d2g)
    q = (row[..., None, :, :] @ low.reshape(batch + (n, n * n, n)))[..., 0, :]
    p = ginv_t.reshape(row.shape) @ low.reshape(batch + (n * n, n * n))
    # t1 - t2 is its d2g part plus -div.s + raised.gam; t3 = c.s, t4 = lead.gam^T
    second = 0.5 * _total(ginv * (q - p.reshape(q.shape)), 2)
    gam_t = gam.swapaxes(-1, -2).reshape(lead.shape)
    scal = second + _total((c - div) * s, 1) + _total(raised * gam_rows - lead * gam_t, 2)
    return float(scal) if np.ndim(scal) == 0 else scal


# ---------------------------------------------------------------------------
# derivative extraction at grid nodes
# ---------------------------------------------------------------------------

def central_jet(sample, h):
    """(f, df, d2f) at the origin from 2nd-order central differences.

    ``sample(offset)`` returns the value (scalar or array) at the integer
    step array ``offset`` of shape (n,); ``h[c]`` is the step along axis c.
    Derivative arrays follow the index conventions above: df[c] = d f / d x_c
    and d2f[c, d] = d^2 f / (d x_c d x_d).
    """
    n = len(h)
    e = np.eye(n, dtype=int)
    f = np.asarray(sample(0 * e[0]), dtype=float)
    df = np.empty((n,) + f.shape)
    d2f = np.empty((n, n) + f.shape)
    for c in range(n):
        fp, fm = sample(e[c]), sample(-e[c])
        df[c] = (fp - fm) / (2.0 * h[c])
        d2f[c, c] = (fp - 2.0 * f + fm) / h[c] ** 2
        for d in range(c + 1, n):
            fpp, fpm = sample(e[c] + e[d]), sample(e[c] - e[d])
            fmp, fmm = sample(-e[c] + e[d]), sample(-e[c] - e[d])
            d2f[c, d] = d2f[d, c] = (fpp - fpm - fmp + fmm) / (4.0 * h[c] * h[d])
    return f, df, d2f


def _stencil_jet(at, p, h):
    """central_jet of grid samples at nodes p (..., n), where ``at(index)``
    gathers the samples at an index tuple: one gather per offset, from the
    node axis moved to the front once."""
    axes_first = np.moveaxis(p, -1, 0)
    column = (-1,) + (1,) * (p.ndim - 1)
    return central_jet(lambda offset: at(tuple(axes_first + offset.reshape(column))), h)


def metric_jet(m, p):
    """(g, dg, d2g) of the metric at grid nodes p (..., n), the derivative
    axes behind the batch axes: exact for an AnalyticMetric, central
    stencils of the samples factor * g for a MetricField."""
    if isinstance(m, AnalyticMetric):
        return m.jet(m.chart.node_coords(p))
    g, dg, d2g = _stencil_jet(lambda i: m.factor[i][..., None, None] * m.g[i], p, m.chart.spacings)
    return g, np.moveaxis(dg, 0, -3), np.moveaxis(d2g, (0, 1), (-4, -3))


def christoffel(m, p):
    """Christoffel symbols Gamma^gamma_{alpha beta} at grid nodes p (..., n)."""
    g, dg, _ = metric_jet(m, m.chart.check_margin(p, 2))
    return christoffel_from_jet(g, dg)


def scalar_curvature(m, p):
    """Scalar curvature at grid nodes p (..., n); a float at one node."""
    return scal_from_jet(*metric_jet(m, m.chart.check_margin(p, 3)))


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
    """Scalar curvature of u^{4/(n-2)} g from the transformation law, elementwise."""
    if n < 3:
        raise DomainError("transformation law needs n >= 3")
    _positive(u, "conformal factor")
    c = float(1 / conformal_coupling(n))
    return u ** (-(n + 2.0) / (n - 2.0)) * (-c * lap_u + scal_g * u)


def conformal_deform(m, u, n=None):
    """Componentwise g -> u^{4/(n-2)} g for a positive scalar field u, a
    scalar or an array of exactly the chart's shape.

    The output is a sampled MetricField (stencil path), since u is given by
    samples: the base g of m, shared, and the factor of m times u^{4/(n-2)},
    one float per node, validated without a second Cholesky factorization.
    The product is formed over the distinct nodes of the two factors, so a
    scalar u on a stride-0 factor keeps one float at every node.
    Deforming a deformed field multiplies the factors first, which may move
    a last bit against deforming the product g f1 by f2; no caller deforms
    twice.  An AnalyticMetric input is first sampled over its whole chart.
    ``n`` defaults to the chart dimension; pass it explicitly on
    dimensionally reduced grids (radial sections of higher-dimensional
    metrics).
    """
    n = m.chart.dim if n is None else n
    if n < 3:
        raise DomainError("conformal exponent needs n >= 3")
    power = _node_values(m.chart, _positive(u, "conformal factor") ** (4.0 / (n - 2.0)), "conformal factor")
    if isinstance(m, AnalyticMetric):
        m = MetricField.from_function(m.chart, m.metric_fn)
    factor = _distinct(m.factor, m.chart.dim) * _distinct(power, m.chart.dim)
    return MetricField(m.chart, m.g, np.broadcast_to(factor, m.chart.shape))


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def _scalar_jet(m, f, p):
    """(df, d2f) of a level function at node p (stencil or analytic)."""
    if hasattr(f, "grad") and hasattr(f, "hess"):
        x = m.chart.node_coords(p)
        return np.asarray(f.grad(x), dtype=float), np.asarray(f.hess(x), dtype=float)
    _, df, d2f = _stencil_jet(np.asarray(f, dtype=float).__getitem__, p, m.chart.spacings)
    return df, d2f


def level_set_shape(m, f, p):
    """Second fundamental form and mean curvature of {f = f(p)} at node p.

    Orientation is fixed so that distance spheres (f = |x| in flat space)
    come out with positive trace (n-1)/r: the round-sphere/inward
    convention.  Negating f negates the result exactly.

    Returns (secondform, trace) where secondform is expressed in a
    g-orthonormal tangent frame at p.
    """
    p = m.chart.check_margin(p, 2)
    if p.ndim != 1:
        raise DomainError(f"level_set_shape takes one node, got shape {p.shape}")
    g, dg, _ = metric_jet(m, p)
    gam = christoffel_from_jet(g, dg)
    ginv = _inverse(g)

    df, d2f = _scalar_jet(m, f, p)
    norm2 = float(df @ ginv @ df)
    if norm2 < 1e-24:
        raise DegenerateLevelSetError(f"vanishing gradient at node {tuple(p.tolist())}")
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
    u = _positive(u, "conformal factor")
    nshift = np.sum(np.asarray(grad_u, dtype=float) * np.asarray(normal, dtype=float), axis=-1) / u
    return np.asarray(secondform, dtype=float) - ((2.0 / (n - 2.0)) * nshift)[..., None, None] * (
        np.asarray(g_restriction, dtype=float)
    )
