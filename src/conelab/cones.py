"""Analytic catalog of minimal cones over products of round spheres.

A catalog cone C is the cone over S^p(a) x S^q(b) inside the unit sphere
S^n, with a = sqrt(p/(p+q)), b = sqrt(q/(p+q)) (the minimality condition)
and hypersurface dimension n = p + q + 1.  On these cones every radial
problem reduces to an exactly solvable Euler equation, which makes them
independent oracles for the other modules.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentDistanceError, DomainError
from .fields import round_sphere_factors, warped_product_metric
from .grids import AnalyticMetric, Chart, central_jet, conformal_coupling


@dataclass(frozen=True)
class ConeSpec:
    """Cone over S^p(a) x S^q(b); immutable."""

    p: int
    q: int
    a: float
    b: float

    @property
    def n(self):
        """Hypersurface dimension (ambient is R^{n+1})."""
        return self.p + self.q + 1

    @property
    def link_dim(self):
        return self.p + self.q

    @property
    def kappa(self):
        """Conformal coupling (n-2)/(4(n-1))."""
        return float(conformal_coupling(self.n))

    @property
    def link_scal(self):
        """Intrinsic scalar curvature of S^p(a) x S^q(b)."""
        return self.p * (self.p - 1) / self.a**2 + self.q * (self.q - 1) / self.b**2

    @property
    def link_volume(self):
        return _sphere_volume(self.p, self.a) * _sphere_volume(self.q, self.b)


@dataclass(frozen=True)
class RadialProfile:
    """A scalar function of the radial coordinate, sampled on a grid.

    ``tag`` records the interpretation (conformal-factor, eigenfunction,
    green, supersolution, ...).  When an analytic 2-jet callable ``jet_fn``
    (r -> Jet of (value, d/dr, d^2/dr^2)) is attached, residual checks use
    exact derivatives instead of stencils.
    """

    grid: np.ndarray
    values: np.ndarray
    tag: str = "conformal-factor"
    jet_fn: object = field(default=None, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or values.shape != grid.shape:
            raise DomainError("grid/values must be 1-D arrays of equal length")
        if np.any(np.diff(grid) <= 0) or np.any(grid <= 0):
            raise DomainError("radii must be positive and strictly increasing")
        if not np.all(np.isfinite(values)):
            raise DomainError("profile values must be finite")

    def __call__(self, r):
        """Linear interpolation onto arbitrary radii inside the grid."""
        return np.interp(np.asarray(r, dtype=float), self.grid, self.values)

    @classmethod
    def from_function(cls, grid, fn, tag="conformal-factor", jet_fn=None):
        grid = np.asarray(grid, dtype=float)
        return cls(grid, np.asarray(fn(grid), dtype=float), tag=tag, jet_fn=jet_fn)


def _sphere_volume(d, radius):
    """Volume of the round d-sphere of given radius."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0) * radius**d


def make_cone(p, q):
    """Catalog constructor; radii fixed by minimality of the link."""
    if p < 1 or q < 1:
        raise DomainError("sphere factor dimensions must be >= 1")
    if p + q + 1 < 7:
        warnings.warn(
            f"cone ({p},{q}) has n = {p + q + 1} < 7: outside the "
            "area-minimizing regime, formulas remain valid",
            stacklevel=2,
        )
    s = p + q
    return ConeSpec(p=p, q=q, a=math.sqrt(p / s), b=math.sqrt(q / s))


#: default catalog exercised by tests and scenarios
CATALOG = ((3, 3), (4, 3), (4, 4), (5, 4))


def catalog_cones():
    return [make_cone(p, q) for p, q in CATALOG]


def second_form_norm2(c: ConeSpec, r):
    """|A|^2(r) = (p+q)/r^2 for catalog cones."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    return (c.p + c.q) / r**2


def cone_scal(c: ConeSpec, r):
    """scal(r) = -|A|^2(r): Gauss equation with flat ambient and tr A = 0."""
    return -second_form_norm2(c, r)


# ---------------------------------------------------------------------------
# deformed cones (constant conformal factor c0 * r^alpha on the link)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeformedCone:
    """The cone metric conformally deformed by u = c0 * r^alpha.

    The deformed metric is again a cone: d rho^2 + (m rho)^2 g_link with
    slope m = 1 + 2 alpha/(n-2) and rho the deformed distance to the tip.
    alpha = 0, c0 = 1 is the undeformed cone.
    """

    base: ConeSpec
    alpha: float
    c0: float = 1.0

    def __post_init__(self):
        n = self.base.n
        if not (-(n - 2) / 2.0 < self.alpha <= 0.0):
            raise DomainError("alpha must lie in (-(n-2)/2, 0]")
        if self.c0 <= 0:
            raise DomainError("c0 must be positive")

    @property
    def slope(self):
        """m = 1 + 2 alpha/(n-2): opening slope of the deformed cone."""
        return 1.0 + 2.0 * self.alpha / (self.base.n - 2.0)

    def rho_of_r(self, r):
        """Deformed distance to the tip as a function of the original radius."""
        n = self.base.n
        e = 1.0 + 2.0 * self.alpha / (n - 2.0)
        return self.c0 ** (2.0 / (n - 2.0)) * np.asarray(r, dtype=float) ** e / e

    def scal_rho2(self):
        """scal * rho^2 of the deformed cone (a constant).

        Warped-product closed form: scal = [scal_link/m^2 - (n-1)(n-2)]/rho^2.
        """
        n = self.base.n
        return self.base.link_scal / self.slope**2 - (n - 1.0) * (n - 2.0)


def deformed_metric(d: DeformedCone, rho_range=(0.5, 2.0), count=5) -> AnalyticMetric:
    """Analytic metric d rho^2 + (m rho)^2 (g_{S^p(a)} + g_{S^q(b)}).

    Chart axes: rho, then spherical angles of the two link factors; the
    chart dimension is n = p+q+1.
    """
    c = d.base
    m = d.slope
    axes = [(rho_range[0], rho_range[1], count)]
    axes += [(0.7 - 0.25, 0.7 + 0.25, count) for _ in range(c.link_dim)]
    chart = Chart(tuple(axes))
    core = round_sphere_factors(c.p, radius=c.a, axis_offset=1)
    core += round_sphere_factors(c.q, radius=c.b, axis_offset=1 + c.p)
    profile = (lambda t: m * t, lambda t: m + 0.0 * t, lambda t: 0.0 * t)
    return warped_product_metric(chart, profile, core)


def deformed_distance(c: ConeSpec, beta, r):
    """Distance to the tip in the metric deformed by r^beta:
    rho = t^{1+2 beta/(n-2)} / (1 + 2 beta/(n-2)) at t = r."""
    e = 1.0 + 2.0 * beta / (c.n - 2.0)
    if e <= 0:
        raise DivergentDistanceError(
            f"exponent 1+2beta/(n-2) = {e} <= 0: factor not integrable at the tip"
        )
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    return r**e / e


def distortion_bounds(rho_original, theta_plus, theta_minus, k1, k2):
    """Two-sided bracket k1 d^{1-theta+} < d_tilde <= k2 d^{1-theta-}."""
    if not (0 <= theta_plus <= theta_minus < 1):
        raise DomainError("need 0 <= theta_plus <= theta_minus < 1")
    if not (0 < k1 <= k2):
        raise DomainError("need k2 >= k1 > 0")
    d = np.asarray(rho_original, dtype=float)
    return k1 * d ** (1.0 - theta_plus), k2 * d ** (1.0 - theta_minus)


def link_diameter(c: ConeSpec):
    """Intrinsic diameter of S^p(a) x S^q(b) = sqrt((pi a)^2 + (pi b)^2).

    With the minimality radii a^2 + b^2 = 1 this is pi for every catalog
    cone (antipodal pairs in both factors realize it).
    """
    return math.sqrt((math.pi * c.a) ** 2 + (math.pi * c.b) ** 2)


# ---------------------------------------------------------------------------
# embedding-based numeric oracle for the link geometry
# ---------------------------------------------------------------------------

def _sphere_coords(u):
    """Point on the unit sphere S^d from d spherical angles."""
    u = np.asarray(u, dtype=float)
    d = u.size
    out = np.empty(d + 1)
    s = 1.0
    for i in range(d):
        out[i] = s * np.cos(u[i])
        s *= np.sin(u[i])
    out[d] = s
    return out


def _cone_immersion(c: ConeSpec):
    """Immersion (r, angles) -> R^{n+1} of the cone over S^p(a) x S^q(b)."""

    def immerse(x):
        r = x[0]
        u = x[1 : 1 + c.p]
        v = x[1 + c.p :]
        return r * np.concatenate((c.a * _sphere_coords(u), c.b * _sphere_coords(v)))

    return immerse


def embedded_link_shape(c: ConeSpec, r=1.0):
    """Numeric (mean curvature, |A|^2) of the cone hypersurface at radius r.

    Finite-difference first/second fundamental forms of the explicit
    immersion at the link angles 0.7 + 0.1 k, Richardson-extrapolated over
    steps (2h, h) with h = 1e-3 to push both
    truncation and rounding error below 1e-8.  At r = 1 the mean curvature
    equals that of the link inside S^n (the radial principal curvature
    vanishes).  Used as the oracle for minimality and second_form_norm2.
    """
    step = 1e-3
    coarse = _link_shape_fd(c, r, 2.0 * step)
    fine = _link_shape_fd(c, r, step)
    return tuple((4.0 * f - co) / 3.0 for f, co in zip(fine, coarse))


def _link_shape_fd(c: ConeSpec, r, step):
    dim = c.n
    immerse = _cone_immersion(c)
    x0 = np.concatenate(([r], 0.7 + 0.1 * np.arange(dim - 1)))
    _, jac, hess = central_jet(lambda offset: immerse(x0 + np.multiply(offset, step)), np.full(dim, step))

    gram = jac @ jac.T
    # unit normal: null direction of the Jacobian
    _, _, vt = np.linalg.svd(jac)
    nu = vt[-1]
    second = hess @ nu
    ginv = np.linalg.inv(gram)
    mean_curv = float(np.einsum("ij,ij->", ginv, second))
    a_norm2 = float(np.einsum("ik,jl,ij,kl->", ginv, ginv, second, second))
    return mean_curv, a_norm2
