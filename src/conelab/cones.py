"""Analytic catalog of minimal cones over products of round spheres.

A catalog cone C is the cone over S^p(a) x S^q(b) inside the unit sphere
S^n, with a = sqrt(p/(p+q)), b = sqrt(q/(p+q)) (the minimality condition)
and hypersurface dimension n = p + q + 1.  On these cones every radial
problem reduces to an exactly solvable Euler equation whose coefficients
are n and a2 = |A|^2 r^2 (``ConeSpec.a2``, which is p + q = n - 1 on a
product of spheres), which makes them independent oracles for the other
modules.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentDistanceError, DomainError
from .fields import round_sphere_factors, warped_product_metric
from .grids import AnalyticMetric, Chart, _is_index, _positive, conformal_coupling
from .jets import Jet


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
    def a2(self):
        """|A|^2 r^2, the constant that every radial reduction reads."""
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

    When an analytic 2-jet callable ``jet_fn`` (r -> Jet of (value, d/dr,
    d^2/dr^2)) is attached, residual checks use exact derivatives instead
    of stencils.
    """

    grid: np.ndarray
    values: np.ndarray
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


def _sphere_volume(d, radius):
    """Volume of the round d-sphere of given radius."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0) * radius**d


def make_cone(p, q):
    """Catalog constructor; radii fixed by minimality of the link."""
    if not (_is_index(p) and _is_index(q) and p >= 1 and q >= 1):
        raise DomainError(f"sphere factor dimensions must be integers >= 1, got ({p!r}, {q!r})")
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
    """|A|^2(r) = a2/r^2."""
    r = _positive(r, "radius")
    return c.a2 / r**2


def cone_scal(c: ConeSpec, r):
    """scal(r) = -|A|^2(r): Gauss equation with flat ambient and tr A = 0."""
    return -second_form_norm2(c, r)


# ---------------------------------------------------------------------------
# deformed cones (conformal factor r^alpha)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeformedCone:
    """The cone metric conformally deformed by u = r^alpha.

    The deformed metric is again a cone: d rho^2 + (m rho)^2 g_link with
    slope m = 1 + 2 alpha/(n-2) and rho the deformed distance to the tip.
    alpha = 0 is the undeformed cone.
    """

    base: ConeSpec
    alpha: float

    def __post_init__(self):
        n = self.base.n
        if not (-(n - 2) / 2.0 < self.alpha <= 0.0):
            raise DomainError("alpha must lie in (-(n-2)/2, 0]")

    @property
    def slope(self):
        """m = 1 + 2 alpha/(n-2): opening slope of the deformed cone."""
        return 1.0 + 2.0 * self.alpha / (self.base.n - 2.0)

    def rho_of_r(self, r):
        """Deformed distance to the tip as a function of the original radius."""
        return deformed_distance(self.base, self.alpha, r)

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
    return warped_product_metric(chart, lambda t: Jet(m * t, m + 0.0 * t, 0.0 * t), core)


def deformed_distance(c: ConeSpec, beta, r):
    """Distance to the tip in the metric deformed by r^beta:
    rho = t^{1+2 beta/(n-2)} / (1 + 2 beta/(n-2)) at t = r."""
    e = 1.0 + 2.0 * beta / (c.n - 2.0)
    if e <= 0:
        raise DivergentDistanceError(
            f"exponent 1+2beta/(n-2) = {e} <= 0: factor not integrable at the tip"
        )
    r = _positive(r, "radius")
    return r**e / e

