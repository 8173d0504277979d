"""Green's-function barriers on deformed cones.

Elementary barriers are truncated multiples of the radial Green's function
rho^{-(n-2)}; conformally deforming by phi+ = mu * green * chi + 1 pushes
area minimizers off the tip.  The module measures the truncation penalty,
the threshold weight mu_h (in closed form: the scal condition is linear in
mu at each sample), the deflection radius Theta_mu and its scaling law,
superposes elementary barriers along an axis Riemann--Stieltjes style over
arrays of points (one anchor kernel gives the distances to every anchored
axis), and runs tube mean-curvature checks on the superposition in one
pass, one call per stencil offset.

The two 1-D searches are vectorized ladders refined in plain Python: the
deflection radius by Brent's method on the sphere trace, the obstacle
minimizer by narrowing ladders of the area profile.  Only the quadrature
oracle ``Superposition.segment_limit`` loads scipy (``scipy.integrate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import DeformedCone, RadialProfile
from .errors import (
    DomainError,
    IterationLimitError,
    NoBarrierError,
    ParameterError,
    ResampleError,
    SingularPointError,
)
from .grids import _is_index, _positive, _positive_interval, central_jet, conformal_coupling, conformal_shape_shift
from .jets import Jet, jet_compose, jet_power, radial_laplacian
from .perron import CutoffSpec

#: default sample band for scal and residual checks (deformed distance)
_BAND = (1e-3, 10.0)
#: cap on the total anchor weight of a line barrier
_WEIGHT_CAP = 10.0
#: cap on the Riemann--Stieltjes stations of a superposition (8 MB of
#: kernel values per evaluated point)
_MAX_STATIONS = 2**20
#: step cap of the two 1-D searches, as in scipy's brentq: bisection ends
#: any root bracket in about 52 steps, and an area ladder narrows an
#: interval about 31-fold a step
_SEARCH_STEPS = 100
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Green's function and its harmonicity on deformed cones
# ---------------------------------------------------------------------------

def green(n, rho):
    """Radial Green's function rho^{-(n-2)} of the deformed-cone Laplacian."""
    rho = _positive(rho, "deformed distance")
    return rho ** -(n - 2.0)


def green_laplacian_residual(d: DeformedCone, step=None):
    """Sup of the relative residual |Delta green| on [0.1, 10].

    The radial Laplacian of the deformed cone is f'' + (n-1)/rho f', for
    which green is exactly harmonic.  With ``step`` set, derivatives come
    from second-order central stencils instead of the analytic jet, so the
    returned residual measures the stencil error (O(step^2))."""
    n = d.base.n
    rho = np.geomspace(0.1, 10.0, 200)
    if step is None:
        j = jet_power(rho, -(n - 2.0))
    else:
        h = float(step)
        f, d1, d2 = central_jet(lambda offset: (rho + offset[0] * h) ** -(n - 2.0), [h])
        j = Jet(f, d1[0], d2[0, 0])
    lap = radial_laplacian(j, rho, n)
    scale = (n - 1.0) * (n - 2.0) * rho ** -float(n)  # size of either term
    return float(np.max(np.abs(lap) / scale))


# ---------------------------------------------------------------------------
# elementary barriers
# ---------------------------------------------------------------------------

def _green_cutoff_jet(n, cutoff: CutoffSpec, rho):
    """2-jet of green * chi(rho - 1) >= 0, the profile that a barrier
    weights by mu (one-sided at the shell edges)."""
    rho = _positive(rho, "deformed distance")
    g = jet_power(rho, -(n - 2.0))
    # clamping the cutoff argument to 0 below the shell freezes chi at 1
    # with zero derivatives, reproducing the exact piecewise definition
    t = np.clip(rho - 1.0, 0.0, None)
    inside = rho < 1.0
    return g * jet_compose(cutoff.jet, Jet(t, np.where(inside, 0.0, 1.0), np.zeros_like(t)))


@dataclass(frozen=True)
class BarrierSpec:
    """Truncated elementary barrier phi+ = mu * green * chi(rho - 1) + 1.

    The cutoff acts on the shell rho in [1, 2]; inside B_1 the profile is
    the exact Green multiple plus one, outside B_2 it is constant 1."""

    deformed: DeformedCone
    mu: float
    cutoff: CutoffSpec

    def __post_init__(self):
        if not 0 <= self.mu < np.inf:
            raise ParameterError(f"barrier weight mu must be finite and >= 0, got {self.mu!r}")

    @property
    def n(self):
        return self.deformed.base.n

    def jet(self, rho):
        """Piecewise-analytic 2-jet of phi+ (one-sided at the shell edges)."""
        return _green_cutoff_jet(self.n, self.cutoff, rho) * self.mu + 1.0


def truncate(b: BarrierSpec):
    """phi+_mu as a RadialProfile together with its truncation-penalty report.

    The penalty is the sup of |Delta phi+| over the shell, which is exactly
    linear in mu; the report also states the scal deficit the transformation
    law attributes to it, in the scale-free form coupling * rho^2 |Delta u|/u.
    """
    n = b.n
    rho = np.geomspace(1e-3, 10.0, 4000)
    j = b.jet(rho)
    prof = RadialProfile(rho, j.f, jet_fn=b.jet)

    shell = np.linspace(1.0 + 1e-9, 2.0 - 1e-9, 2000)
    js = b.jet(shell)
    lap = radial_laplacian(js, shell, n)
    sup_pen = float(np.max(np.abs(lap)))
    coupling = float(1 / conformal_coupling(n))
    deficit = float(np.max(coupling * shell**2 * np.abs(lap) / js.f))
    report = {
        "sup_penalty": sup_pen,
        "penalty_per_mu": sup_pen / b.mu if b.mu > 0 else 0.0,
        "scal_deficit": deficit,
        "shell": (1.0, 2.0),
    }
    return prof, report


def scal_quantity(b: BarrierSpec, rho):
    """Scale-free scal of the barrier-deformed metric.

    In the stretched radial gauge rho_hat = rho * u^{2/(n-2)} (the distance
    scale of the new metric), scal(hat g) * rho_hat^2 equals
    (scal - coupling * Delta u / u) * rho^2 with everything computed in the
    undeformed gauge; positivity thresholds compare against iota_H/2."""
    j = b.jet(rho)
    lap = radial_laplacian(j, np.asarray(rho, dtype=float), b.n)
    coupling = float(1 / conformal_coupling(b.n))
    return b.deformed.scal_rho2() - coupling * np.asarray(rho) ** 2 * lap / j.f


def mu_h(d: DeformedCone, cutoff: CutoffSpec, band=_BAND):
    """Largest mu keeping scal(hat g) >= iota_H / (2 rho_hat^2) at 2000
    geometric samples of the band, in closed form.

    With G = green * chi >= 0 the barrier is u = 1 + mu G and Delta u =
    mu Delta G, so at each sample the condition scal_quantity >= iota/2 reads
    mu (coupling rho^2 Delta G - iota/2 G) <= iota/2: mu_h is the least
    bound over the samples with a positive slope.  A band on which no slope
    is positive (inside B_1 green is harmonic) has no finite mu_h."""
    lo, hi = _positive_interval(band, "mu_h band")
    iota = d.scal_rho2()
    if iota <= 0:
        raise NoBarrierError("deformed cone must have positive scal for a barrier")
    rho = np.geomspace(lo, hi, 2000)
    n = d.base.n
    shape = _green_cutoff_jet(n, cutoff, rho)
    coupling = float(1 / conformal_coupling(n))
    slope = coupling * rho**2 * radial_laplacian(shape, rho, n) - iota / 2.0 * shape.f
    if not np.any(slope > 0):
        raise DomainError(f"every mu keeps the threshold on {band}: no finite mu_h")
    return float(np.min(iota / 2.0 / slope[slope > 0]))


# ---------------------------------------------------------------------------
# obstacle reduction and deflection radius
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstacleProblem:
    """Radial reduction of the two-obstacle area problem: minimize the area
    profile over sphere radii between the inner and outer obstacle."""

    inner: float
    outer: float
    area: object  # vectorized callable rho -> A(rho) > 0

    def __post_init__(self):
        _positive_interval((self.inner, self.outer), "obstacle radii")
        probes = np.geomspace(self.inner, self.outer, 64)
        if np.any(np.asarray(self.area(probes)) <= 0):
            raise DomainError("area profile must be positive")

    def minimizer_radius(self):
        """Radius of least sampled area on [inner, outer].

        A 64-rung geometric ladder over the obstacles is evaluated in one
        area call and narrowed to the two rungs around its argmin, until
        the interval is below 1e-10 + 4 eps rho.  Each narrower interval
        gets an evenly spaced ladder: geomspace's interior rungs are off by
        about eps |log rho| relative, more than that width.  The least rung
        of the last ladder is returned, so a minimum at an obstacle stays
        on it."""
        rungs = np.geomspace(self.inner, self.outer, 64)  # endpoints exact
        for _ in range(_SEARCH_STEPS):
            k = int(np.argmin(self.area(rungs)))
            lo, hi = rungs[max(k - 1, 0)], rungs[min(k + 1, 63)]
            if hi - lo <= 1e-10 + 4.0 * _EPS * hi:
                return float(rungs[k])
            rungs = np.linspace(lo, hi, 64)
        raise IterationLimitError(f"no minimizer to 1e-10 after {_SEARCH_STEPS} ladders")


def area_profile(b: BarrierSpec, rho):
    """A(rho) = (phi+)^{2(n-1)/(n-2)} rho^{n-1} vol(link) for the deformed
    cone's link."""
    rho_arr = np.asarray(rho, dtype=float)
    n = b.n
    vol = b.deformed.base.link_volume * b.deformed.slope ** (n - 1)
    u = b.jet(rho_arr).f
    return u ** (2.0 * (n - 1.0) / (n - 2.0)) * rho_arr ** (n - 1.0) * vol


def sphere_trace(b: BarrierSpec, rho):
    """Trace of the conformally shifted second form of the distance sphere
    S_rho (radial normal convention matching conformal_shape_shift: the
    plain cone gives -(n-1)/rho, the barrier side +(n-1)/rho).

    A scalar rho returns a Python float; an array rho returns the traces
    at every entry from one evaluation of the barrier jet."""
    n = b.n
    r = np.atleast_1d(np.asarray(rho, dtype=float))
    j = b.jet(r)
    a_form = -(1.0 / r)[:, None, None] * np.eye(n - 1)
    grad_u = np.zeros(r.shape + (n,))
    grad_u[:, 0] = j.d1
    shifted = conformal_shape_shift(a_form, np.eye(n - 1), j.f, grad_u, np.eye(n)[0], n)
    trace = np.trace(shifted, axis1=-2, axis2=-1)
    return float(trace[0]) if np.ndim(rho) == 0 else trace.reshape(np.shape(rho))


def _brent_root(f, a, b, fa, fb, xtol):
    """Zero of f between a and b, given fa = f(a) and fb = f(b) of opposite
    signs (or one of them zero), by Brent's method (Brent 1973, ch. 4).

    Each step evaluates f once: at a secant or inverse quadratic step when
    that step stays well inside the bracket, at the bisection point
    otherwise.  The search ends when f vanishes at the best point or the
    bracket is below xtol + 4 eps |x|; the relative part keeps the search
    finite where ulp(x) exceeds xtol."""
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0:
        return xpre
    xblk = fblk = spre = scur = 0.0
    for _ in range(_SEARCH_STEPS):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur becomes the best point
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4.0 * _EPS * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        good = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic through the three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            good = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if good else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise IterationLimitError(f"no root to {xtol} on [{a}, {b}] after {_SEARCH_STEPS} steps")


def deflection_radius(b: BarrierSpec, bracket=(1e-6, 10.0)):
    """Smallest rho where the inward mean curvature of S_rho flips from
    positive (barrier side) to negative; agrees with the stationary radius
    of the area profile.  The 400-rung geometric ladder over the bracket is
    traced in one call; Brent's method refines its first flip from the two
    rung traces, to 1e-14 + 4 eps rho, one scalar trace a step."""
    if b.mu <= 0:
        raise NoBarrierError("deflection radius needs mu > 0")
    lo, hi = _positive_interval(bracket, "deflection bracket")
    ladder = np.geomspace(lo, hi, 400)  # ladder[0] == lo exactly
    vals = sphere_trace(b, ladder)
    if vals[0] <= 0:
        raise NoBarrierError(f"no barrier side at rho = {lo}")
    flips = np.flatnonzero((vals[:-1] > 0) & (vals[1:] <= 0))
    if flips.size == 0:
        raise NoBarrierError(f"no sign change of the sphere trace on {bracket}")
    i = flips[0]
    return _brent_root(lambda r: sphere_trace(b, r), float(ladder[i]), float(ladder[i + 1]),
                       float(vals[i]), float(vals[i + 1]), xtol=1e-14)


# ---------------------------------------------------------------------------
# line barriers on the cylinder link x R
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinePoint:
    """An anchor direction on the round S^{n-1} with weight and exponent shift."""

    direction: tuple
    weight: float
    beta: float = 0.0

    def unit(self):
        v = np.asarray(self.direction, dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise DomainError("anchor direction must be nonzero")
        return v / norm


def line_exponent(n, beta):
    """Shifted codimension-(n-1) decay exponent n-3-2 beta/(n+beta-2)."""
    denom = n + beta - 2.0
    if denom <= 0:
        raise ParameterError("beta too negative for the exponent shift")
    return n - 3.0 - 2.0 * beta / denom


@dataclass(frozen=True)
class LineBarrierSpec:
    """Axis-anchored barrier data: anchor points with weights, exponent
    shifts, and the Riemann--Stieltjes discretization level."""

    n: int
    points: tuple
    level: int = 64

    def __post_init__(self):
        if self.n < 5:
            raise DomainError("ambient dimension must be >= 5")
        if not _is_index(self.level) or self.level < 1:
            raise ParameterError(f"discretization level must be an integer >= 1, got {self.level!r}")
        if any(np.shape(p.direction) != (self.n,) for p in self.points):
            raise DomainError(f"anchor directions must have length n = {self.n}")
        if not all(0 < p.weight < np.inf for p in self.points):
            raise ParameterError("weights must be positive and finite")
        total = sum(p.weight for p in self.points)
        if total > _WEIGHT_CAP:
            raise ParameterError(f"total weight {total} exceeds the cap {_WEIGHT_CAP}")

    def units(self):
        """(anchors, n) unit directions of the anchored axes."""
        return np.array([pt.unit() for pt in self.points]).reshape(len(self.points), self.n)


def sphere_distance(omega, p):
    """Geodesic distance on the round unit sphere between unit vectors
    omega (..., n) and p (..., n); ``np.vecdot`` rounds each pair as
    ``np.dot`` does, whatever the batch.  One pair returns a Python float."""
    dist = np.arccos(np.clip(np.vecdot(omega, p), -1.0, 1.0))
    return float(dist) if dist.ndim == 0 else dist


def _anchor_distances(ls: LineBarrierSpec, omega):
    """Sphere distances (..., anchors) from directions omega (..., n) to
    every anchored axis; a direction on an axis is a singular point."""
    omega = np.asarray(omega, dtype=float)
    dist = sphere_distance(omega[..., None, :], ls.units())
    if np.any(dist < 1e-9):
        raise SingularPointError("evaluation point lies on an anchored axis")
    return dist


def line_barrier(ls: LineBarrierSpec, x):
    """The anchored sum of shifted-exponent line Green's functions plus 1.

    x = (omega, t) on S^{n-1} x R; the distance to an anchored axis {p} x R
    is the sphere distance from omega to p (independent of t)."""
    omega, _t = x
    total = 1.0
    for pt, dist in zip(ls.points, _anchor_distances(ls, omega).tolist()):
        total += pt.weight / dist ** line_exponent(ls.n, pt.beta)
    return total


def _axis_kernel_constant(e_line):
    """c(e) = integral (1+s^2)^{-(e+1)/2} ds, normalizing point kernels so the
    full-axis superposition reproduces the d^{-e} line kernel."""
    e_pt = e_line + 1.0
    return math.sqrt(math.pi) * math.gamma((e_pt - 1.0) / 2.0) / math.gamma(e_pt / 2.0)


@dataclass(frozen=True)
class Superposition:
    """Left-endpoint Riemann--Stieltjes sum of elementary point barriers
    anchored along {p} x segment."""

    spec: LineBarrierSpec
    segment: tuple = (0.0, 1.0)

    def __post_init__(self):
        segment = self.segment
        if not -np.inf < segment[0] < segment[1] < np.inf:
            raise DomainError(f"segment {segment} must be finite and nondegenerate")
        if round((segment[1] - segment[0]) * self.spec.level) > _MAX_STATIONS:
            raise ParameterError(f"segment {segment} at level {self.spec.level} exceeds {_MAX_STATIONS} stations")

    def stations(self):
        a, b_end = self.segment
        l = self.spec.level
        count = max(1, int(round((b_end - a) * l)))
        return a + np.arange(count) / l

    def __call__(self, omega, t):
        """The sum at directions omega (..., n) and heights t (...), broadcast."""
        dist = _anchor_distances(self.spec, omega)
        gap2 = (np.asarray(t, dtype=float)[..., None] - self.stations()) ** 2
        total = 1.0
        for k, pt in enumerate(self.spec.points):
            e_line = line_exponent(self.spec.n, pt.beta)
            cn = _axis_kernel_constant(e_line)
            kern = (dist[..., k, None] ** 2 + gap2) ** (-(e_line + 1.0) / 2.0)
            total = total + pt.weight / (self.spec.level * cn) * kern.sum(-1)
        return float(total) if np.ndim(total) == 0 else total

    def segment_limit(self, omega, t):
        """Exact l -> infinity limit: quadrature of the same truncated kernel
        (independent oracle for the Riemann-sum convergence order)."""
        from scipy.integrate import quad

        total = 1.0
        for pt, dist in zip(self.spec.points, _anchor_distances(self.spec, omega).tolist()):
            e_line = line_exponent(self.spec.n, pt.beta)
            cn = _axis_kernel_constant(e_line)
            val, _ = quad(lambda s: (dist**2 + (t - s) ** 2) ** (-(e_line + 1.0) / 2.0),
                          *self.segment, epsabs=1e-13, epsrel=1e-13)
            total += pt.weight * val / cn
        return total


def stieltjes_superpose(ls: LineBarrierSpec, segment=(0.0, 1.0)) -> Superposition:
    return Superposition(spec=ls, segment=segment)


# ---------------------------------------------------------------------------
# tube mean-curvature checks
# ---------------------------------------------------------------------------

_FD_STEP = 1e-5


def tube_barrier_check(
    superposition: Superposition,
    tube_radius,
    axial_samples=64,
    transverse_samples=64,
    seed=0,
):
    """Check that the conformally deformed tube around the first anchored
    axis has strictly positive inward mean curvature at every sample.

    Returns (ok, margin) with margin the minimal sampled trace over
    axial x transverse stations, from one pass: a negative sampled trace
    already witnesses the failure.  Directions hitting another anchored
    axis raise a resample error."""
    ls = superposition.spec
    if not ls.points:
        raise DomainError("superposition needs at least one anchor")
    rho = float(tube_radius)
    if not (0 < rho < np.pi / 2):
        raise DomainError("tube radius must lie in (0, pi/2)")
    counts = (axial_samples, transverse_samples)
    if not all(map(_is_index, counts)) or min(counts) < 1:
        raise ParameterError(f"tube sample counts must be integers >= 1, got {counts}")
    n = ls.n
    units = ls.units()
    p, others = units[0], units[1:]
    basis = _orthonormal_complement(p)
    a0, b0 = superposition.segment
    coupling_half = float(1 / (2 * conformal_coupling(n)))

    rng = np.random.default_rng(seed)
    t_vals = a0 + (np.arange(axial_samples) + 0.5) / axial_samples * (b0 - a0)
    coeff = rng.normal(size=(transverse_samples, n - 1))
    # each row is normalized and mapped by its own dot and gemv, so a
    # sample rounds as it would alone; v is (samples, 1, n)
    unit = coeff / np.sqrt(np.vecdot(coeff, coeff))[:, None]
    v = (basis.T @ unit[:, :, None]).transpose(0, 2, 1)
    omega = lambda r: np.cos(r) * p + np.sin(r) * v
    if np.any(sphere_distance(omega(rho), others) < 10 * _FD_STEP):
        raise ResampleError("transverse sample hit another anchored axis")
    at = lambda off: superposition(omega(rho + off[0] * _FD_STEP), t_vals)
    u0, du, _ = central_jet(at, [_FD_STEP])
    margin = (-(n - 2.0) / np.tan(rho) + coupling_half * (-du[0]) / u0).min()
    return margin > 0, float(margin)


def _orthonormal_complement(p):
    """Rows span the orthogonal complement of the unit vector p."""
    n = p.size
    mat = np.eye(n) - np.outer(p, p)
    q, r = np.linalg.qr(mat)
    cols = np.where(np.abs(np.diag(r)) > 1e-10)[0]
    return q[:, cols].T

