"""Green's-function barriers on deformed cones.

Elementary barriers are truncated multiples of the radial Green's function
rho^{-(n-2)}; conformally deforming by phi+ = mu * green * chi + 1 pushes
area minimizers off the tip.  The module measures the truncation penalty,
the deflection radius Theta_mu and its scaling law, superposes elementary
barriers along an axis Riemann--Stieltjes style, and runs tube
mean-curvature checks on the superposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gamma as gamma_fn

from .cones import DeformedCone, RadialProfile
from .errors import (
    DomainError,
    IterationLimitError,
    NoBarrierError,
    ParameterError,
    ResampleError,
    SingularPointError,
)
from .grids import central_jet, conformal_coupling, conformal_shape_shift
from .jets import Jet, jet_power, radial_laplacian
from .perron import CutoffSpec

#: default sample band for scal and residual checks (deformed distance)
_BAND = (1e-3, 10.0)


# ---------------------------------------------------------------------------
# Green's function and its harmonicity on deformed cones
# ---------------------------------------------------------------------------

def green(n, rho):
    """Radial Green's function rho^{-(n-2)} of the deformed-cone Laplacian."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise DomainError("deformed distance must be positive")
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

@dataclass(frozen=True)
class BarrierSpec:
    """Truncated elementary barrier phi+ = mu * green * chi(rho - 1) + 1.

    The cutoff acts on the shell rho in [1, 2]; inside B_1 the profile is
    the exact Green multiple plus one, outside B_2 it is constant 1."""

    deformed: DeformedCone
    mu: float
    cutoff: CutoffSpec

    def __post_init__(self):
        if self.mu < 0:
            raise ParameterError("barrier weight mu must be >= 0")

    @property
    def n(self):
        return self.deformed.base.n

    def jet(self, rho):
        """Piecewise-analytic 2-jet of phi+ (one-sided at the shell edges)."""
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0):
            raise DomainError("deformed distance must be positive")
        g = jet_power(rho, -(self.n - 2.0))
        # clamping the cutoff argument to 0 below the shell freezes chi at 1
        # with zero derivatives, reproducing the exact piecewise definition
        t = np.clip(rho - 1.0, 0.0, None)
        inside = rho < 1.0
        targ = Jet(t, np.where(inside, 0.0, 1.0), np.zeros_like(t))
        chi_outer = self.cutoff.jet(targ.f)
        chi = Jet(chi_outer.f, chi_outer.d1 * targ.d1, chi_outer.d2 * targ.d1**2)
        return g * chi * self.mu + 1.0


def truncate(b: BarrierSpec):
    """phi+_mu as a RadialProfile together with its truncation-penalty report.

    The penalty is the sup of |Delta phi+| over the shell, which is exactly
    linear in mu; the report also states the scal deficit the transformation
    law attributes to it, in the scale-free form coupling * rho^2 |Delta u|/u.
    """
    n = b.n
    rho = np.geomspace(1e-3, 10.0, 4000)
    j = b.jet(rho)
    prof = RadialProfile(rho, j.f, tag="conformal-factor", jet_fn=b.jet)

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
    """Largest mu keeping scal(hat g) >= iota_H / (2 rho_hat^2) on the band,
    found by bisection (the threshold constants are not given in closed
    form anywhere; this makes the quantifier executable)."""
    iota = d.scal_rho2()
    if iota <= 0:
        raise NoBarrierError("deformed cone must have positive scal for a barrier")
    rho = np.geomspace(band[0], band[1], 2000)

    def ok(mu):
        if mu == 0:
            return True
        q = scal_quantity(BarrierSpec(deformed=d, mu=mu, cutoff=cutoff), rho)
        return bool(np.all(q >= iota / 2.0))

    hi = 1.0
    tries = 0
    while ok(hi):
        hi *= 2.0
        tries += 1
        if tries > 60:
            raise IterationLimitError(
                f"every mu up to {hi} keeps the threshold on {band}: no finite mu_h"
            )
    lo = 0.0
    while hi - lo > 1e-10 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# obstacle reduction and deflection radius
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstacleProblem:
    """Radial reduction of the two-obstacle area problem: minimize the area
    profile over sphere radii between the inner and outer obstacle."""

    inner: float
    outer: float
    area: object  # callable rho -> A(rho) > 0

    def __post_init__(self):
        if not (0 < self.inner < self.outer):
            raise DomainError("need 0 < inner < outer")
        probes = np.geomspace(self.inner, self.outer, 64)
        if np.any(np.asarray([self.area(p) for p in probes]) <= 0):
            raise DomainError("area profile must be positive")

    def minimizer_radius(self):
        res = minimize_scalar(
            self.area, bounds=(self.inner, self.outer), method="bounded",
            options={"xatol": 1e-10},
        )
        return float(res.x)


def area_profile(b: BarrierSpec, rho):
    """A(rho) = (phi+)^{2(n-1)/(n-2)} rho^{n-1} vol(link) for the deformed
    cone's link."""
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr <= 0):
        raise DomainError("rho must be positive")
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


def deflection_radius(b: BarrierSpec, bracket=(1e-6, 10.0)):
    """Smallest rho where the inward mean curvature of S_rho flips from
    positive (barrier side) to negative; agrees with the stationary radius
    of the area profile.  The 400-rung geometric ladder over the bracket is
    traced in one call; brentq refines its first flip."""
    if b.mu <= 0:
        raise NoBarrierError("deflection radius needs mu > 0")
    lo, hi = bracket
    if min(lo, hi) <= 0:
        raise DomainError(f"deflection bracket {bracket} must be positive")
    ladder = np.geomspace(lo, hi, 400)  # ladder[0] == lo exactly
    vals = sphere_trace(b, ladder)
    if vals[0] <= 0:
        raise NoBarrierError(f"no barrier side at rho = {lo}")
    flips = np.flatnonzero((vals[:-1] > 0) & (vals[1:] <= 0))
    if flips.size == 0:
        raise NoBarrierError(f"no sign change of the sphere trace on {bracket}")
    i = flips[0]
    return float(brentq(lambda r: sphere_trace(b, r), ladder[i], ladder[i + 1], xtol=1e-14))


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
    weight_cap: float = 10.0

    def __post_init__(self):
        if self.n < 5:
            raise DomainError("ambient dimension must be >= 5")
        if self.level < 1:
            raise ParameterError("discretization level must be >= 1")
        if any(p.weight <= 0 for p in self.points):
            raise ParameterError("weights must be positive")
        total = sum(p.weight for p in self.points)
        if total > self.weight_cap:
            raise ParameterError(
                f"total weight {total} exceeds the cap {self.weight_cap}"
            )


def sphere_distance(omega, p):
    """Geodesic distance on the round unit sphere between unit vectors."""
    return float(np.arccos(np.clip(np.dot(omega, p), -1.0, 1.0)))


def line_barrier(ls: LineBarrierSpec, x):
    """The anchored sum of shifted-exponent line Green's functions plus 1.

    x = (omega, t) on S^{n-1} x R; the distance to an anchored axis {p} x R
    is the sphere distance from omega to p (independent of t)."""
    omega, _t = x
    omega = np.asarray(omega, dtype=float)
    total = 1.0
    for pt in ls.points:
        dist = sphere_distance(omega, pt.unit())
        if dist < 1e-9:
            raise SingularPointError("evaluation point lies on an anchored axis")
        total += pt.weight / dist ** line_exponent(ls.n, pt.beta)
    return total


def _axis_kernel_constant(e_line):
    """c(e) = integral (1+s^2)^{-(e+1)/2} ds, normalizing point kernels so the
    full-axis superposition reproduces the d^{-e} line kernel."""
    e_pt = e_line + 1.0
    return math.sqrt(math.pi) * gamma_fn((e_pt - 1.0) / 2.0) / gamma_fn(e_pt / 2.0)


@dataclass(frozen=True)
class Superposition:
    """Left-endpoint Riemann--Stieltjes sum of elementary point barriers
    anchored along {p} x segment."""

    spec: LineBarrierSpec
    segment: tuple = (0.0, 1.0)

    def stations(self):
        a, b_end = self.segment
        l = self.spec.level
        count = max(1, int(round((b_end - a) * l)))
        return a + np.arange(count) / l

    def __call__(self, omega, t):
        omega = np.asarray(omega, dtype=float)
        t = float(t)
        ts = self.stations()
        total = 1.0
        for pt in self.spec.points:
            dist = sphere_distance(omega, pt.unit())
            if dist < 1e-9:
                raise SingularPointError("evaluation point lies on an anchored axis")
            e_line = line_exponent(self.spec.n, pt.beta)
            cn = _axis_kernel_constant(e_line)
            kern = (dist**2 + (t - ts) ** 2) ** (-(e_line + 1.0) / 2.0)
            total += pt.weight / (self.spec.level * cn) * float(np.sum(kern))
        return total

    def segment_limit(self, omega, t):
        """Exact l -> infinity limit: quadrature of the same truncated kernel
        (independent oracle for the Riemann-sum convergence order)."""
        from scipy.integrate import quad

        omega = np.asarray(omega, dtype=float)
        total = 1.0
        for pt in self.spec.points:
            dist = sphere_distance(omega, pt.unit())
            e_line = line_exponent(self.spec.n, pt.beta)
            cn = _axis_kernel_constant(e_line)
            val, _ = quad(
                lambda s: (dist**2 + (t - s) ** 2) ** (-(e_line + 1.0) / 2.0),
                self.segment[0],
                self.segment[1],
                epsabs=1e-13,
                epsrel=1e-13,
            )
            total += pt.weight * val / cn
        return total


def stieltjes_superpose(ls: LineBarrierSpec, segment=(0.0, 1.0)) -> Superposition:
    if not segment[0] < segment[1]:
        raise DomainError("segment must be nondegenerate")
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

    Returns (ok, margin) with margin the minimal sampled trace.  Samples sit
    on axial x transverse stations; if the check fails it is repeated once
    at twice the resolution in both (the resolution policy) and that pass
    decides.  Directions hitting another anchored axis raise a resample
    error."""
    ls = superposition.spec
    if not ls.points:
        raise DomainError("superposition needs at least one anchor")
    rho = float(tube_radius)
    if not (0 < rho < np.pi / 2):
        raise DomainError("tube radius must lie in (0, pi/2)")
    n = ls.n
    p = ls.points[0].unit()

    basis = _orthonormal_complement(p)
    a0, b0 = superposition.segment
    coupling_half = float(1 / (2 * conformal_coupling(n)))

    for scale in (1, 2):
        rng = np.random.default_rng(seed)
        axial = scale * axial_samples
        t_vals = a0 + (np.arange(axial) + 0.5) / axial * (b0 - a0)
        margin = np.inf
        for _ in range(scale * transverse_samples):
            coeff = rng.normal(size=n - 1)
            v = basis.T @ (coeff / np.linalg.norm(coeff))
            omega = lambda r: np.cos(r) * p + np.sin(r) * v
            for other in ls.points[1:]:
                if sphere_distance(omega(rho), other.unit()) < 10 * _FD_STEP:
                    raise ResampleError("transverse sample hit another anchored axis")
            for t in t_vals:
                u0 = superposition(omega(rho), t)
                up = superposition(omega(rho + _FD_STEP), t)
                um = superposition(omega(rho - _FD_STEP), t)
                du = (up - um) / (2 * _FD_STEP)
                trace = -(n - 2.0) / np.tan(rho) + coupling_half * (-du) / u0
                margin = min(margin, trace)
        ok = margin > 0
        if ok:
            break
    return ok, float(margin)


def _orthonormal_complement(p):
    """Rows span the orthogonal complement of the unit vector p."""
    n = p.size
    mat = np.eye(n) - np.outer(p, p)
    q, r = np.linalg.qr(mat)
    cols = np.where(np.abs(np.diag(r)) > 1e-10)[0]
    return q[:, cols].T


# ---------------------------------------------------------------------------
# dimension-shift margin
# ---------------------------------------------------------------------------

def dimshift_margin_exact(n):
    """kappa_n - kappa_{n-1} as an exact rational; equals 1/(4(n-1)(n-2))."""
    if n < 4:
        raise DomainError("need n >= 4 for the dimension shift")
    return conformal_coupling(n) - conformal_coupling(n - 1)


def dimshift_scal_sign(c_value, n, a=1.0):
    """Sign report for dropping the radial dimension in the link equation.

    The coupling gap kappa_n - kappa_{n-1} is exactly 1/(4(n-1)(n-2)); for
    the constant link mode the residual of the lower-dimensional operator
    shifts by exactly -(kappa_n - kappa_{n-1}) a^2 c, so positive c means
    the (n-1)-dimensional residual moves strictly negative (the inequality
    the barrier anchoring needs)."""
    gap = dimshift_margin_exact(n)
    margin = float(gap) * a**2 * float(c_value)
    return {
        "n": n,
        "kappa_n": conformal_coupling(n),
        "kappa_prev": conformal_coupling(n - 1),
        "margin_coefficient": gap,
        "margin": margin,
        "residual_shift": -margin,
        "sign": "negative" if margin > 0 else "nonnegative",
    }


def dimshift_table(n_range=range(5, 13)):
    """Exact margin table; the n^2-scaled margins approach 1/4 from below."""
    return [
        {
            "n": n,
            "margin_coefficient": dimshift_margin_exact(n),
            "n2_scaled": dimshift_margin_exact(n) * n * n,
        }
        for n in n_range
    ]
