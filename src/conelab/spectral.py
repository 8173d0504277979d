"""Weighted conformal-Laplacian eigenvalues on catalog cones.

The radially reduced problem on an annulus [r_in, r_out] is

    -(r^{n-1} u')' + kappa * scal * r^{n-1} u = lambda * weight * r^{n-1} u

with weight(r) = (eps^2 + p + q)/r^2.  In the logarithmic variable
s = ln r and with v = r^{(n-2)/2} u this becomes the constant-coefficient
Schroedinger form

    -v'' + [ (n-2)^2/4 - kappa (p+q) ] v = lambda (eps^2 + p + q) v,

which the finite-difference solver discretizes.  A ``WeightedProblem``
fixes only the outer radius r_out: its Dirichlet problems run on the
exhaustion annuli K_m = [r_out 4^{-m}, r_out], m = 1, 2, ..., whose inner
radii tend to the tip.  The independent shooting cross-check lives with
the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import ConeSpec, RadialProfile, cone_scal, second_form_norm2
from .errors import ConvergenceError, DomainError, OutOfBandError, ParameterError
from .grids import _is_index, _positive
from .jets import Jet, jet_power, radial_laplacian

#: nodes per finite-difference eigensolve
_NODES = 2000


@dataclass(frozen=True)
class WeightedProblem:
    """Weighted eigenproblem data: the exhaustion annuli K_m all end at the
    outer radius ``r_out`` (see ``exhaustion_annulus``)."""

    cone: ConeSpec
    eps: float
    r_out: float

    def __post_init__(self):
        if not 0 < self.r_out < np.inf:
            raise DomainError(f"outer radius must be positive and finite, got {self.r_out!r}")
        if not 0 <= self.eps < np.inf:
            raise DomainError(f"eps must be finite and >= 0, got {self.eps!r}")

    @property
    def kappa(self):
        return self.cone.kappa


@dataclass(frozen=True)
class EigenResult:
    lam: float
    profile: RadialProfile
    m: int

    def __post_init__(self):
        interior = self.profile.values[1:-1]
        if interior.size and interior.min() <= 0:
            raise DomainError("first eigenfunction must be interior-positive")


def weight(c: ConeSpec, eps, r):
    """Smoothed weight (eps^2 + p + q)/r^2 (distance to the tip is r)."""
    r = _positive(r, "radius")
    return (eps**2 + c.p + c.q) / r**2


def rayleigh(c: ConeSpec, f: RadialProfile, eps):
    """Weighted Rayleigh quotient of a compactly supported radial profile."""
    r, v = f.grid, f.values
    if abs(v[0]) > 1e-13 * max(1.0, np.abs(v).max()) or abs(v[-1]) > 1e-13 * max(
        1.0, np.abs(v).max()
    ):
        raise DomainError("test profile must vanish at both annulus ends")
    n = c.n
    dv = np.gradient(v, r, edge_order=1)
    num = np.trapezoid(dv**2 * r ** (n - 1), r) + c.kappa * np.trapezoid(
        cone_scal(c, r) * v**2 * r ** (n - 1), r
    )
    den = np.trapezoid(weight(c, eps, r) * v**2 * r ** (n - 1), r)
    if den <= 1e-300:
        raise DomainError("degenerate test function: zero weighted norm")
    return num / den


# ---------------------------------------------------------------------------
# Dirichlet eigenproblem on exhausting annuli
# ---------------------------------------------------------------------------

def exhaustion_annulus(w: WeightedProblem, m):
    """K_m = [r_out * 4^{-m}, r_out]: the geometric exhaustion schedule."""
    if not _is_index(m) or m < 1:
        raise DomainError(f"exhaustion index must be an integer >= 1, got {m!r}")
    return (w.r_out * 4.0 ** (-m), w.r_out)


def log_tridiagonal(r0, r1, nodes, c):
    """Log grid s on [ln r0, ln r1] and the interior (diagonal, off-diagonal)
    of -d^2/ds^2 + c with Dirichlet ends, at second order."""
    s = np.linspace(np.log(r0), np.log(r1), nodes)
    h = s[1] - s[0]
    return s, np.full(nodes - 2, 2.0 / h**2 + c), np.full(nodes - 3, -1.0 / h**2)


def _fd_smallest(w: WeightedProblem, r_in, r_out, nodes=_NODES):
    """Smallest Dirichlet eigenvalue/eigenfunction via the log-variable FD."""
    from scipy.linalg import eigh_tridiagonal

    n = w.cone.n
    pot = (n - 2.0) ** 2 / 4.0 - w.kappa * (w.cone.p + w.cone.q)
    wgt = w.eps**2 + w.cone.p + w.cone.q
    s, diag, off = log_tridiagonal(r_in, r_out, nodes, pot)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    lam = vals[0] / wgt
    v = np.zeros(nodes)
    v[1:-1] = vecs[:, 0]
    if v[1:-1].sum() < 0:
        v = -v
    r = np.exp(s)
    u = v * r ** (-(n - 2.0) / 2.0)
    return lam, r, u


def dirichlet_eigen(w: WeightedProblem, m) -> EigenResult:
    """First Dirichlet eigenvalue/eigenfunction on the m-th exhaustion annulus,
    normalized by the weighted L^2 mass on the reference band [r_out/2, r_out]."""
    r_in, r_out = exhaustion_annulus(w, m)
    lam, r, u = _fd_smallest(w, r_in, r_out)
    band = (r >= r_out / 2.0) & (r <= r_out)
    n = w.cone.n
    mass = np.trapezoid(weight(w.cone, w.eps, r[band]) * u[band] ** 2 * r[band] ** (n - 1), r[band])
    u = u / np.sqrt(mass)
    return EigenResult(lam=lam, profile=RadialProfile(r, u), m=m)


# ---------------------------------------------------------------------------
# the limit eigenvalue lambda0
# ---------------------------------------------------------------------------

def lambda0_closed_form(c: ConeSpec):
    """Catalog identity (n-2)(n-3)/(4(n-1)), valid because the link weight is
    constant so the radial Hardy reduction is exact."""
    n = c.n
    return (n - 2.0) * (n - 3.0) / (4.0 * (n - 1.0))


@dataclass(frozen=True)
class Lambda0Result:
    cone: ConeSpec
    eps: float
    schedule: tuple
    lambda_sequence: tuple
    lambda0: float
    error_estimate: float


def lambda0_detailed(c: ConeSpec, r_out=1.0, m_max=6, eps=0.0) -> Lambda0Result:
    """Exhaustion limit with Richardson extrapolation in 1/m^2.

    The exhaustion eigenvalues obey lambda_m = lambda_inf + const/m^2 for the
    geometric schedule, so pairwise extrapolants converge fast; the error
    estimate is the gap between the last two.
    """
    if not _is_index(m_max) or m_max < 3:
        raise ParameterError(
            f"m_max must be an integer >= 3, got {m_max!r}: the error estimate needs two extrapolants"
        )
    w = WeightedProblem(cone=c, eps=eps, r_out=r_out)
    ms = list(range(1, m_max + 1))
    lams = [dirichlet_eigen(w, m).lam for m in ms]
    if np.any(np.diff(lams) > 1e-12):
        raise ConvergenceError("exhaustion eigenvalues not non-increasing", lams)
    extr = [
        (ms[i] ** 2 * lams[i] - ms[i - 1] ** 2 * lams[i - 1])
        / (ms[i] ** 2 - ms[i - 1] ** 2)
        for i in range(1, len(ms))
    ]
    err = abs(extr[-1] - extr[-2])
    return Lambda0Result(
        cone=c,
        eps=eps,
        schedule=tuple(ms),
        lambda_sequence=tuple(lams),
        lambda0=float(extr[-1]),
        error_estimate=float(err),
    )


def lambda0(c: ConeSpec, r_out=1.0, m_max=6):
    """The weighted limit eigenvalue at eps = 0.

    On an exact cone the eps-smoothed weight is the constant multiple
    (eps^2 + p + q)/(p + q) of the eps = 0 weight, so positive eps merely
    rescales the limit; the reference value is the eps = 0 one."""
    return lambda0_detailed(c, r_out=r_out, m_max=m_max, eps=0.0).lambda0


def eigenfunction_below(c: ConeSpec, lam):
    """Positive radial solution r^alpha of -Delta u + kappa scal u = lam |A|^2 u
    for lam below lambda0, with exact-jet residual data attached."""
    lam0 = lambda0_closed_form(c)
    if not (0.125 <= lam < lam0):
        raise OutOfBandError(f"lambda must lie in [1/8, {lam0})")
    from .perron import indicial_exponent  # local import avoids a module cycle

    alpha, _ = indicial_exponent(c, lam)
    r = np.geomspace(0.01, 1.0, 2000)
    return RadialProfile(r, r**alpha, jet_fn=lambda x: jet_power(x, alpha))


def operator_value_jet(c: ConeSpec, j: Jet, r):
    """-Delta f + kappa scal f evaluated from an analytic radial 2-jet."""
    return -radial_laplacian(j, r, c.n) + c.kappa * (-(c.p + c.q) / r**2) * j.f


def radial_operator_residual(c: ConeSpec, lam, profile: RadialProfile):
    """Scale-invariant residual |r^2(-Delta u + kappa scal u - lam |A|^2 u)|/|u|.

    Uses the profile's analytic jet when present, else 4th-order stencils on
    the (assumed geometric) grid so that the residual measures the equation,
    not the probe.
    """
    r = profile.grid
    if profile.jet_fn is not None:
        j = profile.jet_fn(r)
    else:
        s = np.log(r)
        h = np.diff(s)
        if not np.allclose(h, h[0], rtol=1e-8):
            raise DomainError("stencil residual needs a geometric grid")
        h = h[0]
        v = profile.values
        dv = np.full_like(v, np.nan)
        d2v = np.full_like(v, np.nan)
        dv[2:-2] = (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12 * h)
        d2v[2:-2] = (
            -v[4:] + 16 * v[3:-1] - 30 * v[2:-2] + 16 * v[1:-3] - v[:-4]
        ) / (12 * h**2)
        j = Jet(v, dv / r, (d2v - dv) / r**2)
    u = j.f
    res = operator_value_jet(c, j, r) - lam * second_form_norm2(c, r) * u
    scale = np.abs(u) + 1e-300
    vals = np.abs(res) * r**2 / scale
    return float(np.nanmax(vals))
