"""The radial reduction on cones and its weighted eigenvalues.

Every radial problem on a cone reduces to one Euler equation whose
coefficients are n and a2 = |A|^2 r^2 (``ConeSpec.a2``).  The weighted
problem on an annulus [r_in, r_out] is

    -(r^{n-1} u')' + kappa * scal * r^{n-1} u = lambda * |A|^2 * r^{n-1} u

with weight |A|^2 = a2/r^2 and scal = -|A|^2.  In the logarithmic
variable s = ln r and with v = r^{(n-2)/2} u this becomes the
constant-coefficient Schroedinger form

    -v'' + [ (n-2)^2/4 - kappa a2 ] v = lambda a2 v,

which the finite-difference solver discretizes.  Its power solutions
r^alpha solve the indicial equation alpha^2 + (n-2) alpha + (kappa +
lambda) a2 = 0, whose roots are real up to (n-2)^2/(4 a2) - kappa: the
weighted limit eigenvalue lambda0 and the upper end of the working band
[1/8, lambda0).  A ``WeightedProblem`` fixes only the outer radius r_out:
its Dirichlet problems run on the exhaustion annuli
K_m = [r_out 4^{-m}, r_out], m = 1, 2, ..., whose inner radii tend to the
tip.  The independent shooting cross-check lives with the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import ConeSpec, RadialProfile, cone_scal, second_form_norm2
from .errors import ComplexIndicialError, ConvergenceError, DomainError, OutOfBandError, ParameterError
from .grids import _is_index
from .jets import Jet, jet_power, radial_laplacian

#: nodes per finite-difference eigensolve
_NODES = 2000


@dataclass(frozen=True)
class WeightedProblem:
    """Weighted eigenproblem data: the exhaustion annuli K_m all end at the
    outer radius ``r_out`` (see ``exhaustion_annulus``)."""

    cone: ConeSpec
    r_out: float

    def __post_init__(self):
        if not 0 < self.r_out < np.inf:
            raise DomainError(f"outer radius must be positive and finite, got {self.r_out!r}")


@dataclass(frozen=True)
class EigenResult:
    lam: float
    profile: RadialProfile
    m: int

    def __post_init__(self):
        interior = self.profile.values[1:-1]
        if interior.size and interior.min() <= 0:
            raise DomainError("first eigenfunction must be interior-positive")


# ---------------------------------------------------------------------------
# indicial exponents and the working band
# ---------------------------------------------------------------------------

def indicial_lambda_max(c: ConeSpec):
    """Largest lambda with real indicial roots: (n-2)^2/(4 a2) - kappa.

    This threshold is the weighted limit eigenvalue lambda0 (the
    Hardy-critical coupling)."""
    n = c.n
    return (n - 2.0) ** 2 / (4.0 * c.a2) - c.kappa


def indicial_exponent(c: ConeSpec, lam):
    """Root alpha in (-(n-2)/2, 0] of alpha^2 + (n-2) alpha + (kappa+lam) a2 = 0.

    Returns (alpha, conjugate_root).  lambda at the discriminant threshold
    gives the double root -(n-2)/2."""
    n = c.n
    if not lam > 0:  # NaN too
        raise OutOfBandError("lambda must be positive in the working band")
    disc = (n - 2.0) ** 2 / 4.0 - (c.kappa + lam) * c.a2
    if not disc >= 0:
        raise ComplexIndicialError(
            f"complex indicial roots for lambda = {lam}",
            lambda_max=indicial_lambda_max(c),
        )
    root = math.sqrt(disc)
    half = (n - 2.0) / 2.0
    return -half + root, -half - root


def _require_band(c: ConeSpec, lam):
    """Raise OutOfBandError unless lam lies in the working band [1/8, lambda0)."""
    lam0 = indicial_lambda_max(c)
    if not 0.125 <= lam < lam0:  # NaN too
        raise OutOfBandError(f"lambda must lie in [1/8, {lam0}), got {lam!r}")


def rayleigh(c: ConeSpec, f: RadialProfile):
    """Weighted Rayleigh quotient of a compactly supported radial profile."""
    r, v = f.grid, f.values
    if r.size < 3:
        raise DomainError(f"test profile needs an interior node, got {r.size} nodes")
    if abs(v[0]) > 1e-13 * max(1.0, np.abs(v).max()) or abs(v[-1]) > 1e-13 * max(
        1.0, np.abs(v).max()
    ):
        raise DomainError("test profile must vanish at both annulus ends")
    n = c.n
    dv = np.gradient(v, r, edge_order=1)
    num = np.trapezoid(dv**2 * r ** (n - 1), r) + c.kappa * np.trapezoid(
        cone_scal(c, r) * v**2 * r ** (n - 1), r
    )
    den = np.trapezoid(second_form_norm2(c, r) * v**2 * r ** (n - 1), r)
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

    n, a2 = w.cone.n, w.cone.a2
    pot = (n - 2.0) ** 2 / 4.0 - w.cone.kappa * a2
    s, diag, off = log_tridiagonal(r_in, r_out, nodes, pot)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    lam = vals[0] / a2
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
    mass = np.trapezoid(second_form_norm2(w.cone, r[band]) * u[band] ** 2 * r[band] ** (n - 1), r[band])
    u = u / np.sqrt(mass)
    return EigenResult(lam=lam, profile=RadialProfile(r, u), m=m)


# ---------------------------------------------------------------------------
# the limit eigenvalue lambda0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lambda0Result:
    cone: ConeSpec
    schedule: tuple
    lambda_sequence: tuple
    lambda0: float
    error_estimate: float


def lambda0_detailed(c: ConeSpec, r_out=1.0, m_max=6) -> Lambda0Result:
    """Exhaustion limit with Richardson extrapolation in 1/m^2.

    The exhaustion eigenvalues obey lambda_m = lambda_inf + const/m^2 for the
    geometric schedule, so pairwise extrapolants converge fast; the error
    estimate is the gap between the last two.
    """
    if not _is_index(m_max) or m_max < 3:
        raise ParameterError(
            f"m_max must be an integer >= 3, got {m_max!r}: the error estimate needs two extrapolants"
        )
    w = WeightedProblem(cone=c, r_out=r_out)
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
        schedule=tuple(ms),
        lambda_sequence=tuple(lams),
        lambda0=float(extr[-1]),
        error_estimate=float(err),
    )


def lambda0(c: ConeSpec, r_out=1.0, m_max=6):
    """The weighted limit eigenvalue, by exhaustion (``lambda0_detailed``)."""
    return lambda0_detailed(c, r_out=r_out, m_max=m_max).lambda0


def eigenfunction_below(c: ConeSpec, lam):
    """Positive radial solution r^alpha of -Delta u + kappa scal u = lam |A|^2 u
    for lam below lambda0, with exact-jet residual data attached."""
    _require_band(c, lam)
    alpha, _ = indicial_exponent(c, lam)
    r = np.geomspace(0.01, 1.0, 2000)
    return RadialProfile(r, r**alpha, jet_fn=lambda x: jet_power(x, alpha))


def operator_value_jet(c: ConeSpec, j: Jet, r):
    """-Delta f + kappa scal f evaluated from an analytic radial 2-jet."""
    return -radial_laplacian(j, r, c.n) + c.kappa * cone_scal(c, r) * j.f


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
        if r.size < 5:
            raise DomainError(f"stencil residual needs at least 5 nodes, got {r.size}")
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
