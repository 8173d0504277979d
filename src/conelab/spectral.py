"""The radial reduction on cones and its weighted eigenvalues.

Every radial problem on a cone reduces to one Euler equation whose
coefficients are n and a2 = |A|^2 r^2 (``ConeSpec.a2``).  The weighted
problem on an annulus [r_in, r_out] is

    -(r^{n-1} u')' + kappa * scal * r^{n-1} u = lambda * |A|^2 * r^{n-1} u

with weight |A|^2 = a2/r^2 and scal = -|A|^2.  In the logarithmic
variable s = ln r and with v = r^{(n-2)/2} u this becomes the
constant-coefficient Schroedinger form

    -v'' + [ (n-2)^2/4 - kappa a2 ] v = lambda a2 v,

which the finite-difference solver discretizes.  On a log grid that
discretization is a tridiagonal Toeplitz matrix, whose smallest eigenpair
is known in closed form; the solver returns that pair after certifying
it in numpy (``_fd_smallest``), so the module needs no eigensolver and
loads no scipy.  Its power solutions
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
from .errors import (
    CertificateError,
    ComplexIndicialError,
    ConvergenceError,
    DomainError,
    OutOfBandError,
    ParameterError,
)
from .grids import _is_index
from .jets import Jet, jet_power, radial_laplacian

#: nodes per finite-difference eigensolve
_NODES = 2000
#: unit roundoff
_U = float(np.finfo(float).eps) / 2.0


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
    """Log grid s on [ln r0, ln r1] and the interior (diagonal,
    off-diagonal) entries of -d^2/ds^2 + c with Dirichlet ends,
    at second order.  The matrix is Toeplitz, so each entry is one number.

    h is the annulus length ln(r1/r0) over nodes - 1, not s[1] - s[0]: the
    difference of two nearby logarithms loses about nodes ulps of h."""
    h = math.log(r1 / r0) / (nodes - 1)
    h2 = h * h
    return np.linspace(math.log(r0), math.log(r1), nodes), 2.0 / h2 + c, -1.0 / h2


def _certify_smallest(diag, off, mu, v):
    """Raise CertificateError unless mu and v (zero at both ends) are the
    smallest eigenpair, up to rounding, of the interior Toeplitz matrix T
    with ``diag`` on the diagonal and ``off`` beside it.

    Two checks that share no formula with a closed form:
    - the residual |T v - mu v|, four vector operations, is at most
      32 u ||T|| max|v| (u the unit roundoff, ||T|| the row-sum norm).
      For a closed-form pair with each entry of v to 5 u relative and mu
      to 4 u ||T|| the exact residual is at most 14 u ||T|| max|v|, and
      forming it adds at most 9 u ||T|| max|v|.
    - v > 0 on the interior.  d I - T is non-negative and irreducible, so
      by Perron-Frobenius its only positive eigenvector belongs to its
      largest eigenvalue: mu is the smallest eigenvalue of T."""
    inner = v[1:-1]
    res = (diag - mu) * inner + off * (v[:-2] + v[2:])
    bound = 32.0 * _U * (abs(diag) + 2.0 * abs(off)) * np.abs(inner).max()
    worst = np.abs(res).max()
    if not worst <= bound:  # NaN too
        raise CertificateError(f"eigenpair residual {worst} exceeds its rounding bound {bound}")
    if not inner.min() > 0:
        raise CertificateError("eigenvector not positive on the interior: not the smallest eigenpair")


def _fd_smallest(w: WeightedProblem, r_in, r_out, nodes=_NODES):
    """Smallest Dirichlet eigenvalue/eigenfunction of the log-variable
    finite-difference operator (``log_tridiagonal``), in closed form.

    The N - 2 interior nodes carry the Toeplitz matrix tridiag(-1/h^2,
    2/h^2 + pot, -1/h^2), whose smallest eigenvalue is
    pot + (4/h^2) sin^2(pi/(2(N-1))) with eigenvector sin(pi j/(N-1))
    (Boettcher & Grudsky, Spectral Properties of Banded Toeplitz Matrices,
    SIAM 2005).  The closed form reads the matrix's own off-diagonal
    -1/h^2, so both share one step h, and ``_certify_smallest`` certifies
    the pair before it is returned.  The eigenvector is sampled at
    min(j, N-1-j), an argument of at most pi/2, so that each entry is good
    to 5 u relative and the vector is exactly symmetric."""
    n, a2 = w.cone.n, w.cone.a2
    pot = (n - 2.0) ** 2 / 4.0 - w.cone.kappa * a2
    s, diag, off = log_tridiagonal(r_in, r_out, nodes, pot)
    theta = math.pi / (nodes - 1)
    mu = pot - 4.0 * off * math.sin(theta / 2.0) ** 2
    j = np.arange(nodes)
    v = np.sin(np.minimum(j, nodes - 1 - j) * theta)
    _certify_smallest(diag, off, mu, v)
    r = np.exp(s)
    return mu / a2, r, v * r ** (-(n - 2.0) / 2.0)


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
    """Exhaustion limit with Richardson extrapolation in 1/m^2, with a
    derived rounding bound as its error estimate.

    On K_m the step is h = m ln 4/(N-1), so the closed-form eigenvalues are
    lambda_m = (pot + K/m^2)/a2 with K independent of m, and every
    extrapolant (m^2 lambda_m - (m-1)^2 lambda_{m-1})/(2m-1) equals
    pot/a2 = ``indicial_lambda_max`` in exact arithmetic: its error is
    rounding alone.  Each lambda_m carries at most 22 u (u the unit
    roundoff) of the magnitudes it sums, which S_m = |lambda_m| + 2 kappa
    bounds, and the extrapolant 3 u more, so the estimate
    32 u (m^2 S_m + (m-1)^2 S_{m-1})/(2m-1) bounds |lambda0 - pot/a2| with
    room for the two roundings of ``indicial_lambda_max``.  The last two
    extrapolants must agree within their two bounds.
    """
    if not _is_index(m_max) or m_max < 3:
        raise ParameterError(
            f"m_max must be an integer >= 3, got {m_max!r}: the last two extrapolants are compared"
        )
    w = WeightedProblem(cone=c, r_out=r_out)
    ms = list(range(1, m_max + 1))
    lams = [dirichlet_eigen(w, m).lam for m in ms]
    if np.any(np.diff(lams) > 1e-12):
        raise ConvergenceError("exhaustion eigenvalues not non-increasing", lams)
    sizes = [abs(lam) + 2.0 * abs(c.kappa) for lam in lams]  # the S_m
    extr, bounds = [], []
    for m in (m_max - 1, m_max):
        extr.append((m**2 * lams[m - 1] - (m - 1) ** 2 * lams[m - 2]) / (2 * m - 1))
        bounds.append(32.0 * _U * (m**2 * sizes[m - 1] + (m - 1) ** 2 * sizes[m - 2]) / (2 * m - 1))
    if not abs(extr[1] - extr[0]) <= bounds[0] + bounds[1]:
        raise ConvergenceError("the last two extrapolants differ beyond their rounding bounds", extr)
    return Lambda0Result(
        cone=c,
        schedule=tuple(ms),
        lambda_sequence=tuple(lams),
        lambda0=float(extr[1]),
        error_estimate=float(bounds[1]),
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
