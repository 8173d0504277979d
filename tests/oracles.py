"""Independent reference solvers and test-only constructions that only
tests use."""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from conelab.barrier import (
    _FD_STEP,
    BarrierSpec,
    _anchor_distances,
    _axis_kernel_constant,
    _orthonormal_complement,
    line_exponent,
    scal_quantity,
    sphere_distance,
)
from conelab.bending import _GAUSS_NODES, _GAUSS_WEIGHTS, TubeMetric, build_h, scal_compare
from conelab.cones import ConeSpec
from conelab.errors import ConvergenceError, DomainError, IterationLimitError, ResampleError, SingularMetricError
from conelab.fields import const_factor, diagonal_metric_field, func2_factor, round_sphere_factors
from conelab.grids import _PIVOT_TOL, Chart, _inverse, _lowered, central_jet, conformal_coupling
from conelab.jets import Jet
from conelab.perron import _window_basis, _window_schedule


# ---------------------------------------------------------------------------
# the radial reduction in (n, a2)
# ---------------------------------------------------------------------------

def lambda0_catalog(c):
    """The catalog identity lambda0 = (n-2)(n-3)/(4(n-1)), written in n alone.

    It equals the radial value (n-2)^2/(4 a2) - kappa only because
    a2 = n - 1 on a product of spheres."""
    n = c.n
    return (n - 2.0) * (n - 3.0) / (4.0 * (n - 1.0))


@dataclass(frozen=True)
class CartanCone(ConeSpec):
    """Radial data of Cartan's isoparametric cone with g = 3 and multiplicity
    m: n = 3m + 1 and a2 = |A|^2 r^2 = 2(n - 1) (Cartan 1938; Ferus, Karcher
    & Muenzner 1981), where a product of spheres has a2 = n - 1.

    Only n, kappa and a2 mean anything: the link is not a product of
    spheres, and the factors (p, q) = (3m, 0) only fix n."""

    @property
    def a2(self):
        return 2 * (self.n - 1)


def cartan_cone(m):
    return CartanCone(p=3 * m, q=0, a=1.0, b=1.0)


def shooting_eigen(w, r_in, r_out):
    """Independent eigenvalue solver for the weighted problem ``w``: shoot the
    radial ODE in log coords and root-find the outer Dirichlet value in lambda."""
    n, wgt = w.cone.n, w.cone.a2
    pot = (n - 2.0) ** 2 / 4.0 - w.cone.kappa * wgt
    s0, s1 = np.log(r_in), np.log(r_out)

    def end_value(lam):
        def rhs(_, y):
            return [y[1], (pot - lam * wgt) * y[0]]

        sol = solve_ivp(
            rhs, (s0, s1), [0.0, 1.0], rtol=1e-12, atol=1e-14, dense_output=False
        )
        if not sol.success:
            raise ConvergenceError(f"shooting integration failed: {sol.message}")
        return sol.y[0, -1]

    lo = pot / wgt  # at/below the oscillation threshold: end value positive
    step = (np.pi / (s1 - s0)) ** 2 / (2.0 * wgt)  # < gap to the first eigenvalue
    flo = end_value(lo)
    hi, fhi = lo, flo
    tries = 0
    while flo * fhi > 0:  # scan upward to the *first* sign change
        lo, flo = hi, fhi
        hi = hi + step
        fhi = end_value(hi)
        tries += 1
        if tries > 32:
            raise ConvergenceError("shooting bracket did not converge", (lo, hi, flo, fhi))
    return brentq(end_value, lo, hi, xtol=1e-13)


def fd_smallest_bisection(diag, off, nodes):
    """Smallest eigenvalue of the interior Toeplitz matrix that
    ``spectral.log_tridiagonal`` describes, by LAPACK's bisection
    (``eigh_tridiagonal``, to its default tolerance)."""
    vals = eigh_tridiagonal(np.full(nodes - 2, diag), np.full(nodes - 3, off),
                            select="i", select_range=(0, 0), eigvals_only=True)
    return float(vals[0])


# ---------------------------------------------------------------------------
# the Perron sweep with a fresh array per lift
# ---------------------------------------------------------------------------

def perron_sweep_allocating(pp, vals, max_sweeps):
    """``perron._sweep`` as the plain loop: each lift forms its local
    solution in new arrays and each sweep copies the iterate.  Lifts
    ``vals`` in place; returns (sweeps, last decrement)."""
    windows = sorted(_window_schedule(pp), key=lambda w: w[0])
    lifts = [(win, win[0] == 0) + _window_basis(pp, win, win[0] == 0) for win in windows]
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        prev = vals.copy()
        for (i0, i1), robin, sl, rows in lifts:
            local = vals[i1] * rows[0] if robin else vals[i0] * rows[0] + vals[i1] * rows[1]
            np.minimum(vals[sl], local, out=vals[sl])
        dec = float(np.max(np.abs(prev - vals)))
        if dec < 1e-10:
            break
    return sweeps, dec


# ---------------------------------------------------------------------------
# curvature assembly through the full derivative of Gamma
# ---------------------------------------------------------------------------

def scal_from_jet_full(g, dg, d2g):
    """`grids.scal_from_jet` through ellipsis einsums that build the whole
    O(n^5) derivative dgam[d, g, a, b] = d_d Gamma^g_ab and then take its
    two traces; leading axes are batch axes, one point gives a float."""
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
# metric validation over all nodes at once
# ---------------------------------------------------------------------------

def check_metric_unblocked(g):
    """`grids._check_metric` as one pass over all nodes: finiteness, then
    symmetry, then the column Cholesky of every node, then the pivot
    tolerance, each over the whole array."""
    n = g.shape[-1]
    a = g.reshape(-1, n, n).transpose(1, 2, 0)
    if not np.isfinite(a).all():
        raise DomainError("metric not finite at every node")
    iu, ju = np.triu_indices(n, 1)
    if np.abs(a[iu, ju] - a[ju, iu]).max(initial=0.0) > 1e-12:
        raise DomainError("metric not symmetric at every node")
    chol = np.zeros(a.shape)
    pivot = np.inf
    for j in range(n):
        col = a[j:, j] - np.einsum("ikb,kb->ib", chol[j:, :j], chol[j, :j])
        if not (col[0] > 0).all():
            raise SingularMetricError("metric not positive definite")
        piv = np.sqrt(col[0])
        chol[j:, j] = col / piv
        pivot = min(pivot, piv.min(initial=np.inf))
    if pivot <= _PIVOT_TOL:
        raise SingularMetricError("metric pivot below tolerance 1e-12")


# ---------------------------------------------------------------------------
# bending
# ---------------------------------------------------------------------------

def bend_jet_full_quadrature(bp, t):
    """`BendProfile.jet` with the tail quadrature run at every point, also
    where |t| >= delta discards it, and out of place: each step of the
    quadrature is a new array, in the arithmetic order of `_psi`."""
    t = np.asarray(t, dtype=float)
    s = np.minimum(np.abs(t), bp.delta * (1.0 - 1e-14))
    inside = np.abs(t) < bp.delta
    decay = np.where(inside, np.exp(-bp._psi(s)), 0.0)
    hp = np.sign(t) * (1.0 - decay)
    hpp = np.where(inside, bp._dpsi(s) * decay, 0.0)
    half = (bp.delta - s) / 2.0
    mid = (bp.delta + s) / 2.0
    nodes = mid[..., None] + half[..., None] * _GAUSS_NODES
    vals = np.exp(-bp._psi(np.minimum(nodes, bp.delta * (1.0 - 1e-14))))
    tail = half * (vals * _GAUSS_WEIGHTS).sum(-1)
    return Jet(np.abs(t) + np.where(inside, tail, 0.0), hp, hpp)


def stiffness_search_certify_each(tm, delta, cap=2.0**20, samples=201):
    """`bending.stiffness_search` with every candidate profile certified by
    `build_h` before its scal comparison."""
    k = 1.0
    while k <= cap:
        bp = build_h(k, delta)
        rep = scal_compare(tm, bp, samples=samples)
        if rep["min_diff"] >= 0:
            return k, {**rep, "profile": bp}
        k *= 2.0
    raise IterationLimitError(f"no certified stiffness below the cap {cap}")


def segment_limit_quad(superposition, omega, t):
    """``barrier.Superposition.segment_limit`` by adaptive quadrature in s
    (QUADPACK through ``scipy.integrate.quad``), split at s = t when t
    lies inside the segment."""
    a, b = superposition.segment
    total = 1.0
    for pt, dist in zip(superposition.spec.points, _anchor_distances(superposition.spec, omega).tolist()):
        e_line = line_exponent(superposition.spec.n, pt.beta)
        val, _ = quad(lambda s: (dist**2 + (t - s) ** 2) ** (-(e_line + 1.0) / 2.0), a, b,
                      points=[t] if a < t < b else None, epsabs=0.0, epsrel=1e-13, limit=200)
        total += pt.weight * val / _axis_kernel_constant(e_line)
    return total


def tube_check_pointwise(superposition, tube_radius, axial_samples=64,
                         transverse_samples=64, seed=0):
    """``barrier.tube_barrier_check`` one sample and one station at a time:
    three scalar superposition calls and a central difference per station
    (radius validation left to the kernel)."""
    ls = superposition.spec
    rho = float(tube_radius)
    n = ls.n
    p = ls.points[0].unit()
    basis = _orthonormal_complement(p)
    a0, b0 = superposition.segment
    coupling_half = float(1 / (2 * conformal_coupling(n)))
    rng = np.random.default_rng(seed)
    t_vals = a0 + (np.arange(axial_samples) + 0.5) / axial_samples * (b0 - a0)
    margin = np.inf
    for _ in range(transverse_samples):
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
    return margin > 0, float(margin)


def mu_h_bisection(d, cutoff):
    """``barrier.mu_h`` on its default band by doubling and bisection on the
    same 2000 samples: the largest passing mu found, with the absolute
    stopping test hi - lo <= 1e-10 * max(hi, 1)."""
    iota = d.scal_rho2()
    rho = np.geomspace(1e-3, 10.0, 2000)

    def ok(mu):
        q = scal_quantity(BarrierSpec(deformed=d, mu=mu, cutoff=cutoff), rho)
        return bool(np.all(q >= iota / 2.0))

    hi = 1.0
    tries = 0
    while ok(hi):
        hi *= 2.0
        tries += 1
        if tries > 60:
            raise ConvergenceError(f"every mu up to {hi} keeps the threshold")
    lo = 0.0
    while hi - lo > 1e-10 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def trace_a(tm):
    """Mean curvature of a tube's core for the inward normal:
    -(dim core) f'(0)/f(0)."""
    core = tm.warp(0.0)
    return -(tm.chart.dim - 1) * core.d1 / core.f


def _core_axes(n, sigma, count):
    axes = [(-sigma, sigma, count)]
    return axes + [(np.pi / 2 - 0.4, np.pi / 2 + 0.4, count) for _ in range(n - 1)]


def cylinder_tube(n, radius, sigma, count=5):
    """Totally geodesic core (A = 0): constant warp."""
    return TubeMetric(
        chart=Chart(tuple(_core_axes(n, sigma, count))),
        warp=lambda t: Jet(radius + 0.0 * t, 0.0 * t, 0.0 * t),
        core_factors=tuple(round_sphere_factors(n - 1, radius=1.0, axis_offset=1)),
        sigma=sigma,
    )


def cross_section_tube(r0, sigma, count=9):
    """Flat 2-D cross-section tube over a circle of radius r0 (the torus
    cross-section of a 3-D cone): warp f(t) = r0 - t."""
    if sigma >= r0:
        raise DomainError("tube deeper than the cross-section radius")
    return TubeMetric(chart=Chart(tuple(_core_axes(2, sigma, count))),
                      warp=lambda t: Jet(r0 - t, -1.0 + 0.0 * t, 0.0 * t),
                      core_factors=({},), sigma=sigma)


# ---------------------------------------------------------------------------
# test metrics and level functions
# ---------------------------------------------------------------------------

def power2_factor(scale=1.0):
    """(scale * t)^2 as a separable factor."""
    s2 = scale * scale
    return lambda t: Jet(s2 * t**2, 2.0 * s2 * t, 2.0 * s2 + 0.0 * t)


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


def polar_metric(chart):
    """g = diag(1, r^2) on a 2-D (r, theta) chart."""
    return diagonal_metric_field(chart, [{}, {0: power2_factor()}])


def sphere_metric(chart, radius=1.0):
    """Round 2-sphere of given radius in (theta, phi) coordinates."""
    r2 = radius * radius
    return diagonal_metric_field(
        chart,
        [
            {0: const_factor(r2)},
            {0: func2_factor(lambda t: Jet(radius * np.sin(t), radius * np.cos(t),
                                           -radius * np.sin(t)))},
        ],
    )


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


def _cone_immersion(c):
    """Immersion (r, angles) -> R^{n+1} of the cone over S^p(a) x S^q(b)."""

    def immerse(x):
        r = x[0]
        u = x[1 : 1 + c.p]
        v = x[1 + c.p :]
        return r * np.concatenate((c.a * _sphere_coords(u), c.b * _sphere_coords(v)))

    return immerse


def embedded_link_shape(c, r=1.0):
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


def _link_shape_fd(c, r, step):
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
