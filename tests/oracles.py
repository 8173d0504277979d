"""Independent reference solvers and test-only constructions that only
tests use."""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from conelab.bending import _GAUSS_NODES, _GAUSS_WEIGHTS, TubeMetric
from conelab.errors import DomainError, SingularMetricError, SolverError
from conelab.fields import round_sphere_factors
from conelab.grids import _PIVOT_TOL, Chart


def shooting_eigen(w, r_in, r_out):
    """Independent eigenvalue solver for the weighted problem ``w``: shoot the
    radial ODE in log coords and root-find the outer Dirichlet value in lambda."""
    n = w.cone.n
    pot = (n - 2.0) ** 2 / 4.0 - w.kappa * (w.cone.p + w.cone.q)
    wgt = w.eps**2 + w.cone.p + w.cone.q
    s0, s1 = np.log(r_in), np.log(r_out)

    def end_value(lam):
        def rhs(_, y):
            return [y[1], (pot - lam * wgt) * y[0]]

        sol = solve_ivp(
            rhs, (s0, s1), [0.0, 1.0], rtol=1e-12, atol=1e-14, dense_output=False
        )
        if not sol.success:
            raise SolverError(f"shooting integration failed: {sol.message}")
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
            raise SolverError("shooting bracket did not converge", (lo, hi, flo, fhi))
    return brentq(end_value, lo, hi, xtol=1e-13)


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
    where |t| >= delta discards it."""
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
    tail = half * (vals @ _GAUSS_WEIGHTS)
    h = np.abs(t) + np.where(inside, tail, 0.0)
    return h, hp, hpp


def trace_a(tm):
    """Mean curvature of a tube's core for the inward normal:
    -(dim core) f'(0)/f(0)."""
    f, df, _ = tm.warp
    return -(tm.chart.dim - 1) * df(0.0) / f(0.0)


def _core_axes(n, sigma, count):
    axes = [(-sigma, sigma, count)]
    return axes + [(np.pi / 2 - 0.4, np.pi / 2 + 0.4, count) for _ in range(n - 1)]


def cylinder_tube(n, radius, sigma, count=5):
    """Totally geodesic core (A = 0): constant warp."""
    warp = (lambda t: radius + 0.0 * t, lambda t: 0.0 * t, lambda t: 0.0 * t)
    return TubeMetric(
        chart=Chart(tuple(_core_axes(n, sigma, count))),
        warp=warp,
        core_factors=tuple(round_sphere_factors(n - 1, radius=1.0, axis_offset=1)),
        sigma=sigma,
    )


def cross_section_tube(r0, sigma, count=9):
    """Flat 2-D cross-section tube over a circle of radius r0 (the torus
    cross-section of a 3-D cone): warp f(t) = r0 - t."""
    if sigma >= r0:
        raise DomainError("tube deeper than the cross-section radius")
    warp = (lambda t: r0 - t, lambda t: -1.0 + 0.0 * t, lambda t: 0.0 * t)
    return TubeMetric(chart=Chart(tuple(_core_axes(2, sigma, count))), warp=warp,
                      core_factors=({},), sigma=sigma)
