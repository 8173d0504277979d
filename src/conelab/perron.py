"""Perron machinery on cones: local solvability, supersolution lifts,
minimal positive solutions, cutoffs and crease smoothing.

The radial reduction of the operator is

    (LO)  u'' + (n-1)/r u' + (kappa + lambda) a2/r^2 u = 0,

with a2 = |A|^2 r^2 (``ConeSpec.a2``): an Euler equation whose exact
solutions r^{alpha_+}, r^{alpha_-} (``spectral.indicial_exponent``)
provide closed-form oracles for every construction below.  All
boundary-value solves work in the logarithmic variable s = ln r, where
(LO) becomes the constant-coefficient equation
u_ss + (n-2) u_s + (kappa + lambda) a2 u = 0, discretized at 2nd order
and Richardson extrapolated.

The problem grid is uniform in s, and (LO) in s is invariant under
translation, so a sweep window's unit-data solutions on its own grid nodes
depend only on its length in grid steps and its inner condition (Dirichlet,
or the indicial Robin condition at the tip).  The Perron sweep therefore
solves one window per (length, inner condition).

Every window admits the comparison principle: with u = r^{-(n-2)/2} v, (LO)
in s reads v_ss = disc v, disc = (n-2)^2/4 - (kappa + lambda) a2, and
disc > 0 on the whole band [1/8, lambda0) that ``PerronProblem`` accepts
(lambda0 is the indicial threshold ``spectral.indicial_lambda_max``).  So
the Dirichlet problem on a window of any width has a positive Green
function (Protter & Weinberger, Maximum Principles in Differential
Equations, ch. 1), and the sweep uses every window of its schedule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import ConeSpec, RadialProfile
from .errors import (
    BallTooLargeError,
    DomainError,
    IterationLimitError,
    NoCreaseError,
    NotSupersolutionError,
    ParameterError,
    ResolutionError,
)
from .grids import _is_index, _positive_interval
from .jets import Jet, jet_compose, jet_power
from .spectral import _require_band, indicial_exponent, operator_value_jet, radial_operator_residual


# ---------------------------------------------------------------------------
# problems and supersolution sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerronProblem:
    """(LO) on an annulus with Dirichlet data at the outer end.

    The inner radius truncates the cone tip; minimal solutions carry the
    indicial Robin condition r u'/u = alpha_+ there, the finite surrogate
    of continuation to the tip with the decaying exponent.
    """

    cone: ConeSpec
    lam: float
    domain: tuple
    boundary_value: float
    nodes: int = 2000
    #: results of the ``_per_problem`` functions, computed once per problem
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _positive_interval(self.domain, "domain")
        if not 0 < self.boundary_value < np.inf:
            raise DomainError(f"boundary value must be positive and finite, got {self.boundary_value!r}")
        _require_band(self.cone, self.lam)
        if not _is_index(self.nodes) or self.nodes < 2:
            raise ParameterError(f"nodes must be an integer >= 2, got {self.nodes!r}")
        schedule = _window_schedule(self)
        if not schedule:
            raise DomainError(f"domain {self.domain} is too narrow for any sweep window")
        if any(i0 == i1 for i0, i1 in schedule):
            raise ParameterError(f"{self.nodes} nodes are too coarse: window ends coincide")

    @functools.cached_property
    def grid(self):
        """The problem grid, uniform in s = ln r; built once per problem and
        read-only, since every profile and window of the problem shares it."""
        grid = np.geomspace(self.domain[0], self.domain[1], self.nodes)
        grid.setflags(write=False)
        return grid


@dataclass
class SupersolutionSet:
    """Container for verified supersolutions; closed under pointwise min."""

    problem: PerronProblem
    members: list = field(default_factory=list)

    def add(self, f: RadialProfile):
        if f.values[-1] < self.problem.boundary_value - 1e-12:
            raise DomainError("member must dominate the boundary value at r_out")
        ok, witness = is_supersolution(self.problem, f)
        if not ok:
            raise NotSupersolutionError(f"rejected member: witness {witness}")
        self.members.append(f)

    def minimum(self) -> RadialProfile:
        """Pointwise minimum of the members on the problem grid (the class
        of supersolutions is closed under finite minima)."""
        if not self.members:
            raise DomainError("empty supersolution set")
        vals = np.min([m.values for m in self.members], axis=0)
        return RadialProfile(self.problem.grid, vals)


# ---------------------------------------------------------------------------
# local solves
# ---------------------------------------------------------------------------

#: tolerance of the comparison test, relative to the profile's maximum
_SUPER_RTOL = 1e-7
#: log width of the widest (level-0) sweep window, and the nodes of a window solve
_WINDOW_WIDTH = math.log(2.0)
_WINDOW_NODES = 1001


def _index_window(pp: PerronProblem, win):
    """``win`` as the int pair (i0, i1) of problem-grid nodes, 0 <= i0 < i1 < nodes."""
    if not (np.shape(win) == (2,) and all(map(_is_index, win)) and 0 <= win[0] < win[1] < pp.nodes):
        raise DomainError(f"window {win!r} is not a node-index pair 0 <= i0 < i1 < {pp.nodes}")
    return int(win[0]), int(win[1])


def _on_grid(pp: PerronProblem, f: RadialProfile):
    """f's values, which must be sampled on the problem grid."""
    if not np.array_equal(f.grid, pp.grid):
        raise DomainError("profile must be sampled on the problem grid")
    return f.values


def _require_scheduled_length(pp: PerronProblem, win):
    """Raise BallTooLargeError if index window ``win`` has more grid steps
    than the longest window of ``_window_schedule``: ``_solve_window``'s
    nodes resolve only those widths."""
    longest = max(i1 - i0 for i0, i1 in _window_schedule(pp))
    if win[1] - win[0] > longest:
        raise BallTooLargeError(
            f"window {win} spans {win[1] - win[0]} grid steps, more than the longest "
            f"sweep window's {longest}"
        )


def _solve_window(pp: PerronProblem, r0, r1, bc_inner, bc_outer, nodes=_WINDOW_NODES):
    """Richardson-extrapolated FD solve of (LO) on [r0, r1] in log coords.

    bc_inner is ("dirichlet", value) or ("robin", alpha) with the Robin
    condition r u'/u = alpha; bc_outer is ("dirichlet", value).
    Returns (r_nodes, values) on the coarse grid.
    """
    from scipy.linalg import solve_banded

    kind, val = bc_inner
    if kind not in ("dirichlet", "robin"):
        raise DomainError(f"unknown boundary condition {kind}")
    # unknowns are u_first..u_{npts-2}: a Dirichlet inner value is data,
    # a Robin inner value is solved for
    first = 1 if kind == "dirichlet" else 0
    potential = (pp.cone.kappa + pp.lam) * pp.cone.a2

    def solve(npts):
        s = np.linspace(np.log(r0), np.log(r1), npts)
        h = s[1] - s[0]
        lower = 1.0 / h**2 - (pp.cone.n - 2.0) / (2.0 * h)
        upper = 1.0 / h**2 + (pp.cone.n - 2.0) / (2.0 * h)
        center = -2.0 / h**2 + potential
        ns = npts - 1 - first
        ab = np.zeros((3, ns))
        ab[0, 1:] = upper
        ab[1, :] = center
        ab[2, :-1] = lower
        rhs = np.zeros(ns)
        if kind == "robin":
            # ghost elimination at i = 0: u_{-1} = u_1 - 2 h alpha u_0
            ab[1, 0] = center - 2.0 * h * val * lower
            ab[0, 1] = upper + lower
        else:
            rhs[0] -= lower * val
        rhs[-1] -= upper * bc_outer[1]
        u = np.empty(npts)
        u[0], u[-1] = val, bc_outer[1]
        u[first:-1] = solve_banded((1, 1), ab, rhs)
        return u

    coarse = solve(nodes)
    fine = solve(2 * nodes - 1)
    u = (4.0 * fine[::2] - coarse) / 3.0
    r = np.geomspace(r0, r1, nodes)
    return r, u


def local_solve(pp: PerronProblem, win, boundary):
    """Unique two-point solution of (LO) with end values ``boundary`` on the
    problem-grid nodes of index window ``win = (i0, i1)``, from its basis.

    The solution is unique on a window of any width (see the module
    docstring); a window longer than every window of the sweep schedule
    raises BallTooLargeError, since the window solve does not resolve it,
    and the caller must shrink the window.
    """
    win = _index_window(pp, win)
    _require_scheduled_length(pp, win)
    sl, rows = _window_basis(pp, win, False)
    a, b = boundary
    return RadialProfile(pp.grid[sl], a * rows[0] + b * rows[1])


# ---------------------------------------------------------------------------
# supersolutions, lifts, minimal solution
# ---------------------------------------------------------------------------

def _per_problem(fn):
    """Memoize ``fn(pp, *args)`` on the problem; callers share the result,
    so it must not be mutated."""

    @functools.wraps(fn)
    def memoized(pp: PerronProblem, *args):
        key = (fn.__name__,) + args
        if key not in pp._memo:
            pp._memo[key] = fn(pp, *args)
        return pp._memo[key]

    return memoized


@_per_problem
def _window_schedule(pp: PerronProblem):
    """Deterministic dyadic family of sub-annuli as index pairs of the
    problem-grid nodes nearest their ends."""
    s0, s1 = np.log(pp.domain[0]), np.log(pp.domain[1])
    sg = np.log(pp.grid)

    def snap(s):
        return int(np.argmin(np.abs(sg - s)))

    windows = []
    for level in range(2):
        w = _WINDOW_WIDTH / 2.0**level
        step = w / 2.0
        a = s0
        while a < s1 - 1e-12:
            b = min(a + w, s1)
            if b - a > 0.2 * w:
                windows.append((snap(a), snap(b)))
            a += step
    return tuple(windows)


def _window_basis(pp: PerronProblem, win, robin):
    """Unit-data solutions on the problem-grid nodes of index window ``win``.

    Both the window solve and its projection onto the window's nodes are
    linear in the end data, so the solution with data (a, b) is ``a *
    rows[0] + b * rows[1]``; the Robin tip window has the single row
    ``rows[0]`` (outer value 1).  The grid is uniform in s = ln r and (LO)
    is translation invariant in s, so ``rows`` depends only on the key
    (length i1 - i0, inner condition) and is shared by every window with
    that key (``_length_basis``).  Every Perron read goes through it.
    Returns ``(sl, rows)``."""
    i0, i1 = win
    return slice(i0, i1 + 1), _length_basis(pp, i1 - i0, robin)


@_per_problem
def _length_basis(pp: PerronProblem, m, robin):
    """The rows of ``_window_basis`` for windows of ``m`` grid steps: one
    solve on the first such window, [grid[0], grid[m]], projected onto its
    nodes by a not-a-knot spline in ln r."""
    from scipy.interpolate import CubicSpline

    grid = pp.grid[: m + 1]
    r0, r1 = grid[0], grid[-1]
    if robin:
        alpha, _ = indicial_exponent(pp.cone, pp.lam)
        r, u = _solve_window(pp, r0, r1, ("robin", alpha), ("dirichlet", 1.0))
        u = u[None, :]
    else:
        r, u0 = _solve_window(pp, r0, r1, ("dirichlet", 1.0), ("dirichlet", 0.0))
        _, u1 = _solve_window(pp, r0, r1, ("dirichlet", 0.0), ("dirichlet", 1.0))
        u = np.stack([u0, u1])
    rows = CubicSpline(np.log(r), u, axis=1)(np.log(grid))
    rows.setflags(write=False)
    return rows


def is_supersolution(pp: PerronProblem, f: RadialProfile):
    """Defining comparison test: on every scheduled index window the local
    solution (``_window_basis``) with f's end values must stay below f.

    The test is discrete on the problem grid, and f must be sampled there
    (DomainError otherwise).  Returns (True, None) or (False, witness) with
    the violating index window and the maximal excess."""
    v = _on_grid(pp, f)
    if np.any(v <= 0):
        bad = int(np.argmin(v))
        return False, {"window": None, "reason": "not positive", "index": bad}
    scale = float(np.abs(v).max())
    for win in _window_schedule(pp):
        sl, rows = _window_basis(pp, win, False)
        excess = np.max(v[win[0]] * rows[0] + v[win[1]] * rows[1] - v[sl])
        if excess > _SUPER_RTOL * scale:
            return False, {"window": win, "excess": float(excess)}
    return True, None


def lift(pp: PerronProblem, f: RadialProfile, win, check=True):
    """Replace f on the index window ``win = (i0, i1)`` by the local solution
    with f's end values.

    f must be sampled on the problem grid; the result lives there, is
    pointwise <= f and is again a supersolution."""
    win = _index_window(pp, win)
    vals = _on_grid(pp, f).copy()
    if check:
        ok, witness = is_supersolution(pp, f)
        if not ok:
            raise NotSupersolutionError(f"lift requires a supersolution: {witness}")
        _require_scheduled_length(pp, win)
    sl, rows = _window_basis(pp, win, False)
    vals[sl] = np.minimum(vals[sl], vals[win[0]] * rows[0] + vals[win[1]] * rows[1])
    return RadialProfile(pp.grid, vals)


def default_seed(pp: PerronProblem) -> RadialProfile:
    """Strict supersolution b (r/r_out)^{-(n-2)/2} (the Hardy-critical power:
    its operator excess is lambda0 - lambda > 0)."""
    n = pp.cone.n
    beta = -(n - 2.0) / 2.0
    r_out = pp.domain[1]
    b = pp.boundary_value
    grid = pp.grid
    return RadialProfile(
        grid,
        b * (grid / r_out) ** beta,
        jet_fn=lambda x: jet_power(x, beta) * (b * r_out**-beta),
    )


def _sweep(pp: PerronProblem, vals, max_sweeps):
    """Lift ``vals`` in place over every scheduled window, inner to outer,
    until a sweep's sup-norm decrement drops below 1e-10 or ``max_sweeps``
    sweeps have run; returns (sweeps, last decrement).

    Each window's view of vals, its basis rows and its slices of two
    scratch buffers are built once, so a sweep allocates no array: a lift
    forms vals[i0] rows[0] + vals[i1] rows[1] (vals[i1] rows[0] on the
    Robin tip window) in the scratch and takes the minimum into the view."""
    windows = sorted(_window_schedule(pp), key=lambda w: w[0])
    first, second = np.empty((2, max(i1 - i0 for i0, i1 in windows) + 1))
    lifts = []
    for i0, i1 in windows:
        sl, rows = _window_basis(pp, (i0, i1), i0 == 0)
        k = i1 - i0 + 1
        lifts.append((i0, i1, vals[sl], tuple(rows), first[:k], second[:k]))
    prev = np.empty_like(vals)
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        np.copyto(prev, vals)
        for i0, i1, view, rows, local, term in lifts:
            if len(rows) == 1:
                np.multiply(vals[i1], rows[0], out=local)
            else:
                np.multiply(vals[i0], rows[0], out=local)
                np.add(local, np.multiply(vals[i1], rows[1], out=term), out=local)
            np.minimum(view, local, out=view)
        dec = float(np.max(np.abs(np.subtract(prev, vals, out=prev), out=prev)))
        if dec < 1e-10:
            break
    return sweeps, dec


@dataclass(frozen=True)
class PerronResult:
    profile: RadialProfile
    alpha: float
    c: float
    iterations: int
    residual: float
    minimality_checks: tuple
    last_decrement: float


def perron_minimal_detailed(pp: PerronProblem, seeds=None, max_sweeps=400) -> PerronResult:
    """Iterated lifts over a dyadic sweep schedule, inner-to-outer.

    Seeds must be sampled on the problem grid.  The innermost window
    carries the indicial Robin condition (the tip surrogate); sweeps stop
    when the sup-norm decrement drops below 1e-10.  Each lift is
    ``min(w, a phi0 + b phi1)`` over the window's cached basis (see
    ``_window_basis``).  A final global Robin--Dirichlet solve polishes the
    iterate (they must agree; the polish removes interface kinks that would
    pollute the high-order residual check).  It is solved, and its residual
    measured, on the refinement of ``pp.grid`` by the smallest stride at
    window-solve resolution; the profile is every stride-th node of it.
    """
    if not _is_index(max_sweeps) or max_sweeps < 1:
        raise ParameterError(f"max_sweeps must be an integer >= 1, got {max_sweeps!r}")
    alpha, _ = indicial_exponent(pp.cone, pp.lam)
    sset = SupersolutionSet(pp, [])
    for f in seeds if seeds is not None else [default_seed(pp)]:
        sset.add(f)

    vals = sset.minimum().values
    sweeps, dec = _sweep(pp, vals, max_sweeps)
    if not dec < 1e-10:
        raise IterationLimitError(
            f"perron sweeps did not converge in {max_sweeps} sweeps (last decrement {dec})"
        )

    spacing = math.log(pp.domain[1] / pp.domain[0]) / (pp.nodes - 1)
    stride = math.ceil(spacing * (_WINDOW_NODES - 1) / _WINDOW_WIDTH)
    r, u = _solve_window(
        pp,
        pp.domain[0],
        pp.domain[1],
        ("robin", alpha),
        ("dirichlet", pp.boundary_value),
        nodes=stride * (pp.nodes - 1) + 1,
    )
    polished = u[::stride]
    gap = float(np.max(np.abs(polished - vals)))
    if gap > 1e-6 * pp.boundary_value * (pp.domain[0] / pp.domain[1]) ** alpha:
        raise IterationLimitError(f"sweep iterate and global solve disagree by {gap}")

    residual = radial_operator_residual(pp.cone, pp.lam, RadialProfile(r, u))
    checks = tuple(
        bool(np.all(polished <= v + 1e-9 * np.abs(v))) for v in (m.values for m in sset.members)
    )
    c_fit = pp.boundary_value / pp.domain[1] ** alpha
    return PerronResult(
        profile=RadialProfile(pp.grid, polished),
        alpha=alpha,
        c=c_fit,
        iterations=sweeps,
        residual=residual,
        minimality_checks=checks,
        last_decrement=dec,
    )


def perron_minimal(pp: PerronProblem, seeds=None) -> RadialProfile:
    return perron_minimal_detailed(pp, seeds=seeds).profile


# ---------------------------------------------------------------------------
# cutoff functions (Lemma-style ratio inequalities)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffSpec:
    """chi with chi(0) = 1, chi = 0 on [1, inf), chi' < 0, chi'' > 0 and the
    two ratio inequalities chi'' >= -K chi' and chi'' >= K chi on (-1, 1).

    Construction: chi = exp(-(M t + t/(1-t))) for t < 1, zero beyond; the
    extra linear rate M = max(2K, 4) gives both ratio inequalities a margin.
    """

    delta: float
    rate: float
    margins: dict

    def jet(self, t):
        t = np.asarray(t, dtype=float)
        below = t < 1.0
        ts = np.where(below, t, 0.0)
        one_m = 1.0 - ts
        psi = np.minimum(self.rate * ts + ts / one_m, 700.0)
        dpsi = self.rate + 1.0 / one_m**2
        d2psi = 2.0 / one_m**3
        chi = np.exp(-psi)
        d1 = -dpsi * chi
        d2 = (dpsi**2 - d2psi) * chi
        zero = np.zeros_like(chi)
        return Jet(
            np.where(below, chi, zero),
            np.where(below, d1, zero),
            np.where(below, d2, zero),
        )


def make_cutoff(K, delta):
    """CutoffSpec with rate max(2K, 4) and its four margins in closed form
    (ResolutionError if one is not positive, NaN and overflow included).

    chi = e^{-psi} > 0, so the four inequalities divided by chi are
    conditions on psi alone.  With u = 1/(1-t) > 1/2, psi' = rate + u^2
    increases in u, and so does each of chi''/chi = psi'^2 - 2u^3,
    chi''/chi - K psi' and chi''/chi - K: their derivatives are
    2u (2u^2 - 3u + c) with c >= 2 rate - K >= 6 > 9/8.  So each margin's
    infimum on (-1, 1) is its value at u = 1/2, that is t -> -1."""
    if not (0 < K < np.inf and 0 < delta < np.inf):
        raise ParameterError("K and delta must be positive and finite")
    rate = max(2.0 * K, 4.0)
    dpsi = rate + 0.25
    curv = dpsi**2 - 0.25  # = chi''/chi
    margins = {
        "chi_prime_negative": dpsi,
        "chi_second_positive": curv,
        "ratio_vs_slope": curv - K * dpsi,
        "ratio_vs_value": curv - K,
    }
    if not all(v > 0 for v in margins.values()):
        raise ResolutionError(f"cutoff rate {rate} fails its margins for K = {K}: {margins}")
    return CutoffSpec(delta=delta, rate=rate, margins=margins)


# ---------------------------------------------------------------------------
# crease smoothing
# ---------------------------------------------------------------------------

def _quintic_step_jet(y):
    """C^2 smoothstep 6y^5 - 15y^4 + 10y^3 clamped to [0, 1]."""
    y = np.asarray(y, dtype=float)
    yc = np.clip(y, 0.0, 1.0)
    f = ((6.0 * yc - 15.0) * yc + 10.0) * yc**3
    d1 = 30.0 * yc**2 * (yc - 1.0) ** 2
    d2 = 60.0 * yc * (yc - 1.0) * (2.0 * yc - 1.0)
    inside = (y > 0.0) & (y < 1.0)
    zero = np.zeros_like(f)
    return Jet(f, np.where(inside, d1, zero), np.where(inside, d2, zero))


def crease_smooth(f1: RadialProfile, f2: RadialProfile, crossing, eta, K, cone: ConeSpec):
    """Blend two strict supersolutions crossing transversally at ``crossing``.

    f2 is the inner (tip-side) profile, f1 the outer one; both need
    analytic jets.  The blend subtracts eta * chi from each side with the
    cutoff width fixed by C^1 matching of the derivative gap, then merges
    with a C^2 convex step.  The result is positive, agrees with the
    respective side outside the window, and satisfies the strict operator
    inequality -Delta f + kappa scal f > 0 at every sample.

    Returns (profile, report); the report holds the derivative gap, the
    cutoff width delta, eta, the operator margin and the blend window."""
    if f1.jet_fn is None or f2.jet_fn is None:
        raise DomainError("crease smoothing needs analytic jets on both profiles")
    rstar = float(crossing)
    j1s, j2s = f1.jet_fn(np.array([rstar])), f2.jet_fn(np.array([rstar]))
    v1, v2 = float(j1s.f[0]), float(j2s.f[0])
    if abs(v1 - v2) > 1e-8 * max(abs(v1), abs(v2)):
        raise DomainError(f"profiles do not cross at {rstar}: {v1} vs {v2}")
    # x1 = rstar - r points toward the tip; gap = d(f1-f2)/dx1 > 0 required
    gap = -(float(j1s.d1[0]) - float(j2s.d1[0]))
    if gap <= 0:
        raise NoCreaseError(f"normal-derivative gap {gap} <= 0")

    chi = make_cutoff(K, 1.0)
    psi0 = chi.rate + 1.0  # = -chi'(0)
    delta = 2.0 * eta * psi0 / gap
    r_lo, r_hi = rstar - delta, rstar + delta
    if r_lo <= max(f1.grid[0], f2.grid[0]) or r_hi >= min(f1.grid[-1], f2.grid[-1]):
        raise ParameterError(
            f"smoothing window [{r_lo}, {r_hi}] exceeds the common domain; "
            "reduce eta or increase the gap"
        )

    grid = f1.grid[(f1.grid >= f2.grid[0]) & (f1.grid <= f2.grid[-1])]

    # The C^2 merge may evaluate each one-sided blend only a whisker past the
    # crease: chi grows like e^{rate |t|} for t < 0, so the merge halfwidth is
    # scaled down by the cutoff's logarithmic slope at 0.
    merge_half = delta / (4.0 * psi0)

    def chi_clamped(arg: Jet) -> Jet:
        # below t = -1 the merge weight is exactly 0 or 1; freeze the cutoff
        # argument there so its (irrelevant) values stay finite
        lo = arg.f < -1.0
        frozen = Jet(
            np.where(lo, -1.0, arg.f),
            np.where(lo, 0.0, arg.d1),
            np.where(lo, 0.0, arg.d2),
        )
        return jet_compose(chi.jet, frozen)

    def blend_jet(r):
        r = np.asarray(r, dtype=float)
        # x1 = rstar - r, so d/dr = -d/dx1: build jets directly in r
        x1_of_r = Jet(rstar - r, -np.ones_like(r), np.zeros_like(r))
        jf1, jf2 = f1.jet_fn(r), f2.jet_fn(r)
        chi_plus = chi_clamped(x1_of_r * (1.0 / delta))
        chi_minus = chi_clamped(x1_of_r * (-1.0 / delta))
        g_plus = jf2 - chi_plus * eta
        g_minus = jf1 - chi_minus * eta
        y = (x1_of_r + merge_half) * (1.0 / (2.0 * merge_half))
        sigma = jet_compose(_quintic_step_jet, y)
        # two-weight form: where a weight is exactly 0 it annihilates the
        # frozen (large) cutoff values of the opposite side
        co_sigma = Jet(1.0 - sigma.f, -sigma.d1, -sigma.d2)
        return sigma * g_plus + co_sigma * g_minus

    jout = blend_jet(grid)
    if np.any(jout.f <= 0):
        raise ParameterError("blend lost positivity; reduce eta")
    op_vals = operator_value_jet(cone, jout, grid)
    margin = float(op_vals.min())
    if margin <= 0:
        raise ParameterError(
            f"operator inequality fails after blending (margin {margin}); "
            "increase K or decrease eta"
        )
    out = RadialProfile(grid, jout.f, jet_fn=blend_jet)
    return out, {
        "gap": gap,
        "delta": delta,
        "eta": eta,
        "margin": margin,
        "window": (r_lo, r_hi),
    }
