"""Tests for the Perron machinery: local solves, supersolutions, minimal
solutions, indicial exponents, cutoffs and crease smoothing."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from conelab import cli
from conelab import perron as pn
from conelab import spectral as sp
from conelab.cones import CATALOG, RadialProfile, catalog_cones, make_cone
from conelab.errors import (
    BallTooLargeError,
    ComplexIndicialError,
    DomainError,
    IterationLimitError,
    NoCreaseError,
    NotSupersolutionError,
    OutOfBandError,
    ParameterError,
    ResolutionError,
)
from conelab.jets import jet_power
from oracles import cartan_cone, perron_sweep_allocating


@pytest.fixture
def simons():
    return make_cone(3, 3)


@pytest.fixture
def problem(simons):
    return pn.PerronProblem(cone=simons, lam=0.125, domain=(0.01, 1.0), boundary_value=1.0)


def _nodes(pp, radii):
    """Index window of the first problem-grid nodes at or above ``radii``."""
    return tuple(int(i) for i in np.searchsorted(pp.grid, radii))


# ---------------------------------------------------------------------------
# indicial exponents
# ---------------------------------------------------------------------------

class TestIndicial:
    def test_simons_eighth(self, simons):
        alpha, beta = sp.indicial_exponent(simons, 0.125)
        assert np.isclose(alpha, -2.5 + np.sqrt(6.25 - (5 / 24 + 0.125) * 6))
        assert np.isclose(alpha, -0.4384471871911697)
        assert np.isclose(alpha + beta, -(simons.n - 2))

    def test_defining_quadratic(self, simons):
        for lam in (0.125, 0.3, 0.7):
            alpha, _ = sp.indicial_exponent(simons, lam)
            coupling = (simons.kappa + lam) * 6
            assert abs(alpha**2 + (simons.n - 2) * alpha + coupling) < 1e-12

    def test_double_root_at_threshold(self, simons):
        lam_max = sp.indicial_lambda_max(simons)
        assert np.isclose(lam_max, 5.0 / 6.0)  # coincides with the limit eigenvalue
        alpha, beta = sp.indicial_exponent(simons, lam_max)
        assert np.isclose(alpha, -2.5) and np.isclose(beta, -2.5)

    def test_complex_raises_with_threshold(self, simons):
        with pytest.raises(ComplexIndicialError) as exc:
            sp.indicial_exponent(simons, 0.9)
        assert np.isclose(exc.value.lambda_max, 5.0 / 6.0)

    def test_band_lower_end(self, simons):
        with pytest.raises(OutOfBandError):
            sp.indicial_exponent(simons, 0.0)

    def test_nan_lambda_rejected(self, simons):
        # NaN compares false both ways: it must not pass as a root pair
        with pytest.raises(OutOfBandError):
            sp.indicial_exponent(simons, float("nan"))

    def test_monotone_in_lambda(self, simons):
        lams = np.linspace(0.125, 0.8, 12)
        alphas = [sp.indicial_exponent(simons, l)[0] for l in lams]
        assert np.all(np.diff(alphas) < 0)

    @pytest.mark.parametrize("c, lam", [
        *(pytest.param(make_cone(3, 3), lam, id=str(lam)) for lam in (0.125, 0.25, 0.5)),
        # every catalog cone across its admissible band, up to the upper end
        *(pytest.param(c, float(lam), id=f"{c.p}x{c.q}-{i}") for c in catalog_cones()
          for i, lam in enumerate(np.linspace(0.125, sp.indicial_lambda_max(c) - 1e-6, 9))),
    ])
    def test_shooting_oracle(self, c, lam):
        # integrate the radial ODE from r=1 with the r^alpha jet; the solution
        # must remain r^alpha to high accuracy
        from scipy.integrate import solve_ivp

        alpha, alpha_minus = sp.indicial_exponent(c, lam)
        half = (c.n - 2.0) / 2.0
        assert -half < alpha < 0.0  # exactly one root in the band
        assert alpha_minus <= -half  # the other sits outside
        coupling = (c.kappa + lam) * (c.p + c.q)
        n = c.n

        def rhs(s, y):  # log-radius form: u'' + (n-2) u' + coupling u = 0
            return [y[1], -(n - 2) * y[1] - coupling * y[0]]

        sol = solve_ivp(
            rhs, (0.0, -3.0), [1.0, alpha], rtol=1e-12, atol=1e-14,
            t_eval=np.linspace(0.0, -3.0, 40),
        )
        expected = np.exp(alpha * sol.t)
        assert np.max(np.abs(sol.y[0] - expected) / expected) < 1e-6


# ---------------------------------------------------------------------------
# local solvability
# ---------------------------------------------------------------------------

class TestLocalSolve:
    def test_reproduces_power_solution(self, problem, simons):
        alpha, _ = sp.indicial_exponent(simons, problem.lam)
        win = _nodes(problem, (0.25, 0.5))
        sol = pn.local_solve(problem, win, problem.grid[list(win)] ** alpha)
        np.testing.assert_array_equal(sol.grid, problem.grid[win[0]:win[1] + 1])
        np.testing.assert_allclose(sol.values, sol.grid**alpha, rtol=1e-10)

    def test_window_longer_than_the_schedule_rejected(self, problem):
        # the window solve resolves only the widths of the sweep schedule
        with pytest.raises(BallTooLargeError):
            pn.local_solve(problem, (0, problem.nodes - 1), (1.0, 1.0))

    @pytest.mark.parametrize("win", [(0.25, 0.5), (10, 10), (20, 10), (-1, 10), (10, 2000),
                                     (10.0, 20.0), (True, 10), (1, 2, 3)])
    def test_window_must_be_a_node_index_pair(self, problem, win):
        # radii, empty, reversed or out-of-range pairs are typed errors
        with pytest.raises(DomainError):
            pn.local_solve(problem, win, (1.0, 1.0))
        with pytest.raises(DomainError):
            pn.lift(problem, pn.default_seed(problem), win)

    @pytest.mark.parametrize("nodes", [*range(0, 21), 2.5, 400.0, True, "400", None])
    def test_coarse_or_non_integer_nodes_rejected(self, simons, nodes):
        # below 21 nodes on (0.02, 1) some window ends snap to one node
        with pytest.raises(ParameterError):
            pn.PerronProblem(cone=simons, lam=0.2, domain=(0.02, 1.0), boundary_value=1.0, nodes=nodes)

    def test_problem_grid_built_once_and_read_only(self, problem):
        grid = problem.grid
        assert problem.grid is grid and not grid.flags.writeable
        np.testing.assert_array_equal(grid, np.geomspace(*problem.domain, problem.nodes))
        with pytest.raises(ValueError):
            grid[0] = 1.0

    def test_coarse_grids_that_pass_construction_solve(self, simons):
        for nodes in range(21, 61):
            pp = pn.PerronProblem(cone=simons, lam=0.2, domain=(0.02, 1.0), boundary_value=1.0,
                                  nodes=nodes)
            assert pn.perron_minimal_detailed(pp).iterations < 400

    def test_problem_validation(self, simons):
        with pytest.raises(DomainError):
            pn.PerronProblem(cone=simons, lam=0.125, domain=(1.0, 0.5), boundary_value=1.0)
        with pytest.raises(OutOfBandError):
            pn.PerronProblem(cone=simons, lam=0.9, domain=(0.1, 1.0), boundary_value=1.0)
        for c in (cartan_cone(2), cartan_cone(4)):  # the band ends at the radial threshold
            with pytest.raises(OutOfBandError):
                pn.PerronProblem(cone=c, lam=sp.indicial_lambda_max(c), domain=(0.1, 1.0), boundary_value=1.0)
        with pytest.raises(DomainError):
            pn.PerronProblem(cone=simons, lam=0.125, domain=(0.1, 1.0), boundary_value=-1.0)

    def test_domain_too_narrow_for_any_window_rejected(self, simons):
        # ln(1/0.95) is below a fifth of the level-1 width: the schedule is
        # empty, so neither the sweep nor the comparison test would read a window
        with pytest.raises(DomainError):
            pn.PerronProblem(cone=simons, lam=0.125, domain=(0.95, 1.0), boundary_value=1.0)


@pytest.mark.parametrize("nodes", [400, 2000])
@pytest.mark.parametrize("r_in", [0.005, 0.02, 0.1])
@pytest.mark.parametrize("frac", [0.5, 0.95, 0.999])
@pytest.mark.parametrize("shape", CATALOG, ids=lambda s: f"{s[0]}x{s[1]}")
def test_every_scheduled_window_is_admissible(shape, frac, r_in, nodes):
    # with u = r^{-(n-2)/2} v, (LO) in s = ln r reads v'' = disc v with
    # disc >= 0 on the whole band, so every window's Dirichlet problem has a
    # positive Green function: each scheduled window solves, its basis is
    # nonnegative and it reproduces both power solutions r^{alpha+-}
    cone = make_cone(*shape)
    lam = 0.125 + frac * (sp.indicial_lambda_max(cone) - 0.125)
    pp = pn.PerronProblem(cone=cone, lam=lam, domain=(r_in, 1.0), boundary_value=1.0, nodes=nodes)
    alphas = sp.indicial_exponent(cone, lam)
    for win in pn._window_schedule(pp):
        assert pn._window_basis(pp, win, False)[1].min() >= -1e-15
        for alpha in alphas:
            sol = pn.local_solve(pp, win, pp.grid[list(win)] ** alpha)
            exact = sol.grid**alpha
            assert np.max(np.abs(sol.values - exact) / exact) <= 1e-9


# ---------------------------------------------------------------------------
# supersolutions and lifts
# ---------------------------------------------------------------------------

class TestIsSupersolution:
    def test_exact_solution_passes(self, problem, simons):
        alpha, _ = sp.indicial_exponent(simons, problem.lam)
        grid = problem.grid
        f = RadialProfile(grid, grid**alpha)
        ok, witness = pn.is_supersolution(problem, f)
        assert ok and witness is None

    def test_hardy_power_passes(self, problem):
        ok, _ = pn.is_supersolution(problem, pn.default_seed(problem))
        assert ok

    def test_constant_fails_with_witness(self, problem):
        grid = problem.grid
        f = RadialProfile(grid, np.ones_like(grid))
        ok, witness = pn.is_supersolution(problem, f)
        assert not ok
        assert witness["excess"] > 0
        assert witness["window"] in pn._window_schedule(problem)

    def test_shifted_power_fails(self, problem, simons):
        # r^alpha + c is *not* a supersolution: the zeroth-order term acts on
        # the constant with the wrong sign
        alpha, _ = sp.indicial_exponent(simons, problem.lam)
        grid = problem.grid
        f = RadialProfile(grid, grid**alpha + 0.5)
        ok, witness = pn.is_supersolution(problem, f)
        assert not ok and witness["excess"] > 0

    def test_nonpositive_rejected(self, problem):
        grid = problem.grid
        vals = np.ones_like(grid)
        vals[3] = -1.0
        ok, witness = pn.is_supersolution(problem, RadialProfile(grid, vals))
        assert not ok and witness["reason"] == "not positive"


class TestLift:
    def test_lowers_strict_supersolution(self, problem):
        seed = pn.default_seed(problem)
        lifted = pn.lift(problem, seed, _nodes(problem, (0.25, 0.5)))
        assert np.all(lifted.values <= seed.values + 1e-12)
        inside = (lifted.grid > 0.26) & (lifted.grid < 0.49)
        assert np.all(lifted.values[inside] < seed.values[inside])

    def test_identity_outside_window(self, problem):
        seed = pn.default_seed(problem)
        i0, i1 = _nodes(problem, (0.25, 0.5))
        lifted = pn.lift(problem, seed, (i0, i1))
        np.testing.assert_array_equal(lifted.values[:i0], seed.values[:i0])
        np.testing.assert_array_equal(lifted.values[i1 + 1:], seed.values[i1 + 1:])

    def test_result_is_still_supersolution(self, problem):
        lifted = pn.lift(problem, pn.default_seed(problem), _nodes(problem, (0.25, 0.5)))
        ok, _ = pn.is_supersolution(problem, lifted)
        assert ok

    def test_rejects_non_supersolution(self, problem):
        grid = problem.grid
        f = RadialProfile(grid, np.ones_like(grid))
        with pytest.raises(NotSupersolutionError):
            pn.lift(problem, f, _nodes(problem, (0.25, 0.5)))

    def test_rejects_window_longer_than_the_schedule(self, problem):
        with pytest.raises(BallTooLargeError):
            pn.lift(problem, pn.default_seed(problem), (0, problem.nodes - 1))


# ---------------------------------------------------------------------------
# cached window basis against direct window solves
# ---------------------------------------------------------------------------

def _reference_local(pp, win, inner_bc, outer):
    """Direct solve on index window ``win`` with its spline projection onto
    the problem-grid nodes of the window (the per-lift path that the basis
    replaces): (slice, values)."""
    sl = slice(win[0], win[1] + 1)
    grid = pp.grid[sl]
    r, u = pn._solve_window(pp, grid[0], grid[-1], inner_bc, ("dirichlet", outer))
    return sl, CubicSpline(np.log(r), u)(np.log(grid))


def _reference_is_supersolution(pp, f, rtol=1e-7):
    """Comparison test by direct local solves, projected as in
    ``_reference_local``: (verdict, violating window)."""
    v = f.values
    for win in pn._window_schedule(pp):
        sl, local = _reference_local(pp, win, ("dirichlet", v[win[0]]), v[win[1]])
        if np.max(local - v[sl]) > rtol * np.abs(v).max():
            return False, win
    return True, None


@st.composite
def _window_problems(draw):
    """(problem, window) with a catalog cone, lam up to 0.999 of the way from
    1/8 to lambda0 and a window of the sweep schedule."""
    cone = make_cone(*draw(st.sampled_from(CATALOG)))
    lam0 = sp.indicial_lambda_max(cone)
    lam = 0.125 + draw(st.floats(0.0, 0.999)) * (lam0 - 0.125)
    r_in = draw(st.floats(0.005, 0.1))
    pp = pn.PerronProblem(cone=cone, lam=lam, domain=(r_in, 1.0), boundary_value=1.0, nodes=400)
    windows = pn._window_schedule(pp)
    return pp, windows[draw(st.integers(0, len(windows) - 1))]


_end_value = st.floats(1e-3, 1e3)


class TestWindowBasis:
    @settings(max_examples=30, deadline=None)
    @given(case=_window_problems(), a=_end_value, b=_end_value)
    def test_lift_matches_direct_solve(self, case, a, b):
        pp, win = case
        grid = pp.grid
        # f is far above any local solution inside the window, so the lift
        # returns the local solution there
        vals = np.full_like(grid, 1e9)
        vals[list(win)] = a, b
        f = RadialProfile(grid, vals)
        lifted = pn.lift(pp, f, win, check=False)
        # the basis is solved on the first window of its length (see
        # test_basis_is_keyed_on_window_length for the window's own ends)
        _, local = _reference_local(pp, (0, win[1] - win[0]), ("dirichlet", a), b)
        sl = slice(win[0], win[1] + 1)
        np.testing.assert_allclose(lifted.values[sl], local, rtol=1e-12, atol=0)
        outside = np.r_[0:win[0], win[1] + 1:pp.nodes]
        np.testing.assert_array_equal(lifted.values[outside], vals[outside])

    @settings(max_examples=30, deadline=None)
    @given(case=_window_problems(), b=_end_value)
    def test_robin_tip_window_matches_direct_solve(self, case, b):
        pp, _ = case
        tip = min(pn._window_schedule(pp))
        assert tip[0] == 0
        alpha, _ = sp.indicial_exponent(pp.cone, pp.lam)
        sl, rows = pn._window_basis(pp, tip, True)
        ref_sl, local = _reference_local(pp, tip, ("robin", alpha), b)
        assert sl == ref_sl
        np.testing.assert_allclose(b * rows[0], local, rtol=1e-12, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(
        case=_window_problems(),
        t=st.floats(-0.25, 1.25),
        wiggle=st.floats(0.0, 0.02),
    )
    def test_supersolution_verdicts_match_direct_solves(self, case, t, wiggle):
        pp, win = case
        grid = pp.grid
        # r^beta is a supersolution iff beta lies between the indicial roots;
        # t outside [0, 1] and the ripple give both verdicts
        alpha_p, alpha_m = sp.indicial_exponent(pp.cone, pp.lam)
        beta = alpha_m + t * (alpha_p - alpha_m)
        seed = RadialProfile(grid, grid**beta * (1.0 + wiggle * np.sin(7.0 * np.log(grid))))
        for f in (seed, pn.lift(pp, seed, win, check=False)):
            ok, witness = pn.is_supersolution(pp, f)
            assert (ok, witness and witness["window"]) == _reference_is_supersolution(pp, f)

    @settings(max_examples=30, deadline=None)
    @given(case=_window_problems())
    def test_basis_is_keyed_on_window_length(self, case):
        pp, win = case
        # windows of equal length share one rows array
        _, rows = pn._window_basis(pp, win, False)
        for other in pn._window_schedule(pp):
            if other[1] - other[0] == win[1] - win[0]:
                assert pn._window_basis(pp, other, False)[1] is rows
        # A direct solve at the window's own ends differs from the shared rows
        # only through the rounding of ln r0, ln r1 and h: relative data
        # perturbations of order eps, amplified by the condition number of
        # the banded (LO) system, (4/h^2) / (pi/L)^2 = 4 (N-1)^2 / pi^2 with
        # N = 2001 nodes in the fine solve, and by 5/3 in the Richardson
        # combination (4 fine - coarse) / 3: together below eps * N^2.
        n_fine = 2 * pn._WINDOW_NODES - 1
        bound = np.finfo(float).eps * n_fine**2
        for row, (a, b) in zip(rows, [(1.0, 0.0), (0.0, 1.0)]):
            _, direct = _reference_local(pp, win, ("dirichlet", a), b)
            assert np.max(np.abs(row - direct)) <= bound * np.max(np.abs(direct))

    def test_profile_off_the_problem_grid(self):
        # Perron profiles live on the problem grid: one sampled elsewhere is
        # a typed error in the comparison test, lifts and supersolution sets
        pp = pn.PerronProblem(cone=make_cone(3, 3), lam=0.2, domain=(0.02, 1.0),
                              boundary_value=1.0, nodes=400)
        grid = np.geomspace(0.02, 1.0, 777)
        hardy = RadialProfile(grid, grid ** (-(pp.cone.n - 2.0) / 2.0))
        with pytest.raises(DomainError):
            pn.is_supersolution(pp, hardy)
        with pytest.raises(DomainError):
            pn.lift(pp, hardy, pn._window_schedule(pp)[0], check=False)
        with pytest.raises(DomainError):
            pn.SupersolutionSet(pp).add(hardy)
        # the same function on the problem grid passes
        assert pn.is_supersolution(pp, pn.default_seed(pp)) == (True, None)

    def test_off_grid_values_between_nodes_are_not_read(self):
        # a seed on a refinement of the problem grid, whose dip between two
        # problem-grid nodes no node value shows, is rejected by a Perron run
        # instead of being read at the problem-grid nodes only
        pp = pn.PerronProblem(cone=make_cone(3, 3), lam=0.2, domain=(0.02, 1.0),
                              boundary_value=1.0, nodes=400)
        fine = np.geomspace(0.02, 1.0, 10 * (pp.nodes - 1) + 1)
        vals = fine ** (-(pp.cone.n - 2.0) / 2.0)
        vals[10 * 200 + 5] *= 1e-3  # halfway between problem-grid nodes 200 and 201
        dipped = RadialProfile(fine, vals)
        with pytest.raises(DomainError):
            pn.perron_minimal_detailed(pp, seeds=[dipped])


class TestSupersolutionSet:
    def test_minimum_of_members(self, problem, simons):
        alpha, _ = sp.indicial_exponent(simons, problem.lam)
        grid = problem.grid
        s = pn.SupersolutionSet(problem)
        s.add(pn.default_seed(problem))
        s.add(RadialProfile(grid, 2.0 * grid**alpha))
        m = s.minimum()
        assert np.all(m.values <= s.members[0].values + 1e-12)
        assert np.all(m.values <= s.members[1].values + 1e-12)

    def test_add_rejects_bad_member(self, problem):
        s = pn.SupersolutionSet(problem)
        grid = problem.grid
        with pytest.raises(NotSupersolutionError):
            s.add(RadialProfile(grid, np.ones_like(grid) + grid))

    def test_empty_minimum(self, problem):
        with pytest.raises(DomainError):
            pn.SupersolutionSet(problem).minimum()


# ---------------------------------------------------------------------------
# minimal solution
# ---------------------------------------------------------------------------

# (cone, band fraction, r_in) of the band probe below that hit the 400-sweep
# cap: the absolute stopping test dec < 1e-10 is out of reach once the
# iterate's maximum r_in^alpha is large, although the sweep has converged to
# roundoff; a decrement test relative to max(vals) would end them
_SWEEP_CAP_HITS = {
    ((3, 3), 0.8, 0.01), ((3, 3), 0.9, 0.005), ((3, 3), 0.95, 0.005), ((3, 3), 0.95, 0.01),
    ((3, 3), 0.95, 0.02), ((4, 3), 0.9, 0.01), ((4, 3), 0.95, 0.005), ((4, 3), 0.95, 0.01),
    ((4, 4), 0.9, 0.005), ((4, 4), 0.9, 0.01), ((4, 4), 0.9, 0.02), ((4, 4), 0.95, 0.005),
    ((4, 4), 0.95, 0.01), ((5, 4), 0.9, 0.005), ((5, 4), 0.9, 0.01), ((5, 4), 0.95, 0.005),
}


def _band_probe():
    """Every catalog cone x band fractions x inner radii, at 400 nodes."""
    for c in catalog_cones():
        for frac in (0.5, 0.8, 0.9, 0.95):
            for r_in in (0.005, 0.01, 0.02, 0.1):
                case = ((c.p, c.q), frac, r_in)
                marks = [pytest.mark.xfail(strict=True, raises=IterationLimitError,
                                           reason="absolute decrement test: sweep cap")
                         ] if case in _SWEEP_CAP_HITS else []
                yield pytest.param(*case, marks=marks, id=f"{c.p}x{c.q}-{frac}-{r_in}")


class TestPerronMinimal:
    def test_recovers_power_solution(self, problem, simons):
        res = pn.perron_minimal_detailed(problem)
        exact = res.c * res.profile.grid**res.alpha
        assert np.max(np.abs(res.profile.values - exact)) < 1e-4
        assert res.residual < 1e-8

    def test_below_all_seeds(self, problem, simons):
        alpha, _ = sp.indicial_exponent(simons, problem.lam)
        grid = problem.grid
        seeds = [
            pn.default_seed(problem),
            RadialProfile(grid, 3.0 * grid**alpha),
        ]
        res = pn.perron_minimal_detailed(problem, seeds=seeds)
        assert all(res.minimality_checks)
        for s in seeds:
            assert np.all(res.profile.values <= s.values + 1e-9 * np.abs(s.values))

    def test_other_lambda(self, simons):
        pp = pn.PerronProblem(cone=simons, lam=0.4, domain=(0.02, 1.0), boundary_value=2.0)
        res = pn.perron_minimal_detailed(pp)
        exact = res.c * res.profile.grid**res.alpha
        assert np.max(np.abs(res.profile.values - exact) / exact) < 1e-6
        assert res.residual < 1e-8

    def test_profile_api(self, problem):
        prof = pn.perron_minimal(problem)
        assert isinstance(prof, RadialProfile)
        assert prof.values.min() > 0

    def test_sweep_record(self, problem):
        res = pn.perron_minimal_detailed(problem)
        assert 0 <= res.last_decrement < 1e-10

    @pytest.mark.parametrize("frac", [None, 0.8])
    def test_sweep_equals_the_allocating_loop(self, problem, frac):
        # the bundled problem (69 sweeps), and the (3,3) problem at 0.8 of the
        # band, which stops at the 400-sweep cap: same iterate to the bit
        if frac is not None:
            lam = 0.125 + frac * (sp.indicial_lambda_max(problem.cone) - 0.125)
            problem = pn.PerronProblem(cone=problem.cone, lam=lam, domain=(0.01, 1.0), boundary_value=1.0)
        start = pn.default_seed(problem).values
        vals, ref = start.copy(), start.copy()
        got, want = pn._sweep(problem, vals, 400), perron_sweep_allocating(problem, ref, 400)
        assert got == want and got[0] == (69 if frac is None else 400)
        assert vals.tobytes() == ref.tobytes()

    def test_zero_sweep_budget_rejected(self, problem):
        with pytest.raises(ParameterError):
            pn.perron_minimal_detailed(problem, max_sweeps=0)

    @settings(max_examples=20, deadline=None)
    @given(
        shape=st.sampled_from([(3, 3), (4, 3)]),
        frac=st.floats(0.0, 0.7),
        r_in=st.floats(0.005, 0.1),
    )
    @example(shape=(3, 3), frac=0.5, r_in=0.02)
    def test_minimal_solution_passes_its_own_test(self, shape, frac, r_in):
        # lifts and the comparison test share one window basis, so the
        # polished result is a supersolution of its own problem
        cone = make_cone(*shape)
        lam = 0.125 + frac * (sp.indicial_lambda_max(cone) - 0.125)
        pp = pn.PerronProblem(cone=cone, lam=lam, domain=(r_in, 1.0), boundary_value=1.0, nodes=400)
        res = pn.perron_minimal_detailed(pp)
        assert res.iterations < 400
        ok, witness = pn.is_supersolution(pp, res.profile)
        assert ok, witness

    @pytest.mark.parametrize("shape, frac, r_in", _band_probe())
    def test_band_probe(self, shape, frac, r_in):
        # across the band the result is a supersolution of its own problem,
        # below its seed and the exact minimal solution (r/r_out)^alpha
        cone = make_cone(*shape)
        lam = 0.125 + frac * (sp.indicial_lambda_max(cone) - 0.125)
        pp = pn.PerronProblem(cone=cone, lam=lam, domain=(r_in, 1.0), boundary_value=1.0, nodes=400)
        res = pn.perron_minimal_detailed(pp)
        assert pn.is_supersolution(pp, res.profile) == (True, None)
        assert all(res.minimality_checks)
        exact = res.c * pp.grid**res.alpha
        assert np.max(np.abs(res.profile.values - exact)) <= 1e-7 * exact.max()

    def test_window_solves_per_run(self, monkeypatch, tmp_path):
        # each (window length, inner condition) is solved once per problem:
        # 7 Dirichlet lengths at 2 solves each, 2 Robin tip windows at 1,
        # and the global polish
        calls = []
        solve = pn._solve_window
        monkeypatch.setattr(pn, "_solve_window", lambda *a, **k: calls.append(a[1:3]) or solve(*a, **k))
        data = cli.load_scenario(str(cli.bundled_scenarios()["perron"]))
        data["checks"] = [e for e in data["checks"] if e["check"] == "perron-minimal"]
        assert cli.run_scenario(data, output_root=tmp_path).status == "pass"
        assert len(calls) == 17


# ---------------------------------------------------------------------------
# a cone off the catalog: a2 = 2(n-1) where a product of spheres has n-1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, frac", [
    *(pytest.param(m, frac, id=f"n{3 * m + 1}-{frac}") for m in (2, 4) for frac in (0.1, 0.3, 0.5)),
    pytest.param(4, 0.7, id="n13-0.7", marks=pytest.mark.xfail(
        strict=True, raises=IterationLimitError, reason="absolute decrement test: sweep cap")),
])
def test_cartan_sweep_recovers_power_solution(m, frac):
    c = cartan_cone(m)
    lam = 0.125 + frac * (sp.indicial_lambda_max(c) - 0.125)
    pp = pn.PerronProblem(cone=c, lam=lam, domain=(0.01, 1.0), boundary_value=1.0, nodes=400)
    res = pn.perron_minimal_detailed(pp)
    exact = res.c * pp.grid**res.alpha
    assert np.max(np.abs(res.profile.values - exact) / exact) < 1e-4
    assert res.residual < 1e-8


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

class TestMakeCutoff:
    @pytest.mark.parametrize("K", [0.5, 3.0, 40.0, 200.0])
    def test_margins_positive(self, K):
        spec = pn.make_cutoff(K, 0.2)
        assert min(spec.margins.values()) > 0

    @settings(max_examples=60, deadline=None)
    @given(K=st.floats(0.0, 1e3, exclude_min=True))
    @example(K=1e-300)
    @example(K=2.0)
    @example(K=1e3)
    def test_margins_are_the_closed_form_infima(self, K):
        spec = pn.make_cutoff(K, 1.0)
        rate = max(2.0 * K, 4.0)
        dpsi = rate + 0.25
        curv = dpsi**2 - 0.25
        assert spec.margins == {
            "chi_prime_negative": dpsi,
            "chi_second_positive": curv,
            "ratio_vs_slope": curv - K * dpsi,
            "ratio_vs_value": curv - K,
        }
        # the infimum at t -> -1 lies at or below every sample of (-1, 1)
        one_m = 1.0 - np.linspace(-1.0, 1.0, 20001)[1:-1]
        dpsi_t = rate + 1.0 / one_m**2
        curv_t = dpsi_t**2 - 2.0 / one_m**3
        sampled = {
            "chi_prime_negative": dpsi_t,
            "chi_second_positive": curv_t,
            "ratio_vs_slope": curv_t - K * dpsi_t,
            "ratio_vs_value": curv_t - K,
        }
        for name, values in sampled.items():
            assert spec.margins[name] <= values.min()

    def test_endpoint_values(self):
        spec = pn.make_cutoff(3.0, 1.0)
        j = spec.jet(np.array([0.0, 1.0, 2.0]))
        assert np.isclose(j.f[0], 1.0)
        assert j.f[1] == 0.0 and j.f[2] == 0.0
        assert j.d1[1] == 0.0 and j.d2[1] == 0.0

    def test_invariants_on_dense_samples(self):
        K = 5.0
        spec = pn.make_cutoff(K, 0.3)
        t = np.linspace(-0.999, 0.999, 20011)
        j = spec.jet(t)
        assert np.all(j.f > 0)
        assert np.all(j.d1 < 0)
        assert np.all(j.d2 > 0)
        assert np.all(j.d2 >= -K * j.d1)
        assert np.all(j.d2 >= K * j.f)

    def test_plain_pole_fails_near_zero(self):
        # the bare exp(-K t/(1-t)) profile violates the slope-ratio inequality
        # near t = 0; the linear rate term is what rescues it
        K = 3.0
        t = np.linspace(0.0, 0.5, 1000)
        psi_p = K / (1 - t) ** 2
        psi_pp = 2 * K / (1 - t) ** 3
        assert np.min(psi_p**2 - psi_pp - K * psi_p) < 0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            pn.make_cutoff(-1.0, 0.2)
        with pytest.raises(ParameterError):
            pn.make_cutoff(1.0, 0.0)

    @pytest.mark.parametrize("K, delta", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_parameters_rejected(self, K, delta):
        with pytest.raises(ParameterError):
            pn.make_cutoff(K, delta)

    def test_nan_margin_fails_the_certificate(self, monkeypatch):
        # a NaN rate makes every margin NaN, which certifies nothing
        monkeypatch.setattr(pn, "max", lambda *args: np.nan, raising=False)
        with pytest.raises(ResolutionError):
            pn.make_cutoff(3.0, 1.0)


# ---------------------------------------------------------------------------
# crease smoothing
# ---------------------------------------------------------------------------

def _crossing_pair(c, rstar=0.3, r_lo=0.05, r_hi=1.0):
    """Two strict supersolution branches crossing transversally at rstar:
    the limit-exponent power and a slower mid-band power."""
    a_fast = -(c.n - 2.0) / 2.0
    a_slow, _ = sp.indicial_exponent(c, sp.indicial_lambda_max(c) / 2.0)
    scale = rstar ** (a_fast - a_slow)
    g = np.geomspace(r_lo, r_hi, 4000)
    f1 = RadialProfile(g, g**a_fast, jet_fn=lambda x: jet_power(x, a_fast))
    f2 = RadialProfile(
        g, scale * g**a_slow,
        jet_fn=lambda x: jet_power(x, a_slow) * scale,
    )
    return f1, f2


class TestCreaseSmooth:
    def test_margin_positive(self, simons):
        f1, f2 = _crossing_pair(simons)
        out, rep = pn.crease_smooth(f1, f2, 0.3, eta=0.05, K=10.0, cone=simons)
        assert rep["margin"] > 0
        assert rep["gap"] > 0
        assert out.values.min() > 0

    def test_locality(self, simons):
        f1, f2 = _crossing_pair(simons)
        out, rep = pn.crease_smooth(f1, f2, 0.3, eta=0.05, K=10.0, cone=simons)
        r_lo, r_hi = rep["window"]
        g = out.grid
        left, right = g < r_lo * 0.999, g > r_hi * 1.001
        np.testing.assert_allclose(out.values[left], f2(g[left]), rtol=1e-13)
        np.testing.assert_allclose(out.values[right], f1(g[right]), rtol=1e-13)

    def test_window_shrinks_with_eta(self, simons):
        f1, f2 = _crossing_pair(simons)
        _, rep_small = pn.crease_smooth(f1, f2, 0.3, eta=0.01, K=10.0, cone=simons)
        _, rep_big = pn.crease_smooth(f1, f2, 0.3, eta=0.05, K=10.0, cone=simons)
        assert rep_small["delta"] < rep_big["delta"]
        assert np.isclose(rep_big["delta"] / rep_small["delta"], 5.0)

    def test_c2_continuity(self, simons):
        # second differences of the blend stay bounded through the crease
        f1, f2 = _crossing_pair(simons)
        out, _ = pn.crease_smooth(f1, f2, 0.3, eta=0.05, K=10.0, cone=simons)
        r = np.linspace(0.28, 0.32, 2001)
        j = out.jet_fn(r)
        h = r[1] - r[0]
        d2_fd = np.diff(out.jet_fn(r).f, 2) / h**2
        # inside the merge zone the fourth derivative is large, so the FD
        # probe itself carries noticeable error; 1% of the peak is plenty to
        # rule out a jump discontinuity
        assert np.max(np.abs(d2_fd - j.d2[1:-1])) < 1e-2 * np.max(np.abs(j.d2))

    def test_no_crossing_raises(self, simons):
        f1, f2 = _crossing_pair(simons)
        with pytest.raises(DomainError):
            pn.crease_smooth(f1, f2, 0.5, eta=0.05, K=10.0, cone=simons)

    def test_wrong_order_raises(self, simons):
        f1, f2 = _crossing_pair(simons)
        with pytest.raises(NoCreaseError):
            pn.crease_smooth(f2, f1, 0.3, eta=0.05, K=10.0, cone=simons)

    def test_oversized_window_raises(self, simons):
        f1, f2 = _crossing_pair(simons, r_lo=0.28, r_hi=0.32)
        with pytest.raises(ParameterError):
            pn.crease_smooth(f1, f2, 0.3, eta=5.0, K=10.0, cone=simons)

    def test_needs_jets(self, simons, problem):
        g = problem.grid
        bare = RadialProfile(g, g**-1.0)
        with pytest.raises(DomainError):
            pn.crease_smooth(bare, bare, 0.3, eta=0.05, K=10.0, cone=simons)

    def test_catalog_sweep(self):
        for c in catalog_cones():
            f1, f2 = _crossing_pair(c)
            _, rep = pn.crease_smooth(f1, f2, 0.3, eta=0.02, K=8.0, cone=c)
            assert rep["margin"] > 0


def _problem(**change):
    return pn.PerronProblem(**{"cone": make_cone(3, 3), "lam": 0.125, "domain": (0.01, 1.0),
                               "boundary_value": 1.0, **change})


#: malformed input -> (call, the typed error it raises)
_MALFORMED = {
    "domain-infinite-end": (lambda: _problem(domain=(0.01, np.inf)), DomainError),
    "domain-nan-start": (lambda: _problem(domain=(np.nan, 1.0)), DomainError),
    "domain-not-a-pair": (lambda: _problem(domain=1.0), DomainError),
    "boundary-value-inf": (lambda: _problem(boundary_value=np.inf), DomainError),
    "boundary-value-nan": (lambda: _problem(boundary_value=np.nan), DomainError),
    "max-sweeps-nan": (lambda: pn.perron_minimal_detailed(_problem(), max_sweeps=np.nan), ParameterError),
    "max-sweeps-str": (lambda: pn.perron_minimal_detailed(_problem(), max_sweeps="3"), ParameterError),
    "max-sweeps-fraction": (lambda: pn.perron_minimal_detailed(_problem(), max_sweeps=2.5), ParameterError),
    "max-sweeps-bool": (lambda: pn.perron_minimal_detailed(_problem(), max_sweeps=True), ParameterError),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_raises_typed_error(case):
    call, error = _MALFORMED[case]
    with pytest.raises(error):
        call()


def test_infinite_domain_raises_at_once():
    # the sweep schedule over an infinite domain would never end
    start = time.perf_counter()
    with pytest.raises(DomainError):
        _problem(domain=(0.01, np.inf))
    assert time.perf_counter() - start < 1.0
