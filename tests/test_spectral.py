"""Tests for the weighted eigenvalue machinery."""

import itertools

import numpy as np
import pytest

from conelab import spectral as sp
from conelab.cones import RadialProfile, catalog_cones, make_cone, second_form_norm2
from conelab.errors import ConvergenceError, DomainError, OutOfBandError, ParameterError

from oracles import cartan_cone, lambda0_catalog, shooting_eigen


@pytest.fixture
def simons():
    return make_cone(3, 3)


class TestWeight:
    """The weight of the eigenproblem is |A|^2 = a2/r^2."""

    def test_scaling(self, simons):
        r = np.logspace(-2, 2, 17)
        np.testing.assert_allclose(second_form_norm2(simons, 2 * r), second_form_norm2(simons, r) / 4.0)

    def test_rejects_zero_radius(self, simons):
        with pytest.raises(DomainError):
            second_form_norm2(simons, 0.0)


class TestRayleigh:
    def test_hat_function_above_limit(self, simons):
        # any admissible test function sits above the limit eigenvalue
        r = np.geomspace(0.01, 1.0, 4000)
        s = np.log(r)
        hat = (s - s[0]) * (s[-1] - s) * r ** (-(simons.n - 2) / 2)
        q = sp.rayleigh(simons, RadialProfile(r, hat))
        assert q > lambda0_catalog(simons) - 1e-12

    def test_scale_invariance(self, simons):
        r = np.geomspace(0.1, 1.0, 2000)
        s = np.log(r)
        v = np.sin(np.pi * (s - s[0]) / (s[-1] - s[0]))
        q1 = sp.rayleigh(simons, RadialProfile(r, v))
        q2 = sp.rayleigh(simons, RadialProfile(7 * r, v))
        q3 = sp.rayleigh(simons, RadialProfile(r, 5 * v))
        assert np.isclose(q1, q2, rtol=1e-10)
        assert np.isclose(q1, q3, rtol=1e-12)

    def test_requires_vanishing_ends(self, simons):
        r = np.geomspace(0.1, 1.0, 100)
        with pytest.raises(DomainError):
            sp.rayleigh(simons, RadialProfile(r, np.ones_like(r)))


class TestDirichletEigen:
    def test_positive_and_monotone_in_m(self, simons):
        w = sp.WeightedProblem(cone=simons, r_out=1.0)
        lams = [sp.dirichlet_eigen(w, m).lam for m in (1, 2, 3, 4)]
        assert all(l > 0 for l in lams)
        assert np.all(np.diff(lams) < 0)

    def test_eigenfunction_positive(self, simons):
        w = sp.WeightedProblem(cone=simons, r_out=1.0)
        res = sp.dirichlet_eigen(w, 2)
        assert res.profile.values[1:-1].min() > 0

    def test_fd_matches_shooting(self, simons):
        # Cartan's cones have a2 = 2(n-1), where a product of spheres has n-1
        for c, m in itertools.product((simons, cartan_cone(2), cartan_cone(4)), (1, 2)):
            w = sp.WeightedProblem(cone=c, r_out=1.0)
            r_in, r_out = sp.exhaustion_annulus(w, m)
            fd = sp.dirichlet_eigen(w, m).lam
            shot = shooting_eigen(w, r_in, r_out)
            assert abs(fd - shot) < 1e-6

    def test_closed_form_first_annulus(self, simons):
        # constant-coefficient log form: lambda_1 = (pot + (pi/ln 4)^2)/wgt
        w = sp.WeightedProblem(cone=simons, r_out=1.0)
        pot = (simons.n - 2) ** 2 / 4 - simons.kappa * 6
        expected = (pot + (np.pi / np.log(4.0)) ** 2) / 6.0
        assert abs(sp.dirichlet_eigen(w, 1).lam - expected) < 2e-6

    @pytest.mark.parametrize("c", catalog_cones(), ids=lambda c: f"{c.p}x{c.q}")
    def test_exact_discrete_eigenvalue(self, c):
        # the log-grid operator is Toeplitz tridiagonal: -1/h^2 off the
        # diagonal and 2/h^2 + pot on it, over N - 2 interior nodes, so its
        # smallest eigenvalue is pot + (4/h^2) sin^2(pi/(2(N-1))) exactly
        n, N = c.n, sp._NODES
        pot = (n - 2.0) ** 2 / 4.0 - c.kappa * (c.p + c.q)
        w = sp.WeightedProblem(cone=c, r_out=1.0)
        for m in range(1, 7):
            h = m * np.log(4.0) / (N - 1)
            exact = (pot + 4.0 / h**2 * np.sin(np.pi / (2.0 * (N - 1))) ** 2) / (c.p + c.q)
            np.testing.assert_allclose(sp.dirichlet_eigen(w, m).lam, exact, rtol=1e-9, atol=0)

    def test_annulus_validation(self, simons):
        w = sp.WeightedProblem(cone=simons, r_out=1.0)
        with pytest.raises(DomainError):
            sp.exhaustion_annulus(w, 0)


class TestLambda0:
    def test_simons_value(self, simons):
        assert abs(sp.lambda0(simons) - 5.0 / 6.0) < 1e-3
        assert sp.lambda0(simons) > 0.25

    def test_4_3_value(self):
        assert abs(sp.lambda0(make_cone(4, 3)) - 15.0 / 14.0) < 2e-3

    def test_catalog_closed_form(self):
        for c in catalog_cones():
            assert np.isclose(sp.indicial_lambda_max(c), lambda0_catalog(c))
            assert abs(sp.lambda0(c) - lambda0_catalog(c)) < 2e-3

    def test_scaling_invariance(self, simons):
        base = sp.lambda0(simons, r_out=1.0)
        for s in (0.1, 10.0):
            assert abs(sp.lambda0(simons, r_out=s) - base) < 1e-6

    def test_sequence_nonincreasing(self, simons):
        res = sp.lambda0_detailed(simons)
        assert np.all(np.diff(res.lambda_sequence) <= 0)
        assert res.error_estimate < 1e-8

    @pytest.mark.parametrize("m", [2, 4], ids=["n7", "n13"])
    def test_radial_threshold_off_the_catalog(self, m):
        # on Cartan's cones a2 = 2(n-1): the limit is the radial threshold
        # (n-2)^2/(4 a2) - kappa, far below the catalog identity in n alone
        c = cartan_cone(m)
        assert abs(sp.lambda0_detailed(c).lambda0 - sp.indicial_lambda_max(c)) < 1e-9
        assert sp.indicial_lambda_max(c) == {2: 0.3125, 4: 1.03125}[m]
        assert lambda0_catalog(c) > 2 * sp.indicial_lambda_max(c)

    def test_exhaustion_record(self, simons):
        res = sp.lambda0_detailed(simons)
        assert len(res.lambda_sequence) == len(res.schedule)
        assert res.error_estimate >= 0

    @pytest.mark.parametrize("m_max", [1, 2])
    def test_too_short_exhaustion_rejected(self, simons, m_max):
        # the error estimate compares two Richardson extrapolants
        with pytest.raises(ParameterError):
            sp.lambda0_detailed(simons, m_max=m_max)

    @pytest.mark.parametrize("m_max", [3.5, 6.0, True, "6"])
    def test_fractional_exhaustion_length_rejected(self, simons, m_max):
        # the schedule is range(1, m_max + 1): only a whole count is one
        with pytest.raises(ParameterError, match="integer"):
            sp.lambda0_detailed(simons, m_max=m_max)

    def test_numpy_integer_exhaustion_length_accepted(self, simons):
        assert sp.lambda0_detailed(simons, m_max=np.int64(3)).schedule == (1, 2, 3)


class TestEigenfunctionBelow:
    def test_residual_small(self, simons):
        for lam in (0.125, 0.3, 0.6):
            prof = sp.eigenfunction_below(simons, lam)
            assert sp.radial_operator_residual(simons, lam, prof) < 1e-12

    def test_stencil_residual_small(self, simons):
        prof = sp.eigenfunction_below(simons, 0.125)
        sampled = RadialProfile(prof.grid, prof.values)
        assert sp.radial_operator_residual(simons, 0.125, sampled) < 1e-8

    def test_band_enforced(self, simons):
        with pytest.raises(OutOfBandError):
            sp.eigenfunction_below(simons, 0.1)
        with pytest.raises(OutOfBandError):
            sp.eigenfunction_below(simons, 5.0 / 6.0)

    def test_positive(self, simons):
        prof = sp.eigenfunction_below(simons, 0.5)
        assert prof.values.min() > 0


def test_residual_detects_wrong_lambda():
    c = make_cone(3, 3)
    prof = sp.eigenfunction_below(c, 0.3)
    good = sp.radial_operator_residual(c, 0.3, prof)
    bad = sp.radial_operator_residual(c, 0.4, prof)
    assert good < 1e-12 < bad


def _problem(**change):
    return sp.WeightedProblem(**{"cone": make_cone(3, 3), "r_out": 1.0, **change})


#: malformed input -> (call, the typed error it raises)
_MALFORMED = {
    "r-out-zero": (lambda: _problem(r_out=0.0), DomainError),
    "r-out-negative": (lambda: _problem(r_out=-1.0), DomainError),
    "r-out-inf": (lambda: _problem(r_out=np.inf), DomainError),
    "r-out-nan": (lambda: _problem(r_out=np.nan), DomainError),
    "index-nan": (lambda: sp.dirichlet_eigen(_problem(), np.nan), DomainError),
    "index-fraction": (lambda: sp.dirichlet_eigen(_problem(), 1.5), DomainError),
    "index-bool": (lambda: sp.dirichlet_eigen(_problem(), True), DomainError),
    "rayleigh-one-node": (lambda: sp.rayleigh(make_cone(3, 3), RadialProfile([0.5], [0.0])), DomainError),
    "residual-one-node": (lambda: sp.radial_operator_residual(
        make_cone(3, 3), 0.3, RadialProfile([0.5], [1.0])), DomainError),
    "residual-four-nodes": (lambda: sp.radial_operator_residual(
        make_cone(3, 3), 0.3, RadialProfile(np.geomspace(0.5, 1.0, 4), np.ones(4))), DomainError),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_raises_typed_error(case):
    call, error = _MALFORMED[case]
    with pytest.raises(error):
        call()
