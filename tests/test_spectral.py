"""Tests for the weighted eigenvalue machinery."""

import numpy as np
import pytest

from conelab import spectral as sp
from conelab.cones import RadialProfile, catalog_cones, make_cone
from conelab.errors import ConvergenceError, DomainError, OutOfBandError, ParameterError

from oracles import shooting_eigen


@pytest.fixture
def simons():
    return make_cone(3, 3)


class TestWeight:
    def test_eps_zero(self, simons):
        assert np.isclose(sp.weight(simons, 0.0, 1.0), 6.0)
        assert np.isclose(sp.weight(simons, 0.0, 2.0), 1.5)

    def test_eps_one(self, simons):
        assert np.isclose(sp.weight(simons, 1.0, 1.0), 7.0)

    def test_scaling(self, simons):
        r = np.logspace(-2, 2, 17)
        np.testing.assert_allclose(
            sp.weight(simons, 0.3, 2 * r), sp.weight(simons, 0.3, r) / 4.0
        )

    def test_rejects_zero_radius(self, simons):
        with pytest.raises(DomainError):
            sp.weight(simons, 0.0, 0.0)


class TestRayleigh:
    def test_hat_function_above_limit(self, simons):
        # any admissible test function sits above the limit eigenvalue
        r = np.geomspace(0.01, 1.0, 4000)
        s = np.log(r)
        hat = (s - s[0]) * (s[-1] - s) * r ** (-(simons.n - 2) / 2)
        q = sp.rayleigh(simons, RadialProfile(r, hat, tag="eigenfunction"), 0.0)
        assert q > sp.lambda0_closed_form(simons) - 1e-12

    def test_scale_invariance(self, simons):
        r = np.geomspace(0.1, 1.0, 2000)
        s = np.log(r)
        v = np.sin(np.pi * (s - s[0]) / (s[-1] - s[0]))
        q1 = sp.rayleigh(simons, RadialProfile(r, v, tag="eigenfunction"), 0.0)
        q2 = sp.rayleigh(simons, RadialProfile(7 * r, v, tag="eigenfunction"), 0.0)
        q3 = sp.rayleigh(simons, RadialProfile(r, 5 * v, tag="eigenfunction"), 0.0)
        assert np.isclose(q1, q2, rtol=1e-10)
        assert np.isclose(q1, q3, rtol=1e-12)

    def test_requires_vanishing_ends(self, simons):
        r = np.geomspace(0.1, 1.0, 100)
        with pytest.raises(DomainError):
            sp.rayleigh(simons, RadialProfile(r, np.ones_like(r), tag="eigenfunction"), 0.0)


class TestDirichletEigen:
    def test_positive_and_monotone_in_m(self, simons):
        w = sp.WeightedProblem(cone=simons, eps=0.0, annulus=(1e-4, 1.0))
        lams = [sp.dirichlet_eigen(w, m).lam for m in (1, 2, 3, 4)]
        assert all(l > 0 for l in lams)
        assert np.all(np.diff(lams) < 0)

    def test_eigenfunction_positive(self, simons):
        w = sp.WeightedProblem(cone=simons, eps=0.0, annulus=(1e-3, 1.0))
        res = sp.dirichlet_eigen(w, 2)
        assert res.profile.values[1:-1].min() > 0

    def test_fd_matches_shooting(self, simons):
        w = sp.WeightedProblem(cone=simons, eps=0.0, annulus=(1e-3, 1.0))
        for m in (1, 2):
            r_in, r_out = sp.exhaustion_annulus(w, m)
            fd = sp.dirichlet_eigen(w, m).lam
            shot = shooting_eigen(w, r_in, r_out)
            assert abs(fd - shot) < 1e-6

    def test_closed_form_first_annulus(self, simons):
        # constant-coefficient log form: lambda_1 = (pot + (pi/ln 4)^2)/wgt
        w = sp.WeightedProblem(cone=simons, eps=0.0, annulus=(1e-3, 1.0))
        pot = (simons.n - 2) ** 2 / 4 - simons.kappa * 6
        expected = (pot + (np.pi / np.log(4.0)) ** 2) / 6.0
        assert abs(sp.dirichlet_eigen(w, 1).lam - expected) < 2e-6

    def test_annulus_validation(self, simons):
        with pytest.raises(DomainError):
            sp.WeightedProblem(cone=simons, eps=0.0, annulus=(1.0, 0.5))
        w = sp.WeightedProblem(cone=simons, eps=0.0, annulus=(0.5, 1.0))
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
            n = c.n
            assert np.isclose(
                sp.lambda0_closed_form(c), (n - 2) * (n - 3) / (4 * (n - 1))
            )
            assert abs(sp.lambda0(c) - sp.lambda0_closed_form(c)) < 2e-3

    def test_scaling_invariance(self, simons):
        base = sp.lambda0(simons, r_out=1.0)
        for s in (0.1, 10.0):
            assert abs(sp.lambda0(simons, r_out=s) - base) < 1e-6

    def test_sequence_nonincreasing(self, simons):
        res = sp.lambda0_detailed(simons)
        assert np.all(np.diff(res.lambda_sequence) <= 0)
        assert res.error_estimate < 1e-8

    def test_eps_rescales_limit_exactly(self, simons):
        # on an exact cone the eps-smoothed weight is a constant multiple of
        # the eps = 0 weight, so the limit rescales by (p+q)/(eps^2+p+q) and
        # is monotone decreasing in eps
        base = sp.lambda0_detailed(simons, eps=0.0).lambda0
        vals = []
        for e in (0.5, 1.0):
            v = sp.lambda0_detailed(simons, eps=e).lambda0
            vals.append(v)
            assert abs(v - base * 6.0 / (e**2 + 6.0)) < 1e-9
        assert base > vals[0] > vals[1]

    def test_exhaustion_record(self, simons):
        res = sp.lambda0_detailed(simons)
        assert len(res.lambda_sequence) == len(res.schedule)
        assert res.error_estimate >= 0

    @pytest.mark.parametrize("m_max", [1, 2])
    def test_too_short_exhaustion_rejected(self, simons, m_max):
        # the error estimate compares two Richardson extrapolants
        with pytest.raises(ParameterError):
            sp.lambda0_detailed(simons, m_max=m_max)


class TestEigenfunctionBelow:
    def test_residual_small(self, simons):
        for lam in (0.125, 0.3, 0.6):
            prof = sp.eigenfunction_below(simons, lam)
            assert sp.radial_operator_residual(simons, lam, prof) < 1e-12

    def test_stencil_residual_small(self, simons):
        prof = sp.eigenfunction_below(simons, 0.125)
        sampled = RadialProfile(prof.grid, prof.values, tag="eigenfunction")
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
