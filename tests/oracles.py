"""Independent reference solvers that only tests use."""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from conelab.errors import SolverError


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
