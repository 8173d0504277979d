"""Second-order jets of scalar functions of one variable.

A ``Jet`` bundles (value, first derivative, second derivative) at a point
(or vectorized over an array of points) and implements the chain/product
rules.  Radial constructions (Perron profiles, barriers, bend profiles)
use jets so operator residuals can be evaluated with *analytic*
derivatives instead of stencils.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Jet:
    """(f, f', f'') evaluated at one or many points."""

    f: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f + other.f, self.d1 + other.d1, self.d2 + other.d2)
        return Jet(self.f + other, self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.f * other.f,
                self.d1 * other.f + self.f * other.d1,
                self.d2 * other.f + 2.0 * self.d1 * other.d1 + self.f * other.d2,
            )
        return Jet(self.f * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def reciprocal(self):
        inv = 1.0 / self.f
        return Jet(inv, -self.d1 * inv**2, (2.0 * self.d1**2 / self.f - self.d2) * inv**2)


def jet_power(x, alpha):
    """Jet of r^alpha at r = x (x > 0)."""
    x = np.asarray(x, dtype=float)
    f = x**alpha
    return Jet(f, alpha * x ** (alpha - 1.0), alpha * (alpha - 1.0) * x ** (alpha - 2.0))


def jet_compose(outer, inner: Jet) -> Jet:
    """Compose ``outer`` (a callable x -> Jet evaluated at plain points)
    with an inner jet: returns the jet of outer(inner(t))."""
    o = outer(inner.f)
    return Jet(
        o.f,
        o.d1 * inner.d1,
        o.d2 * inner.d1**2 + o.d1 * inner.d2,
    )


def radial_laplacian(j: Jet, r, n):
    """Laplacian f'' + (n-1)/r f' of a radial function in dimension n."""
    return j.d2 + (n - 1.0) / r * j.d1
