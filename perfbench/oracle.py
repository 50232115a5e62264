"""Exact long-run constants for z-free drivers on gradient models.

For the reflected gradient system dX = -grad U dt + sqrt(2) dW on a domain
G = {phi > 0} with |grad phi| = 1 on the boundary, integrating the
stationary equation against the Gibbs law nu = exp(-U)/N gives, for every
driver psi(x) that does not read z and boundary cost g = 0,

    lambda(mu) = E_nu[psi] + mu * E_nu[L phi],
    L phi      = Laplacian(phi) - grad U . grad phi.

Both expectations are computed here by adaptive scipy quadrature with
closed-form integrands written out below, independently of the package's
own quadrature helpers: on [-1, 1] in one dimension and in polar
coordinates on the unit disc in two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

__all__ = ["Oracle", "interval_oracle", "disc_oracle"]


@dataclass(frozen=True)
class Oracle:
    """E_nu[psi] and E_nu[L phi] for one (domain, potential, driver)."""

    mean_psi: float
    mean_Lphi: float

    def lam(self, mu: float) -> float:
        return self.mean_psi + mu * self.mean_Lphi

    def mu_star(self, lambda_target: float) -> float:
        return (lambda_target - self.mean_psi) / self.mean_Lphi


def _Lphi_interval(kind: str, t: float, c: float) -> float:
    """L phi at t for U = c t^2 / 2 on [-1, 1]."""
    if kind == "ball":          # phi = (1 - t^2)/2
        return -1.0 + c * t * t
    if kind == "quartic":       # phi = s (1 - s/4), s = (1 - t^2)/2
        d1 = -t * (3.0 + t * t) / 4.0
        d2 = -(3.0 + 3.0 * t * t) / 4.0
        return d2 - c * t * d1
    raise ValueError(f"no oracle for interval kind {kind!r}")


def interval_oracle(kind: str = "ball", curvature: float = 1.0,
                    amplitude: float = 1.0) -> Oracle:
    """psi = amplitude cos(x) with U = curvature x^2 / 2 on [-1, 1]."""
    c = float(curvature)

    def w(t):
        return math.exp(-0.5 * c * t * t)

    opts = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 200}
    N = integrate.quad(w, -1.0, 1.0, **opts)[0]
    m_psi = integrate.quad(lambda t: amplitude * math.cos(t) * w(t),
                           -1.0, 1.0, **opts)[0] / N
    m_Lphi = integrate.quad(lambda t: _Lphi_interval(kind, t, c) * w(t),
                            -1.0, 1.0, **opts)[0] / N
    return Oracle(m_psi, m_Lphi)


def disc_oracle(curvature: float = 1.0, amplitude: float = 1.0) -> Oracle:
    """psi = amplitude cos(x1) with U = curvature |x|^2 / 2 on the unit disc.

    phi = (1 - |x|^2)/2, so L phi = -2 + c r^2 depends on r only; the
    angular integral of cos(r cos th) is 2 pi J0(r), which is left to
    quadrature rather than a Bessel routine so both factors are checked
    the same way.
    """
    c = float(curvature)
    opts = {"epsabs": 1e-14, "epsrel": 1e-13}

    def w(r):
        return math.exp(-0.5 * c * r * r) * r

    N = 2.0 * math.pi * integrate.quad(w, 0.0, 1.0, **opts)[0]
    m_psi = integrate.dblquad(
        lambda th, r: amplitude * math.cos(r * math.cos(th)) * w(r),
        0.0, 1.0, 0.0, 2.0 * math.pi, **opts)[0] / N
    m_Lphi = 2.0 * math.pi * integrate.quad(
        lambda r: (-2.0 + c * r * r) * w(r), 0.0, 1.0, **opts)[0] / N
    return Oracle(m_psi, m_Lphi)
