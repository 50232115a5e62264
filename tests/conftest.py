"""Shared fixtures and frozen reference numbers.

The reference constants below were computed once with scipy.integrate.quad
for the clipped-Gaussian stationary law (U = x^2/2 on [-1, 1] and
U = |x|^2/2 on the unit disc, sigma = sqrt(2)) and are frozen as literals;
a session guard recomputes them at import so a quadrature regression cannot
silently move the targets.
"""
import dataclasses

import numpy as np
import pytest
from scipy import integrate

from ebsde import (ball_domain, cos_driver, kolmogorov_model, quadratic_domain,
                   quadratic_potential)

# gaussian weight on [-1, 1], stationary law of the standard test model
NORMALIZER = 1.7112487837842973
SECOND_MOMENT = 0.29112509477279325
FOURTH_MOMENT = 0.16450037909117285
MEAN_COS = 0.8611359463964351
# stationary boundary flux -E_nu[L phi]  = 1 - SECOND_MOMENT
FLUX_RATE = 0.7088749052272068
# the same model on the unit disc (U = |x|^2/2, phi = (1 - |x|^2)/2):
# E_nu[cos x1] and -E_nu[L phi] = E_nu[2 - |x|^2]
DISC_MEAN_COS = 0.8898526807096767
DISC_FLUX_RATE = 1.5414940825367982


def _recompute():
    N, _ = integrate.quad(lambda t: np.exp(-0.5 * t * t), -1, 1)
    m2, _ = integrate.quad(lambda t: t * t * np.exp(-0.5 * t * t) / N, -1, 1)
    m4, _ = integrate.quad(lambda t: t ** 4 * np.exp(-0.5 * t * t) / N, -1, 1)
    mc, _ = integrate.quad(lambda t: np.cos(t) * np.exp(-0.5 * t * t) / N, -1, 1)
    return N, m2, m4, mc


def _recompute_disc():
    """Polar quadrature of the Gibbs law exp(-r^2/2) r dr dth on the disc."""
    def w(r):
        return np.exp(-0.5 * r * r) * r

    N = 2 * np.pi * integrate.quad(w, 0, 1)[0]
    mc = integrate.dblquad(lambda th, r: np.cos(r * np.cos(th)) * w(r),
                           0, 1, 0, 2 * np.pi)[0] / N
    flux = 2 * np.pi * integrate.quad(lambda r: (2 - r * r) * w(r), 0, 1)[0] / N
    return mc, flux


def one_row(f, x):
    """A batched callable of a problem at one point, as a one-row batch."""
    return f(np.asarray(x, dtype=float)[None])[0]


def neighbor_lookup(mesh, k, axis, side):
    """Compact index of the neighbor of node k along axis (side +1/-1), or
    -1, looked up from the flat box index node by node."""
    shape = mesh.shape
    idx = list(np.unravel_index(mesh.flat_index[k], shape))
    idx[axis] += side
    if idx[axis] < 0 or idx[axis] >= shape[axis]:
        return -1
    return int(mesh.compact_of_flat[np.ravel_multi_index(idx, shape)])


@pytest.fixture(scope="session", autouse=True)
def oracle_guard():
    N, m2, m4, mc = _recompute()
    assert abs(N - NORMALIZER) < 1e-12
    assert abs(m2 - SECOND_MOMENT) < 1e-12
    assert abs(m4 - FOURTH_MOMENT) < 1e-12
    assert abs(mc - MEAN_COS) < 1e-12
    assert abs((1.0 - m2) - FLUX_RATE) < 1e-12
    disc_mc, disc_flux = _recompute_disc()
    assert abs(disc_mc - DISC_MEAN_COS) < 1e-12
    assert abs(disc_flux - DISC_FLUX_RATE) < 1e-12


def flat_ellipse():
    """The ellipse x^2 + 4 y^2 <= 1 in its own box [-1, 1] x [-0.5, 0.5],
    whose axes round to different steps: 0.0690 and 0.0714 at spacing 0.07."""
    return dataclasses.replace(quadratic_domain([[1.0, 0.0], [0.0, 4.0]]),
                               bounding_box=np.array([[-1.0, 1.0], [-0.5, 0.5]]))


@pytest.fixture()
def interval():
    return ball_domain(1.0, 1)


@pytest.fixture()
def std_model():
    return kolmogorov_model(quadratic_potential(), eta_hint=-1.0)


@pytest.fixture()
def cosdrv():
    return cos_driver()
