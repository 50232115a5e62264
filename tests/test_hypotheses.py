import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import conftest as refs
from ebsde.discounted import DriverSpec
from ebsde.ergodic import solve_boundary_cost
from ebsde.errors import NonConvexPotential, SigmaNotConstant
from ebsde.geometry import ball_domain, quartic_interval_domain
from ebsde.hypotheses import (FLAT_TOL, check_all, estimate_eta,
                              estimate_kolmogorov_constants, estimate_theta,
                              stationary_generator_phi)
from ebsde.presets import (constant_driver, cos_driver,
                           degenerate_linear_model, kolmogorov_model, ou_model,
                           poly_potential, quadratic_potential, zero_driver)
from ebsde.verification import shifted_problem


def test_dissipativity_of_linear_drift(interval, std_model):
    # <b(x)-b(y), x-y> = -|x-y|^2 exactly
    assert abs(estimate_eta(std_model, interval, 32) - (-1.0)) < 1e-12


def test_dissipativity_degenerate_diffusion(interval):
    # b = -x and sigma(x) = x: pairing gives -1 + 1/2 = -1/2
    model = degenerate_linear_model()
    assert abs(estimate_eta(model, interval, 32) - (-0.5)) < 1e-12


@given(n=st.integers(min_value=8, max_value=24))
@settings(max_examples=20, deadline=None)
def test_eta_estimate_monotone_under_refinement(n):
    # sup over a nested grid can only grow
    dom = ball_domain(1.0, 1)
    model = kolmogorov_model(poly_potential([0, 0, 0, 0, 0.25]))  # U = x^4/4
    lo = estimate_eta(model, dom, n)
    hi = estimate_eta(model, dom, 2 * n - 1)
    assert hi >= lo - 1e-12


def test_pairing_constant_plain(interval, std_model):
    # convex domain, z-free driver: theta reduces to twice the drift rate
    th = estimate_theta(std_model, zero_driver(), interval)
    assert abs(th - (-2.0)) < 1e-9


def test_pairing_constant_needs_constant_sigma(interval):
    with pytest.raises(SigmaNotConstant):
        estimate_theta(degenerate_linear_model(), zero_driver(), interval)


def test_kolmogorov_constants(interval, std_model):
    kc = estimate_kolmogorov_constants(std_model, interval)
    assert abs(kc["c"] - 1.0) < 1e-12
    # oscillation of <grad U, x> = x^2 over the closure
    assert abs(kc["delta"] - 1.0) < 5e-3


def test_nonconvex_potential_raises(interval):
    # double well x^4/4 - x^2/2: the Hessian is negative near the origin
    well = kolmogorov_model(poly_potential([0, 0, -0.5, 0, 0.25]))
    with pytest.raises(NonConvexPotential):
        estimate_kolmogorov_constants(well, interval)


def test_stationary_flux_quadrature_for_gradient_model(interval, std_model):
    val = stationary_generator_phi(std_model, interval)
    assert abs(val + refs.FLUX_RATE) < 1e-9


def test_check_all_standard_model(interval, std_model, cosdrv):
    rep = check_all(std_model, cosdrv, interval, grid_density=32)
    for key in ("G1", "G2", "G3", "G4", "H1", "H2", "H3", "H3'", "H4",
                "F1", "F2", "F2.1", "F2.2"):
        assert rep.flags[key], key
    # the round defining function has no strict interior flux
    assert not rep.flags["F2'"]
    assert rep.flags["F2''"]
    assert abs(rep.eta + 1.0) < 1e-9
    assert abs(rep.margins["H3"] - 1.0) < 1e-9
    assert abs(rep.E_nu_Lphi + refs.FLUX_RATE) < 1e-9


def test_check_all_quartic_domain_strict_flux(std_model, cosdrv):
    rep = check_all(std_model, cosdrv, quartic_interval_domain(),
                    grid_density=32)
    assert rep.flags["F2'"]
    assert abs(rep.margins["F2'"] - 0.5) < 1e-6


def test_check_all_degenerate_model(interval):
    rep = check_all(degenerate_linear_model(), zero_driver(), interval,
                    grid_density=24)
    assert rep.flags["H3"]
    assert not rep.flags["F2.2"]  # no boundary attainability
    assert not rep.flags["H4"]
    # the stationary law is the point mass at the origin, so the flux is
    # zero and the grid's slope (+4.5e-10 here) sits inside the flat band
    assert abs(rep.E_nu_Lphi) < FLAT_TOL


def test_declared_driver_constants_are_binding(interval, std_model):
    lying = DriverSpec(psi=lambda X, Z: np.cos(X[:, 0]), g=None,
                       K_psi_x=0.01, K_psi_z=0.0, M_psi=1.0,
                       name="underdeclared")
    rep = check_all(std_model, lying, interval, grid_density=24)
    assert not rep.flags["H2"]
    assert any("exceed" in n for n in rep.notes)


def test_suggested_shift_restores_dissipativity(interval):
    expanding = ou_model(rate=-1.0)  # drift +x
    rep = check_all(expanding, zero_driver(), interval, grid_density=16)
    assert not rep.flags["H3"]
    assert rep.suggested_shift is not None and rep.suggested_shift > 1.0
    model2, _ = shifted_problem(expanding, zero_driver(),
                                rep.suggested_shift, interval)
    assert estimate_eta(model2, interval, 16) < 0


def _ou_flux_oracle(dim):
    """E_nu[L phi] for b = -x, sigma = I on the unit ball, phi = (1 - |x|^2)/2:
    L phi = |x|^2 - d/2 against the density exp(-|x|^2), by radial quadrature."""
    def w(r):
        return np.exp(-r * r) * r ** (dim - 1)

    lo = -1.0 if dim == 1 else 0.0
    N = integrate.quad(w, lo, 1)[0]
    return integrate.quad(lambda r: (r * r - 0.5 * dim) * w(r), lo, 1)[0] / N


def test_stationary_flux_second_order_on_the_interval(interval):
    exact = _ou_flux_oracle(1)
    assert abs(exact + 0.2462958981963155) < 1e-12
    spacings = 1e-2 / 2.0 ** np.arange(5)
    errs = np.array([abs(stationary_generator_phi(ou_model(), interval, h) - exact)
                     for h in spacings])
    assert np.all(errs <= 0.25 * spacings ** 2), errs
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 1.8), orders


def test_stationary_flux_first_order_on_the_disc():
    # the 2-d rows are first order; the error is 1.8-2.0 h on this ladder
    exact = _ou_flux_oracle(2)
    assert abs(exact + 0.5819767068693265) < 1e-12
    disc = ball_domain(1.0, 2)
    spacings = 0.1 / 2.0 ** np.arange(3)
    errs = np.array([abs(stationary_generator_phi(ou_model(dim=2), disc, h) - exact)
                     for h in spacings])
    assert np.all(errs <= 2.5 * spacings), errs
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 0.9), orders


def test_stationary_flux_second_order_on_the_disc():
    # the cut-cell rows through the operator's own adjoint (weights()):
    # errors 0.086-0.095 h^2 of one sign on 0.1 -> 0.0125, least-squares
    # order 2.01
    exact = _ou_flux_oracle(2)
    disc = ball_domain(1.0, 2)
    spacings = 0.1 / 2.0 ** np.arange(4)
    errs = np.array([abs(stationary_generator_phi(ou_model(dim=2), disc, h) - exact)
                     for h in spacings])
    assert np.all(errs <= 0.25 * spacings ** 2), errs
    order = np.polyfit(np.log(spacings), np.log(errs), 1)[0]
    assert order >= 1.5, errs


@pytest.mark.parametrize("spacing", [1e-2, 1e-3])
def test_flux_flag_true_exactly_when_inversion_succeeds(interval, spacing):
    # the flat side is test_ergodic's degenerate-curve test
    model, driver = ou_model(), constant_driver(1.0)
    rep = check_all(model, driver, interval, grid_density=16, spacing=spacing)
    assert rep.flags["F2.2"]
    sol = solve_boundary_cost(model, interval, driver, 0.5, tol=1e-3,
                              scheme="direct", spacing=spacing)
    assert abs(sol.lam - 0.5) <= 1e-3
    assert sol.diagnostics["inversion"]["slope"] == rep.E_nu_Lphi


def test_flux_unavailable_without_a_grid():
    rep = check_all(ou_model(dim=3), zero_driver(), ball_domain(1.0, 3),
                    grid_density=8)
    assert not rep.flags["F2.2"]
    assert np.isnan(rep.E_nu_Lphi) and "F2.2" not in rep.margins
    assert any(n.startswith("stationary flux unavailable") for n in rep.notes)


def test_batched_gibbs_flux_matches_the_pointwise_sum_on_the_disc():
    # the d >= 2 gradient branch sums the batched L phi against the Gibbs
    # density; for U = |x|^2/2 and phi = (1 - |x|^2)/2 on the unit disc
    # L phi = |x|^2 - 2 at every node, which is the reference sum
    from ebsde.dynamics import invariant_density
    disc = ball_domain(1.0, 2)
    model = kolmogorov_model(quadratic_potential(1.0), dim=2)
    dens = invariant_density(model, disc, 101)
    Lphi = (dens.nodes ** 2).sum(axis=1) - 2.0
    ref = float((Lphi * dens.values).sum() * dens.cell_volume)
    got = stationary_generator_phi(model, disc)
    assert abs(got - ref) <= 1e-12 * abs(ref)
    # and it approximates the disc's exact flux
    assert abs(-got - refs.DISC_FLUX_RATE) < 0.05
