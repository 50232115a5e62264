import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import conftest as refs
from ebsde.discounted import DriverSpec
from ebsde.dynamics import SdeModel
from ebsde.errors import SingularSigma
from ebsde.ergodic import ErgodicSolution, solve_ergodic
from ebsde.grids import GridFunction, build_mesh
from ebsde.presets import (constant_driver, cos_driver,
                           degenerate_linear_model, ou_model, zero_driver)
from ebsde.verification import (bsde_residual, drift_shift_equivalence,
                                pde_residual, shifted_problem)


def test_pde_residual_divides_each_axis_by_its_own_step():
    # v = y with psi = z_2, no drift and lambda = 1 solves the equation;
    # the box's axes have steps 0.0690 and 0.0714, so one step for both
    # axes would read dv/dy as 1.0357
    domain = refs.flat_ellipse()
    mesh = build_mesh(domain, 0.07)
    driver = DriverSpec(psi=lambda X, Z: Z[:, 1])
    sol = ErgodicSolution(GridFunction(mesh, mesh.nodes[:, 1].copy()),
                          np.zeros((mesh.n_nodes, 2)), 1.0, 0.0)
    pde = pde_residual(sol, ou_model(rate=0.0, dim=2), domain, driver)
    assert pde["interior_max"] < 1e-12


def test_flat_solution_zero_residuals(interval, std_model):
    # psi = kappa, mu = 0 solves exactly with v = 0; both residuals vanish
    sol = solve_ergodic(std_model, interval, constant_driver(0.4), 0.0,
                        scheme="direct", spacing=1e-3)
    pde = pde_residual(sol, std_model, interval, constant_driver(0.4))
    assert pde["interior_max"] < 1e-8
    assert pde["boundary_max"] < 1e-8
    res = bsde_residual(sol, std_model, interval, constant_driver(0.4),
                        paths=50, T=1.0, h=1e-2, seed=0)
    assert abs(res.mean) < 1e-10
    assert res.stderr < 1e-10


def test_flat_solution_with_boundary_cost(interval, std_model):
    # kappa = 0.3, mu = 0.4: v stays flat, lambda = kappa - mu * flux, and
    # the backward residual must see the local-time term with the right sign
    sol = solve_ergodic(std_model, interval, constant_driver(0.3), 0.4,
                        scheme="direct", spacing=1e-3)
    assert abs(sol.lam - (0.3 - 0.4 * refs.FLUX_RATE)) < 2e-3
    res = bsde_residual(sol, std_model, interval, constant_driver(0.3),
                        paths=800, T=4.0, h=1e-3, seed=3)
    assert abs(res.mean) <= 3 * res.stderr + 1e-3


def test_pde_residual_of_solved_problem(interval, std_model, cosdrv):
    sol = solve_ergodic(std_model, interval, cosdrv, 0.0, scheme="direct",
                        spacing=1e-3)
    pde = pde_residual(sol, std_model, interval, cosdrv)
    assert pde["interior_max"] < 1e-3
    assert pde["boundary_max"] < 1e-3


def test_backward_partials_stay_centered(interval, std_model, cosdrv):
    sol = solve_ergodic(std_model, interval, cosdrv, 0.2, scheme="direct",
                        spacing=1e-3)
    res = bsde_residual(sol, std_model, interval, cosdrv, paths=1200, T=2.0,
                        h=1e-2, seed=14)
    assert len(res.partial_means) == len(res.partial_times)
    # intermediate defects are martingale increments: all near zero on the
    # scale of the terminal standard error
    for m in res.partial_means:
        assert abs(m) <= 4 * res.stderr + 2e-3


def test_shifted_problem_identities(interval, std_model, cosdrv):
    model2, driver2 = shifted_problem(std_model, cosdrv, 0.5, interval)
    t, zv = np.meshgrid([-0.8, 0.1, 0.9], [-1.0, 0.0, 2.0])
    X, Z = t.reshape(-1, 1), zv.reshape(-1, 1)
    assert_allclose(model2.b(X), -X - 0.5 * X, rtol=0, atol=1e-12)
    assert_allclose(driver2.psi(X, Z), np.cos(X[:, 0]) + 0.5 * Z[:, 0] * X[:, 0] / np.sqrt(2.0),
                    rtol=0, atol=1e-12)
    assert driver2.K_psi_z > cosdrv.K_psi_z
    assert model2.eta_hint == -1.5
    # a state-dependent sigma = 1 + x/5 solves for sigma^{-1} x row by row
    varying = SdeModel(b=lambda X: -X, sigma=lambda X: (1.0 + 0.2 * X)[:, :, None],
                       eta_hint=-1.0)
    model2, driver2 = shifted_problem(varying, cosdrv, 0.5, interval)
    assert model2.sigma is varying.sigma and model2.sigma_constant is None
    assert_allclose(driver2.psi(X, Z),
                    np.cos(X[:, 0]) + 0.5 * Z[:, 0] * X[:, 0] / (1.0 + 0.2 * X[:, 0]),
                    rtol=0, atol=1e-12)


def test_shift_leaves_constants_invariant(interval, std_model, cosdrv):
    out = drift_shift_equivalence(std_model, interval, cosdrv, 0.25,
                                  mu=0.0, spacing=1e-3)
    assert out["lambda_gap"] < 2e-3
    assert out["eta_identity_gap"] < 1e-9


def test_shift_needs_invertible_sigma(interval):
    with pytest.raises(SingularSigma):
        shifted_problem(degenerate_linear_model(), zero_driver(), 0.5,
                        interval)


def test_bsde_residual_pinned_bit_for_bit(interval, std_model, cosdrv):
    # recorded before the scaled noise moved into per-sub-block arrays;
    # the interval paths are bit-identical, so == holds (v and lambda
    # re-recorded with the 1-d ghost-point boundary rows)
    sol = solve_ergodic(std_model, interval, cosdrv, 0.5, spacing=1e-2)
    res = bsde_residual(sol, std_model, interval, cosdrv, paths=32, T=0.5,
                        h=1e-3, seed=7)
    assert (res.mean, res.stderr) == (-0.0030909410891528876, 0.0025712325513613282)
    assert res.partial_means[0] == 0.0009974906760454802


def test_bsde_residual_with_boundary_cost_pinned_bit_for_bit(interval, std_model,
                                                              cosdrv):
    # a non-zero g, recorded from the hand-written boundary cost, v and
    # lambda from the 1-d ghost-point boundary rows; ==
    gdrv = dataclasses.replace(cosdrv, g=lambda X: 0.3 * X[:, 0] + 0.1)
    sol = solve_ergodic(std_model, interval, gdrv, 0.5, spacing=1e-2)
    res = bsde_residual(sol, std_model, interval, gdrv, paths=16, T=0.5,
                        h=1e-3, seed=7)
    assert (res.mean, res.stderr, res.variance) == (
        -0.004290400000856039, 0.004679211319611781, 0.00035032029717732837)
    assert res.partial_means.tolist() == [
        0.0015087684902320231, -0.0004628784142040273, -0.0008664958403295452,
        -0.002608922995112691, -0.004715965849046439, -0.004296415805861129,
        -0.0036173584820808026, -0.004290400000856039]


def test_bsde_residual_refuses_a_start_outside_the_closure(interval, std_model,
                                                          cosdrv):
    # every path would start at 1.5 and fold back on its first step
    sol = solve_ergodic(std_model, interval, cosdrv, 0.5, spacing=1e-2)
    with pytest.raises(ValueError, match="x0 outside"):
        bsde_residual(sol, std_model, interval, cosdrv, paths=200, T=0.5,
                      h=1e-3, seed=0, x0=[1.5])
