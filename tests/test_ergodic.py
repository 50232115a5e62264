import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import conftest as refs
from ebsde.errors import FlatCurve, NonConvergence
from ebsde.ergodic import (ErgodicSolution, lambda_of_mu, lambda_time_average,
                           solve_boundary_cost, solve_ergodic)
from ebsde.geometry import ball_domain
from ebsde.grids import GridFunction, build_mesh
from ebsde.presets import (constant_driver, degenerate_linear_model,
                           kolmogorov_model, quadratic_potential, zero_driver)


def test_constant_driver_exact_constant(interval, std_model):
    # psi = kappa, mu = 0: lambda = kappa and v = 0
    sol = solve_ergodic(std_model, interval, constant_driver(0.7), 0.0,
                        scheme="direct", spacing=1e-3)
    assert abs(sol.lam - 0.7) < 1e-10
    assert np.max(np.abs(sol.v.values)) < 1e-10


def test_value_pinned_at_reference_node(interval, std_model, cosdrv):
    sol = solve_ergodic(std_model, interval, cosdrv, 0.5, scheme="direct",
                        spacing=1e-3)
    assert abs(sol.v.values[sol.v.mesh.ref_index()]) < 1e-12


def test_boundary_cost_enters_affinely(interval, std_model, cosdrv):
    # z-free driver: lambda(mu) = E_nu[cos] - mu * flux exactly
    curve = lambda_of_mu(std_model, interval, cosdrv, [-1.0, 0.0, 1.0, 2.0],
                         scheme="direct", spacing=1e-3)
    assert curve.non_increasing()
    lam0 = curve.lams[1]
    assert abs(lam0 - refs.MEAN_COS) < 2e-3  # first-order upwind bias
    for mu, lam in zip(curve.mus, curve.lams):
        assert abs((lam - lam0) + mu * refs.FLUX_RATE) < 2e-3 * max(1.0, abs(mu))
    assert abs(curve.slope_modulus() - refs.FLUX_RATE) < 2e-3


def test_curve_converges_at_first_order_to_the_oracle(interval, std_model, cosdrv):
    # lambda(mu) = MEAN_COS - mu FLUX_RATE: check lambda(0) and the slope
    # lambda(1) - lambda(0) separately on a halving ladder of spacings
    spacings = 1e-2 / 2.0 ** np.arange(5)
    errs = []
    for h in spacings:
        lam0, lam1 = lambda_of_mu(std_model, interval, cosdrv, [0.0, 1.0],
                                  scheme="direct", spacing=h).lams
        errs.append((lam0 - refs.MEAN_COS, (lam1 - lam0) + refs.FLUX_RATE))
    errs = np.abs(errs)
    assert np.all(errs[:, 0] <= 0.2 * spacings)
    assert np.all(errs[:, 1] <= 1.0 * spacings)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 0.9), orders


def test_scheme_agreement(interval, std_model, cosdrv):
    direct = solve_ergodic(std_model, interval, cosdrv, 0.0, scheme="direct",
                           spacing=1e-3)
    vd = solve_ergodic(std_model, interval, cosdrv, 0.0,
                       scheme="vanishing_discount", spacing=1e-3)
    assert abs(direct.lam - vd.lam) < 5e-4
    both = solve_ergodic(std_model, interval, cosdrv, 0.0, scheme="both",
                         spacing=1e-3)
    assert both.diagnostics["scheme_gap"] < 1e-3
    assert "alpha_sequence" in vd.diagnostics


def test_unknown_scheme_rejected(interval, std_model, cosdrv):
    with pytest.raises(ValueError, match="direct"):
        solve_ergodic(std_model, interval, cosdrv, 0.0, scheme="vanishing")


def test_exhausted_discount_sequence_raises_nonconvergence(interval, std_model,
                                                          cosdrv):
    with pytest.raises(NonConvergence):
        solve_ergodic(std_model, interval, cosdrv, 0.0,
                      scheme="vanishing_discount", spacing=1e-2, max_halvings=1)


def test_round_trip_inversion(interval, std_model, cosdrv):
    target = solve_ergodic(std_model, interval, cosdrv, 0.7, scheme="direct",
                           spacing=1e-3).lam
    sol = solve_boundary_cost(std_model, interval, cosdrv, target, tol=1e-3,
                              scheme="direct", spacing=1e-3)
    assert abs(sol.lam - target) < 1e-3
    assert abs(sol.mu - 0.7) < 5e-3


def test_flat_curve_not_identifiable(interval):
    with pytest.raises(FlatCurve):
        solve_boundary_cost(degenerate_linear_model(), interval, zero_driver(),
                            0.0, tol=1e-3, scheme="direct", spacing=1e-3)


def test_time_average_agrees_with_grid_constant(interval, std_model, cosdrv):
    sol = solve_ergodic(std_model, interval, cosdrv, 0.4, scheme="direct",
                        spacing=1e-3)
    est, se = lambda_time_average(std_model, interval, cosdrv, sol, T=50.0,
                                  h=1e-3, paths=64, seed=6)
    assert abs(est - sol.lam) < 3 * se + 5e-3


def test_time_average_pinned_bit_for_bit(interval, std_model, cosdrv):
    # recorded from the hand-written boundary cost, which read g only on
    # reflected paths, with lambda from the tridiagonal LU; compared with ==
    sol = solve_ergodic(std_model, interval, cosdrv, 0.5, spacing=1e-2)
    assert (lambda_time_average(std_model, interval, cosdrv, sol, T=0.5, h=1e-3,
                                paths=8, seed=4)
            == (0.06832465497338897, 0.4110774483310166))
    gdrv = dataclasses.replace(cosdrv, g=lambda x: 0.3 * float(x[0]) + 0.1)
    gsol = solve_ergodic(std_model, interval, gdrv, 0.5, spacing=1e-2)
    assert gsol.lam == 0.5753866535568268
    assert (lambda_time_average(std_model, interval, gdrv, gsol, T=0.5, h=1e-3,
                                paths=8, seed=4)
            == (0.3854324436820858, 0.16900207987974356))


def test_zeta_is_scaled_value_gradient(interval, std_model, cosdrv):
    # constant sigma = sqrt(2): zeta = sqrt(2) v' along the grid
    sol = solve_ergodic(std_model, interval, cosdrv, 0.0, scheme="direct",
                        spacing=1e-3)
    grad = sol.v.gradient()[:, 0]
    zeta = sol.zeta_at(sol.v.nodes)[:, 0]
    assert np.max(np.abs(zeta - np.sqrt(2.0) * grad)) < 1e-9


def test_line_zeta_at_is_np_interp_bit_for_bit(interval):
    # the direct-index lookup must reproduce np.interp exactly: at random
    # points, on every node, one ulp to either side of every node, and
    # beyond both ends
    mesh = build_mesh(interval, 1e-3)
    rng = np.random.default_rng(8)
    zeta = rng.standard_normal((mesh.n_nodes, 1))
    sol = ErgodicSolution(GridFunction(mesh, np.zeros(mesh.n_nodes)), zeta, 0.0, 0.0)
    nodes = mesh.nodes[:, 0]
    pts = np.concatenate([rng.uniform(-1.1, 1.1, 400_000), nodes,
                          np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
                          [-5.0, 5.0, -np.inf, np.inf]])
    got = sol.zeta_at(pts[:, None])
    assert got.shape == (len(pts), 1)
    assert np.array_equal(got[:, 0], np.interp(pts, nodes, zeta[:, 0]))
    assert sol.v(np.array([0.3])) == np.interp(0.3, nodes, sol.v.values)


def test_solution_save_layout(tmp_path, interval, std_model, cosdrv):
    sol = solve_ergodic(std_model, interval, cosdrv, 0.25, scheme="direct",
                        spacing=1e-2)
    sol.save(str(tmp_path / "sol"))
    meta = json.loads((tmp_path / "sol.json").read_text())
    assert abs(meta["lambda"] - sol.lam) < 1e-15
    assert abs(meta["mu"] - 0.25) < 1e-15
    header = (tmp_path / "sol.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["x0", "value"]


def test_vanishing_discount_builds_one_mesh(monkeypatch, interval, std_model, cosdrv):
    # every module that binds build_mesh counts into one list
    import ebsde.discounted
    import ebsde.ergodic
    import ebsde.grids
    calls = []
    real = ebsde.grids.build_mesh

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (ebsde.grids, ebsde.discounted):
        monkeypatch.setattr(mod, "build_mesh", counting)
    sol = solve_ergodic(std_model, interval, cosdrv, 0.5,
                        scheme="vanishing_discount", spacing=1e-2)
    assert len(calls) == 1
    assert len(sol.diagnostics["alpha_sequence"]) > 1
    # one mesh for every mu of a curve and of an inversion
    lambda_of_mu(std_model, interval, cosdrv, [0.0, 0.5, 1.0],
                 scheme="vanishing_discount", spacing=1e-2)
    assert len(calls) == 2
    solve_boundary_cost(std_model, interval, cosdrv, 0.5, tol=1e-3,
                        scheme="direct", spacing=1e-2)
    assert len(calls) == 3


@pytest.mark.parametrize("case", ["interval-direct", "disc-direct",
                                  "interval-vanishing-discount"])
def test_curve_equals_standalone_solves_bit_for_bit(case, interval, std_model,
                                                    cosdrv):
    if case == "disc-direct":
        model = kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0)
        domain, kw = ball_domain(1.0, 2), {"scheme": "direct", "spacing": 0.1}
    else:
        model, domain = std_model, interval
        kw = {"scheme": case.split("-", 1)[1].replace("-", "_"), "spacing": 1e-2}
    mus = [-1.0, 0.0, 0.5, 2.0]
    curve = lambda_of_mu(model, domain, cosdrv, mus, **kw)
    alone = [solve_ergodic(model, domain, cosdrv, m, **kw).lam for m in mus]
    assert list(curve.lams) == alone


@pytest.mark.parametrize("scheme,target,mu_star,lam", [
    ("direct", 0.5, 0.5084649869866689, 0.5003855623875096),
    ("vanishing_discount", 0.5, 0.5047950952702585, 0.5001939383499934),
], ids=["direct", "vanishing_discount"])
def test_inversion_pinned_bit_for_bit(scheme, target, mu_star, lam, interval,
                                      std_model, cosdrv):
    # recorded with the tridiagonal LU shared across mu; the per-solve
    # factorisation solves the same systems, so it lands on the same bits
    spacing = 1e-3 if scheme == "direct" else 1e-2
    sol = solve_boundary_cost(std_model, interval, cosdrv, target, tol=1e-3,
                              scheme=scheme, spacing=spacing)
    assert sol.mu == mu_star
    assert sol.lam == lam
