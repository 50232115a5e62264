import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import conftest as refs
from ebsde import discounted, ergodic
from ebsde.errors import FlatCurve, NonConvergence
from ebsde.ergodic import (ErgodicSolution, lambda_of_mu, lambda_time_average,
                           solve_boundary_cost, solve_ergodic)
from ebsde.geometry import ball_domain, quartic_interval_domain
from ebsde.grids import GridFunction, build_mesh
from ebsde.hypotheses import check_all
from ebsde.discounted import DriverSpec
from ebsde.presets import (assemble_config, constant_driver, degenerate_linear_model,
                           kolmogorov_model, quadratic_potential, zero_driver)
from ebsde.verification import pde_residual

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    assert abs(lam0 - refs.MEAN_COS) < 2e-3  # discretisation bias
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
    assert "alpha_sequence" in vd.diagnostics


def test_unknown_scheme_rejected(interval, std_model, cosdrv):
    for scheme in ("vanishing", "both"):
        with pytest.raises(ValueError, match="direct"):
            solve_ergodic(std_model, interval, cosdrv, 0.0, scheme=scheme)


def test_curve_and_inversion_reject_unknown_keywords(interval, std_model, cosdrv):
    # a misspelt keyword raises on the line route too, which calls no
    # solve_ergodic, and so does each budget or tolerance that is a module
    # constant, so a caller still passing one fails loudly
    removed = {"viscosity": "force", "picard_tol": 1e-8, "max_halvings": 1,
               "slope_floor": 1.0}
    for key, value in {"spacng": 1e-2, **removed}.items():
        with pytest.raises(TypeError, match=key):
            lambda_of_mu(std_model, interval, cosdrv, [0.0], **{key: value})
        with pytest.raises(TypeError, match=key):
            solve_boundary_cost(std_model, interval, cosdrv, 0.5, **{key: value})


def test_exhausted_discount_sequence_raises_nonconvergence(monkeypatch, interval,
                                                          std_model, cosdrv):
    monkeypatch.setattr(ergodic, "MAX_HALVINGS", 1)
    with pytest.raises(NonConvergence):
        solve_ergodic(std_model, interval, cosdrv, 0.0,
                      scheme="vanishing_discount", spacing=1e-2)


def test_round_trip_inversion(interval, std_model, cosdrv):
    target = solve_ergodic(std_model, interval, cosdrv, 0.7, scheme="direct",
                           spacing=1e-3).lam
    sol = solve_boundary_cost(std_model, interval, cosdrv, target, tol=1e-3,
                              scheme="direct", spacing=1e-3)
    assert abs(sol.lam - target) < 1e-3
    # closed-form: the adjoint line against a forward solve, 1.9e-13 here
    assert abs(sol.mu - 0.7) <= 1e-9


def test_flat_curve_not_identifiable(interval):
    model = degenerate_linear_model()
    kw = {"scheme": "direct", "spacing": 1e-3}
    with pytest.raises(FlatCurve, match="slope") as exc:
        solve_boundary_cost(model, interval, zero_driver(), 0.0, tol=1e-3, **kw)
    # the zero driver takes the line route: the reported slope is the exact
    # slope of the discrete curve from the adjoint weights (+4.55e-10), which
    # the secant of forward solves over [-0.01, 0.01] matches
    slope = float(re.search(r"slope (\S+)", str(exc.value)).group(1))
    lo, hi = (solve_ergodic(model, interval, zero_driver(), m, **kw).lam
              for m in (-0.01, 0.01))
    assert abs(slope) < 1e-6
    assert abs(slope - (hi - lo) / 0.02) <= 1e-2 * abs(slope)


@pytest.mark.parametrize("spacing", [0.05, 0.02, 0.01, 1e-3])
def test_degenerate_curve_is_flat_at_every_spacing(interval, spacing):
    # lambda does not depend on mu for the degenerate model; the discrete
    # slope is +5.7e-5 at 0.05 and +3.6e-6 at 0.02, increasing, which the
    # theory excludes, so any slope above -FLAT_TOL is flat; check reads the
    # same slope, so F2.2 is false at every spacing where this is flat
    model = degenerate_linear_model()
    with pytest.raises(FlatCurve) as exc:
        solve_boundary_cost(model, interval, zero_driver(), 0.5, tol=1e-3,
                            scheme="direct", spacing=spacing)
    assert not check_all(model, zero_driver(), interval, grid_density=16,
                         spacing=spacing).flags["F2.2"]
    msg = str(exc.value)
    slope = float(re.search(r"slope (\S+)", msg).group(1))
    assert slope > -1e-6
    sign = "positive" if slope > 0 else "zero" if slope == 0 else "negative"
    assert f"is {sign}" in msg
    if spacing >= 0.02:
        assert sign == "positive"


@pytest.mark.parametrize("spacing", [0.05, 0.02, 0.01, 1e-3])
def test_decreasing_curves_still_invert(interval, std_model, cosdrv, spacing):
    for domain, target in ((interval, 0.5), (quartic_interval_domain(), 0.3)):
        sol = solve_boundary_cost(std_model, domain, cosdrv, target, tol=1e-3,
                                  scheme="direct", spacing=spacing)
        assert abs(sol.lam - target) <= 1e-3
        assert sol.diagnostics["inversion"]["slope"] < -1e-6


def test_curve_converges_at_second_order_to_the_oracle(interval, std_model, cosdrv):
    # the 1-d ghost-point boundary rows with centered drift: lambda(0) and
    # the slope against the oracle on the halving ladder 1e-2 -> 6.25e-4.
    # Measured at 1e-2: -9.2e-6 and 2.1e-5; observed order 2.00
    spacings = 1e-2 / 2.0 ** np.arange(5)
    errs = []
    for h in spacings:
        lam0, lam1 = lambda_of_mu(std_model, interval, cosdrv, [0.0, 1.0],
                                  scheme="direct", spacing=h).lams
        errs.append((lam0 - refs.MEAN_COS, (lam1 - lam0) + refs.FLUX_RATE))
    errs = np.abs(errs)
    assert np.all(errs <= 0.5 * spacings[:, None] ** 2), errs
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 1.8), orders


def test_quartic_inversion_lands_on_the_oracle_root(std_model, cosdrv):
    # the defining function changes L phi but not E_nu[L phi], so the root
    # of MEAN_COS - mu FLUX_RATE = 0.3 is the oracle's; measured gap 1.1e-7
    sol = solve_boundary_cost(std_model, quartic_interval_domain(), cosdrv, 0.3,
                              tol=1e-3, scheme="direct", spacing=1e-3)
    assert abs(sol.mu - (refs.MEAN_COS - 0.3) / refs.FLUX_RATE) <= 1e-5


def test_boundary_residual_falls_at_second_order(interval, std_model, cosdrv):
    # pde_residual reads dv/dn from a three-point one-sided stencil that the
    # solver does not use; measured order 2.0 on 1e-2 -> 1.25e-3
    spacings = 1e-2 / 2.0 ** np.arange(4)
    res = [pde_residual(solve_ergodic(std_model, interval, cosdrv, 0.5, spacing=h),
                        std_model, interval, cosdrv)["boundary_max"]
           for h in spacings]
    orders = np.log2(np.array(res[:-1]) / res[1:])
    assert np.all(orders >= 1.5), (res, orders)


def test_time_average_agrees_with_grid_constant(interval, std_model, cosdrv):
    sol = solve_ergodic(std_model, interval, cosdrv, 0.4, scheme="direct",
                        spacing=1e-3)
    est, se = lambda_time_average(std_model, interval, cosdrv, sol, T=50.0,
                                  h=1e-3, paths=64, seed=6)
    assert abs(est - sol.lam) < 3 * se + 5e-3


def test_time_average_pinned_bit_for_bit(interval, std_model, cosdrv):
    # recorded from the hand-written boundary cost, which read g only on
    # reflected paths, with lambda from the 1-d ghost-point boundary rows;
    # compared with ==
    sol = solve_ergodic(std_model, interval, cosdrv, 0.5, spacing=1e-2)
    assert (lambda_time_average(std_model, interval, cosdrv, sol, T=0.5, h=1e-3,
                                paths=8, seed=4)
            == (0.06832465497338897, 0.4110774483310166))
    gdrv = dataclasses.replace(cosdrv, g=lambda X: 0.3 * X[:, 0] + 0.1)
    gsol = solve_ergodic(std_model, interval, gdrv, 0.5, spacing=1e-2)
    assert gsol.lam == 0.5775852411545999
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
    assert sol.v.interp_many(np.array([[0.3]]))[0] == np.interp(0.3, nodes, sol.v.values)


def test_diagnostics_record_what_the_solve_did(interval, std_model, cosdrv):
    sol = solve_ergodic(std_model, interval, cosdrv, 0.25, spacing=1e-2)
    diag = sol.diagnostics
    assert diag["boundary_rows"] == "ghost_point"
    assert diag["factorisers"] == ["lapack_tridiagonal"]
    # a z-free driver takes one linear solve and no fixed point
    assert (diag["picard_sweeps"], diag["picard_update"], diag["damping_events"]) \
        == (1, None, 0)
    zdrv = dataclasses.replace(cosdrv, psi=lambda X, Z: np.cos(X[:, 0]) + 0.3 * Z[:, 0],
                               K_psi_z=0.3)
    diag = solve_ergodic(std_model, interval, zdrv, 0.25, spacing=1e-2).diagnostics
    assert diag["picard_sweeps"] > 2 and 0.0 <= diag["picard_update"] < 1e-10
    # the vanishing-discount scheme sums the sweeps of every discount
    diag = solve_ergodic(std_model, interval, cosdrv, 0.25, spacing=1e-2,
                         scheme="vanishing_discount").diagnostics
    assert diag["picard_sweeps"] == len(diag["alpha_sequence"])
    disc = kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0)
    diag = solve_ergodic(disc, ball_domain(1.0, 2), cosdrv, 0.25,
                         spacing=0.1).diagnostics
    assert (diag["boundary_rows"], diag["factorisers"]) == ("cut_cell", ["superlu"])


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
    # one mesh for every mu of a curve (a driver that reads z: one solve
    # per mu) and of an inversion
    zdrv = dataclasses.replace(cosdrv, psi=lambda X, Z: np.cos(X[:, 0]) + 0.3 * Z[:, 0],
                               K_psi_z=0.3)
    lambda_of_mu(std_model, interval, zdrv, [0.0, 0.5, 1.0], spacing=1e-2)
    assert len(calls) == 2
    solve_boundary_cost(std_model, interval, cosdrv, 0.5, tol=1e-3,
                        scheme="direct", spacing=1e-2)
    assert len(calls) == 3


# lambda(mu) at mu = -1, 0, 0.5, 2 of the curve below, from the adjoint line
# (the interval re-recorded with the ghost-point boundary rows, the disc
# with the cut-cell rows)
DIRECT_CURVES = {
    "interval-direct": [1.56998063913615, 0.8611267834350387,
                        0.506699855584483, -0.5565809279671838],
    "disc-direct": [2.4318851972351334, 0.8901119936609597,
                    0.11922539187387293, -2.1934344134873873],
}


@pytest.mark.parametrize("case", ["interval-direct", "disc-direct", "interval-reads-z"])
def test_curve_equals_standalone_solves_bit_for_bit(case, interval, std_model,
                                                    cosdrv):
    model, domain, kw = std_model, interval, {"scheme": "direct", "spacing": 1e-2}
    if case == "disc-direct":
        model = kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0)
        domain, kw["spacing"] = ball_domain(1.0, 2), 0.1
    driver = cosdrv
    if case == "interval-reads-z":
        driver = dataclasses.replace(cosdrv, K_psi_z=0.3,
                                     psi=lambda X, Z: np.cos(X[:, 0]) + 0.3 * Z[:, 0])
    mus = [-1.0, 0.0, 0.5, 2.0]
    curve = lambda_of_mu(model, domain, driver, mus, **kw)
    alone = [solve_ergodic(model, domain, driver, m, **kw).lam for m in mus]
    if case == "interval-reads-z":
        # one direct solve per mu on the curve's shared LU
        assert curve.record["route"] == "solve_per_mu"
        assert list(curve.lams) == alone
        return
    # the direct curve is the line from the adjoint weights, not a forward
    # solve per mu: measured gaps 2.2e-16 (interval) and 4.4e-16 (disc)
    assert np.max(np.abs(curve.lams - alone)) <= 1e-12
    assert list(curve.lams) == DIRECT_CURVES[case]


@pytest.mark.parametrize("scheme,target,mu_star,lam", [
    ("direct", 0.5, 0.509449494318871, 0.4999999999999999),
], ids=["direct"])
def test_inversion_pinned_bit_for_bit(scheme, target, mu_star, lam, interval,
                                      std_model, cosdrv):
    # the closed-form mu* of the adjoint line, then one solve; re-recorded
    # with the 1-d ghost-point boundary rows
    sol = solve_boundary_cost(std_model, interval, cosdrv, target, tol=1e-3,
                              scheme=scheme, spacing=1e-3)
    assert sol.mu == mu_star
    assert sol.lam == lam


def test_inversion_reports_its_route(interval, std_model, cosdrv):
    kw = {"scheme": "direct", "spacing": 1e-2}
    lam0, lam1 = lambda_of_mu(std_model, interval, cosdrv, [0.0, 1.0], **kw).lams
    sol = solve_boundary_cost(std_model, interval, cosdrv, 0.5, tol=1e-3, **kw)
    inv = sol.diagnostics["inversion"]
    # a z-free driver: one sweep at the closed-form mu of the adjoint line
    assert inv == {"slope": inv["slope"], "factorisations": 1, "sweeps": 1}
    assert lam1 == lam0 + inv["slope"]
    assert sol.mu == (0.5 - lam0) / inv["slope"]
    assert json.loads(json.dumps(inv)) == inv
    # a driver that declares a z dependence but does not read z sweeps
    # twice, the second sweep repeating the first, to the same bits
    zdrv = dataclasses.replace(cosdrv, K_psi_z=1.0)
    again = solve_boundary_cost(std_model, interval, zdrv, 0.5, tol=1e-3, **kw)
    assert again.diagnostics["inversion"]["sweeps"] == 2
    assert (again.mu, again.lam) == (sol.mu, sol.lam)
    # the vanishing-discount scheme only repeats the direct answer
    with pytest.raises(ValueError, match="direct"):
        solve_boundary_cost(std_model, interval, cosdrv, 0.5, scheme="vanishing_discount")


def test_curve_runs_the_direct_scheme_only(monkeypatch, interval, std_model, cosdrv):
    # refused before any grid is built, on the line route and per mu alike
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(discounted, "build_mesh", no_mesh)
    zdrv = dataclasses.replace(cosdrv, K_psi_z=0.3)
    for driver in (cosdrv, zdrv):
        for scheme in ("vanishing_discount", "bogus"):
            with pytest.raises(ValueError, match="direct"):
                lambda_of_mu(std_model, interval, driver, [0.0, 1.0], scheme=scheme)


# the Hamiltonian driver on the unit disc of ``perfbench``'s grid2d_disc
DISC_HAMILTONIAN = {
    "domain": {"kind": "ball", "radius": 1.0, "dim": 2},
    "model": {"kind": "kolmogorov", "dim": 2, "eta_hint": -1.0,
              "potential": {"kind": "quadratic", "curvature": 1.0}},
    "driver": {"kind": "hamiltonian"},
    "control": {"kind": "table",
                "R": [[0.25, 0.0], [-0.25, 0.0], [0.0, 0.25]],
                "L": {"kind": "affine", "base": 0.5, "slopes": [0.0, 0.1, -0.1]},
                "M_R": 0.25, "M_L": 0.7}}


@pytest.mark.parametrize("config,spacing,target,sweeps", [
    ("two_control", 1e-2, 0.2, 8), ("two_control", 1e-2, 0.6, 9),
    ("two_control", 1e-3, 0.2, 8), ("two_control", 1e-3, 0.6, 9),
    ("disc_hamiltonian", 0.025, -0.05, 9)])
def test_z_reading_inversion_lands_on_the_discrete_root(config, spacing, target,
                                                        sweeps):
    # mu is the last unknown of the Picard sweep, so the fixed point is the
    # root of the discrete curve: a forward solve at the returned mu gives
    # the target back, measured within 2.5e-11
    if config == "two_control":
        doc = json.loads((CONFIGS / "two_control.json").read_text())
    else:
        doc = DISC_HAMILTONIAN
    domain, model, driver, _ = assemble_config(doc)
    assert driver.K_psi_z > 0
    sol = solve_boundary_cost(model, domain, driver, target, tol=1e-3,
                              spacing=spacing)
    assert abs(sol.lam - target) <= 1e-12
    assert abs(solve_ergodic(model, domain, driver, sol.mu, spacing=spacing).lam
               - target) <= 1e-10
    assert sol.diagnostics["inversion"]["sweeps"] == sweeps
    assert sol.diagnostics["picard_sweeps"] == sweeps
    assert sol.diagnostics["inversion"]["factorisations"] == 1


@pytest.mark.parametrize("spacing", [0.05, 1e-3])
def test_flat_curve_and_the_flux_flag_read_one_slope_for_every_driver(interval,
                                                                     spacing):
    # a driver that reads z on the degenerate model: FlatCurve before any
    # sweep, with the exact slope of the adjoint weights that check_all
    # reads for F2.2
    model = degenerate_linear_model()
    driver = DriverSpec(psi=lambda X, Z: 0.1 * np.sin(Z[:, 0]), K_psi_z=0.1,
                        psi_bounded=True, M_psi=0.1)
    rep = check_all(model, driver, interval, grid_density=16, spacing=spacing)
    assert not rep.flags["F2.2"]
    with pytest.raises(FlatCurve) as exc:
        solve_boundary_cost(model, interval, driver, 0.5, tol=1e-3, spacing=spacing)
    assert f"slope {rep.E_nu_Lphi:+.2e} of the discrete curve" in str(exc.value)


def test_disc_curve_converges_at_first_order_to_the_oracle(cosdrv):
    # lambda(mu) = DISC_MEAN_COS - mu DISC_FLUX_RATE on the unit disc:
    # lambda(0) and the slope separately, spacings 0.1 -> 0.0125
    model = kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0)
    disc = ball_domain(1.0, 2)
    spacings = 0.1 / 2.0 ** np.arange(4)
    errs = []
    for h in spacings:
        lam0, lam1 = lambda_of_mu(model, disc, cosdrv, [0.0, 1.0],
                                  scheme="direct", spacing=h).lams
        errs.append((lam0 - refs.DISC_MEAN_COS, (lam1 - lam0) + refs.DISC_FLUX_RATE))
    errs = np.abs(errs)
    assert np.all(errs[:, 0] <= 0.25 * spacings)
    assert np.all(errs[:, 1] <= 4.0 * spacings)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 0.9), orders


def _least_squares_order(spacings, errs):
    """Slope of log |err| against log h, fitted over the whole ladder."""
    return float(np.polyfit(np.log(spacings), np.log(np.abs(errs)), 1)[0])


def test_disc_curve_converges_at_second_order_to_the_oracle(cosdrv):
    # the cut-cell rows: lambda(0) and the slope separately on the ladder
    # 0.1 -> 0.0125. Measured errors / h^2: 0.026-0.038 for lambda(0),
    # 0.0014-0.028 for the slope (one sign each), least-squares orders 1.84
    # and 3.28
    model = kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0)
    disc = ball_domain(1.0, 2)
    spacings = 0.1 / 2.0 ** np.arange(4)
    errs = []
    for h in spacings:
        lam0, lam1 = lambda_of_mu(model, disc, cosdrv, [0.0, 1.0],
                                  scheme="direct", spacing=h).lams
        errs.append((lam0 - refs.DISC_MEAN_COS, (lam1 - lam0) + refs.DISC_FLUX_RATE))
    errs = np.abs(errs)
    assert np.all(errs[:, 0] <= 0.06 * spacings ** 2), errs
    assert np.all(errs[:, 1] <= 0.2 * spacings ** 2), errs
    for k in range(2):
        assert _least_squares_order(spacings, errs[:, k]) >= 1.5, errs


def test_disc_boundary_cost_enters_at_second_order(cosdrv):
    # g = x1^2 is read on the boundary arcs: on the unit circle its mean
    # under the (radial) invariant density is 1/2, so lambda(0) =
    # DISC_MEAN_COS + DISC_FLUX_RATE / 2. Measured errors 0.030-0.034 h^2;
    # read at the boundary nodes they were 0.59-0.77 h
    model = kolmogorov_model(quadratic_potential(), dim=2, eta_hint=-1.0)
    disc = ball_domain(1.0, 2)
    drv = dataclasses.replace(cosdrv, g=lambda X: X[:, 0] ** 2)
    exact = refs.DISC_MEAN_COS + 0.5 * refs.DISC_FLUX_RATE
    spacings = 0.1 / 2.0 ** np.arange(4)
    errs = np.array([abs(lambda_of_mu(model, disc, drv, [0.0], spacing=h).lams[0] - exact)
                     for h in spacings])
    assert np.all(errs <= 0.06 * spacings ** 2), errs
    assert _least_squares_order(spacings, errs) >= 1.5, errs


def test_jsonable_writes_every_non_finite_float_as_null():
    doc = {"a": np.float64("inf"), "b": [np.float32("nan"), float("-inf")],
           "c": np.float64(0.5), "d": np.bool_(True)}
    assert json.dumps(ergodic._jsonable(doc)) == \
        '{"a": null, "b": [null, null], "c": 0.5, "d": true}'
