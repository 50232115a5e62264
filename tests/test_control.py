import numpy as np
import pytest
from numpy.testing import assert_allclose

import conftest as refs
from ebsde.control import (ControlProblem, Policy, cost_I, cost_J,
                           feedback_policy, girsanov_weight_check,
                           hamiltonian, induced_driver, policy_from_json)
from ebsde.errors import DegenerateLocalTime, StepTooLarge, WeightDegeneracy
from ebsde.ergodic import solve_ergodic
from ebsde.geometry import ball_domain
from ebsde.presets import two_control_problem


def _affine_problem():
    slopes = np.array([0.0, 0.2, -0.1])
    return ControlProblem(
        R_table=np.array([[0.1], [-0.3], [0.2]]),
        L=lambda x, k: 0.4 + slopes[k] * float(np.atleast_1d(x)[0]),
        M_R=0.3, M_L=0.7,
        L_vec=lambda X, k: 0.4 + slopes[k] * X[:, 0],
        K_L_x=0.2, g=None)


def test_pointwise_minimum_matches_brute_force():
    prob = _affine_problem()
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(-1, 1, size=1)
        z = rng.uniform(-2, 2, size=1)
        val, k = hamiltonian(prob, x, z)
        cand = [prob.L(x, j) + float(z @ prob.R_table[j])
                for j in range(prob.n_controls)]
        assert k == int(np.argmin(cand))
        assert abs(val - min(cand)) < 1e-12


def test_ties_resolve_to_lowest_index():
    prob = ControlProblem(R_table=np.array([[0.2], [0.2]]),
                          L=lambda x, k: 0.5, M_R=0.2, M_L=0.5)
    _, k = hamiltonian(prob, np.array([0.3]), np.array([1.0]))
    assert k == 0


def test_argmin_invariant_under_constant_cost_shift():
    # skip near-ties: rounding after the +5 shift may reorder exact ties
    prob = _affine_problem()
    shifted = ControlProblem(R_table=prob.R_table,
                             L=lambda x, k: prob.L(x, k) + 5.0,
                             M_R=prob.M_R, M_L=prob.M_L + 5.0)
    rng = np.random.default_rng(23)
    for _ in range(60):
        x = rng.uniform(-1, 1, size=1)
        z = rng.uniform(-2, 2, size=1)
        cand = sorted(prob.L(x, j) + float(z @ prob.R_table[j])
                      for j in range(prob.n_controls))
        if cand[1] - cand[0] < 1e-6:
            continue
        assert hamiltonian(prob, x, z)[1] == hamiltonian(shifted, x, z)[1]


def test_induced_driver_constants():
    prob = two_control_problem()
    drv = induced_driver(prob)
    assert drv.K_psi_x == prob.K_L_x
    assert drv.K_psi_z == prob.M_R
    assert drv.M_psi == prob.M_L
    assert not drv.psi_bounded
    assert drv.control is prob
    # the induced driver evaluates the pointwise minimum itself
    x, z = np.array([0.5]), np.array([-1.0])
    assert abs(drv.psi(x, z) - hamiltonian(prob, x, z)[0]) < 1e-12


def test_policy_from_json(interval, std_model):
    prob = two_control_problem()
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.3,
                        scheme="direct", spacing=1e-2)
    pol = policy_from_json({"kind": "constant", "index": 1}, prob)
    assert_allclose(pol.controls_for(np.zeros((4, 1))), 1)
    thr = policy_from_json({"kind": "threshold_z", "cut": 0.0,
                            "below": 0, "above": 1}, prob, sol)
    u = thr.controls_for(sol.v.nodes[::40])
    assert set(np.unique(u)) <= {0, 1}
    fb = policy_from_json({"kind": "feedback"}, prob, sol)
    assert fb.name == "feedback"
    with pytest.raises(ValueError):
        policy_from_json({"kind": "mystery"}, prob)
    with pytest.raises(ValueError):
        policy_from_json({"kind": "feedback"}, prob, None)


def test_single_control_costs_reduce_to_plain_averages(interval, std_model):
    # one control with R = 0: no tilt, L = 0.5; then
    # I = 0.5 - mu E[K_T]/T and the recovered J is mu itself
    prob = ControlProblem(R_table=np.array([[0.0]]),
                          L=lambda x, k: 0.5, M_R=0.0, M_L=0.5,
                          L_vec=lambda X, k: np.full(len(X), 0.5))
    pol = Policy.constant(0)
    mu = 0.3
    I = cost_I(std_model, interval, prob, pol, mu, T=40.0, h=1e-3, paths=64,
               seed=5)
    want = 0.5 - mu * refs.FLUX_RATE
    assert abs(I.value - want) < 4 * I.stderr + 5e-3
    lam = solve_ergodic(std_model, interval, induced_driver(prob), mu,
                        scheme="direct", spacing=1e-3).lam
    J = cost_J(std_model, interval, prob, pol, lam, T=40.0, h=1e-3, paths=64,
               seed=6)
    assert abs(J.value - mu) < 4 * J.stderr + 1e-2


def test_cost_reports_stabilizing_horizons(interval, std_model):
    prob = two_control_problem()
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.3,
                        scheme="direct", spacing=1e-2)
    I = cost_I(std_model, interval, prob, feedback_policy(prob, sol), 0.3,
               T=8.0, h=1e-3, paths=48, seed=1)
    assert sorted(I.horizon_values) == [2.0, 4.0, 8.0]
    assert I.value == I.horizon_values[8.0][0]


def test_zero_tilt_weights_are_exactly_one(interval, std_model):
    prob = ControlProblem(R_table=np.array([[0.0]]),
                          L=lambda x, k: 0.5, M_R=0.0, M_L=0.5,
                          L_vec=lambda X, k: np.full(len(X), 0.5))
    out = girsanov_weight_check(std_model, interval, prob, Policy.constant(0),
                                T=2.0, h=1e-2, paths=64, seed=9, mu=0.0)
    assert abs(out["mean_weight"] - 1.0) < 1e-12
    assert abs(out["effective_sample_size"] - 64.0) < 1e-9


def test_reweighted_and_tilted_costs_agree(interval, std_model):
    prob = two_control_problem()
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.3,
                        scheme="direct", spacing=1e-2)
    out = girsanov_weight_check(std_model, interval, prob,
                                feedback_policy(prob, sol), T=10.0, h=1e-2,
                                paths=400, seed=17, mu=0.3)
    assert abs(out["mean_weight"] - 1.0) < 4 * out["mean_weight_stderr"]
    assert out["agreement_gap"] <= 3 * out["combined_stderr"] + 5e-3


def test_weight_degeneracy_detected(interval, std_model):
    wild = ControlProblem(R_table=np.array([[3.0]]),
                          L=lambda x, k: 0.5, M_R=3.0, M_L=0.5,
                          L_vec=lambda X, k: np.full(len(X), 0.5))
    with pytest.raises(WeightDegeneracy):
        girsanov_weight_check(std_model, interval, wild, Policy.constant(0),
                              T=60.0, h=1e-2, paths=64, seed=3, mu=0.0)


def test_degenerate_local_time_detected(std_model):
    wide = ball_domain(8.0, 1)
    prob = ControlProblem(R_table=np.array([[0.0]]),
                          L=lambda x, k: 0.5, M_R=0.0, M_L=0.5,
                          L_vec=lambda X, k: np.full(len(X), 0.5))
    with pytest.raises(DegenerateLocalTime):
        cost_J(std_model, wide, prob, Policy.constant(0), 0.5, T=1.0,
               h=1e-2, paths=32, seed=0, x0=np.zeros(1))


def test_control_table_bound_validated():
    with pytest.raises(ValueError):
        ControlProblem(R_table=np.array([[2.0]]),
                       L=lambda x, k: 0.0, M_R=1.0, M_L=0.1)


# Recorded from the masked per-control accumulation that the table gather
# replaced; on the interval every path is bit-identical, so == holds.
GOLDEN_COSTS = {
    "feedback": (0.39419888208314835, 0.02982544720805399,
                 0.13147011553830862, 0.03505651658052208),
    "constant": (0.38885993012951936, 0.029450632702548718,
                 0.12794937268105933, 0.035638917682712865),
    "threshold": (0.39124229563466506, 0.026479961892247845,
                  0.12189212681247176, 0.038473638539003485),
}


def test_costs_pinned_bit_for_bit(interval, std_model):
    prob = two_control_problem()
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.2,
                        spacing=1e-2)
    assert sol.lam == 0.34832634575356536
    policies = {
        "feedback": feedback_policy(prob, sol),
        "constant": policy_from_json({"kind": "constant", "index": 1}, prob, sol),
        "threshold": policy_from_json({"kind": "threshold_z", "axis": 0,
                                       "cut": 0.0, "below": 0, "above": 1},
                                      prob, sol)}
    for name, pol in policies.items():
        I = cost_I(std_model, interval, prob, pol, 0.2, 0.4, 1e-3, 16, seed=3)
        J = cost_J(std_model, interval, prob, pol, sol.lam, 0.4, 1e-3, 16, seed=4)
        assert (I.value, I.stderr, J.value, J.stderr) == GOLDEN_COSTS[name], name


def test_running_cost_table_matches_per_control_costs():
    prob = two_control_problem()
    X = np.linspace(-1, 1, 9)[:, None]
    table = prob.L_table(X)
    assert table.shape == (9, prob.n_controls)
    for k in range(prob.n_controls):
        assert np.array_equal(table[:, k], prob.L_at(X, k))


def test_controlled_step_too_large_raises(interval, std_model):
    with pytest.raises(StepTooLarge):
        cost_I(std_model, interval, two_control_problem(), Policy.constant(0),
               0.0, T=50.0, h=50.0, paths=4, seed=0, x0=np.array([0.9]))
