import numpy as np
import pytest
from numpy.testing import assert_allclose

import conftest as refs
from ebsde import control
from ebsde.control import (ControlProblem, CostEstimate, Policy, cost_I, cost_J,
                           feedback_policy, girsanov_weight_check,
                           hamiltonian, induced_driver, policy_from_json,
                           policy_verdict)
from ebsde.dynamics import SdeModel, ensemble_steps
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
# replaced (state-sign and girsanov from the per-step table builds that the
# shared table replaced); on the interval every path is bit-identical, so ==
# holds.
GOLDEN_COSTS = {
    "feedback": (0.39419888208314835, 0.02982544720805399,
                 0.13147011553830862, 0.03505651658052208),
    "constant": (0.38885993012951936, 0.029450632702548718,
                 0.12794937268105933, 0.035638917682712865),
    "threshold": (0.39124229563466506, 0.026479961892247845,
                  0.12189212681247176, 0.038473638539003485),
    "state-sign": (0.39394068064330934, 0.03205281081687299,
                   0.1346371794445259, 0.036331908306880815),
    "girsanov-constant": {
        "mean_weight": 1.0009361120184572, "mean_weight_stderr": 0.04291887815515035,
        "effective_sample_size": 15.570582127960185,
        "I_reweighted": 0.4074203041280461, "I_reweighted_stderr": 0.04022561800878449,
        "I_tilted": 0.2930683081268326, "I_tilted_stderr": 0.05888197747776342,
        "agreement_gap": 0.11435199600121349, "combined_stderr": 0.07131050144179668},
    "girsanov-feedback": {
        "mean_weight": 0.9803359499101182, "mean_weight_stderr": 0.039760020793829086,
        "effective_sample_size": 15.614726629565473,
        "I_reweighted": 0.3968943638869487, "I_reweighted_stderr": 0.034827729461235545,
        "I_tilted": 0.2807120610267605, "I_tilted_stderr": 0.06055908271058846,
        "agreement_gap": 0.11618230286018821, "combined_stderr": 0.06985966817966507},
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
                                      prob, sol),
        "state-sign": Policy(rule=lambda X, Z: (X[:, 0] > 0).astype(int))}
    for name, pol in policies.items():
        I = cost_I(std_model, interval, prob, pol, 0.2, 0.4, 1e-3, 16, seed=3)
        J = cost_J(std_model, interval, prob, pol, sol.lam, 0.4, 1e-3, 16, seed=4)
        assert (I.value, I.stderr, J.value, J.stderr) == GOLDEN_COSTS[name], name
    for name in ("constant", "feedback"):
        out = girsanov_weight_check(std_model, interval, prob, policies[name],
                                    T=0.4, h=1e-3, paths=16, seed=7, mu=0.2)
        assert out == GOLDEN_COSTS["girsanov-" + name], name


# Recorded at the per-step rule evaluation that the constant path replaced;
# sigma depends on the state, so the tilt goes through model.noise_term.
STATE_SIGMA_COSTS = (
    (0.3096666173607215, 0.0591831623826108,
     0.1923787477152575, 0.047511998552932325),
    (0.43012665092028524, 0.3643764631894455, 0.9784096079443441))


def test_constant_policy_with_state_dependent_sigma_pinned(interval):
    prob = two_control_problem()
    sig = lambda X: 1.0 + 0.2 * X
    models = (
        SdeModel(b=lambda x: -np.atleast_1d(x),
                 sigma=lambda x: np.diag(sig(np.atleast_1d(x))),
                 b_vec=lambda X: -X, sigma_diag_vec=sig, eta_hint=-1.0),
        SdeModel(b=lambda x: -np.atleast_1d(x),
                 sigma=lambda x: np.diag(sig(np.atleast_1d(x))),
                 b_vec=lambda X: -X, eta_hint=-1.0))
    x0 = np.array([0.9])
    for model in models:
        for pol in (Policy.constant(1),
                    Policy(rule=lambda X, Z: np.full(len(X), 1, int))):
            I = cost_I(model, interval, prob, pol, 0.2, 0.2, 1e-3, 8, seed=3, x0=x0)
            J = cost_J(model, interval, prob, pol, 0.3, 0.4, 1e-3, 16, seed=4,
                       x0=x0)
            g = girsanov_weight_check(model, interval, prob, pol, T=0.2, h=1e-3,
                                      paths=8, seed=7, mu=0.2, x0=x0)
            assert (I.value, I.stderr, J.value, J.stderr) == STATE_SIGMA_COSTS[0]
            assert ((g["I_tilted"], g["I_reweighted"], g["mean_weight"])
                    == STATE_SIGMA_COSTS[1])


def test_policy_needs_a_rule_or_an_index():
    with pytest.raises(ValueError):
        Policy()
    with pytest.raises(ValueError):
        Policy(zeta_source=object())
    assert Policy.constant(2).index == 2

def _counting_L_table(prob):
    calls = []
    table = prob.L_table

    def counted(X):
        calls.append(len(X))
        return table(X)

    prob.L_table = counted
    return calls


def test_feedback_step_builds_one_cost_table_and_constant_none(interval, std_model):
    prob = two_control_problem()
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.2,
                        spacing=1e-2)
    calls = _counting_L_table(prob)
    cost_I(std_model, interval, prob, feedback_policy(prob, sol), 0.2, 0.05,
           1e-3, 8, seed=1)
    assert len(calls) == 50
    del calls[:]
    cost_J(std_model, interval, prob, Policy.constant(1), sol.lam, 0.05, 1e-3,
           8, seed=1, x0=np.array([0.99]))
    assert calls == []


def test_step_tuples_carry_state_and_local_time_at_fixed_positions(interval, std_model):
    # a single zero-tilt control leaves the dynamics untouched, so the
    # controlled steps must replay the plain ensemble steps: X at index 1,
    # X_new, dK and xi at -3, -2, -1 in both tuples
    prob = ControlProblem(R_table=np.array([[0.0]]),
                          L=lambda x, k: 0.5, M_R=0.0, M_L=0.5,
                          L_vec=lambda X, k: np.full(len(X), 0.5))
    X0 = np.linspace(-0.99, 0.99, 12)[:, None]
    for pol in (Policy.constant(0), Policy(rule=lambda X, Z: np.zeros(len(X), int))):
        plain = ensemble_steps(std_model, interval, X0, 200, 1e-2, 4)
        steered = control._controlled_steps(std_model, interval, prob, pol, X0,
                                            200, 1e-2, 4, True)
        reflected = 0
        X_prev = X0
        for a, b in zip(plain, steered):
            assert np.array_equal(a[1], X_prev) and np.array_equal(b[1], X_prev)
            for k in (-3, -2, -1):
                assert np.array_equal(a[k], b[k])
            assert b[-2].shape == (12,) and b[-2].min() >= 0.0
            assert np.array_equal(b[3], np.full(12, 0.5))
            reflected += int((b[-2] > 0).sum())
            X_prev = a[-3]
        assert reflected > 0


def test_policy_verdict_thresholds():
    lam, mu = 0.4, 0.3
    # slacks: stderr + 5e-3 for I, stderr + 1e-2 for J
    I_at = CostEstimate(lam + 0.0149, 0.01)
    J_at = CostEstimate(mu - 0.0299, 0.02)
    assert policy_verdict(I_at, J_at, lam, mu, optimal=True)
    assert policy_verdict(I_at, J_at, lam, mu, optimal=False)
    I_off = CostEstimate(lam - 0.0151, 0.01)
    assert not policy_verdict(CostEstimate(lam + 0.0151, 0.01), J_at, lam, mu,
                              optimal=True)
    assert not policy_verdict(I_off, J_at, lam, mu, optimal=True)
    assert not policy_verdict(I_off, J_at, lam, mu, optimal=False)
    J_high = CostEstimate(mu + 0.031, 0.02)
    assert not policy_verdict(CostEstimate(lam, 0.01), J_high, lam, mu, optimal=True)
    assert policy_verdict(CostEstimate(lam, 0.01), J_high, lam, mu, optimal=False)


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
