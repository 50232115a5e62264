import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import conftest as refs
from ebsde import control, dynamics
from ebsde.control import (ControlProblem, CostEstimate, Policy, cost_I, cost_J,
                           feedback_policy, girsanov_weight_check,
                           hamiltonian, induced_driver, policy_from_json,
                           policy_verdict)
from ebsde.dynamics import SdeModel, ensemble_steps
from ebsde.errors import DegenerateLocalTime, StepTooLarge, WeightDegeneracy
from ebsde.ergodic import solve_ergodic
from ebsde.geometry import ball_domain
from ebsde.grids import build_mesh
from ebsde.presets import two_control_problem


def _affine_problem():
    slopes = np.array([0.0, 0.2, -0.1])
    return ControlProblem(
        R_table=np.array([[0.1], [-0.3], [0.2]]),
        L=lambda X, k: 0.4 + slopes[k] * X[:, 0],
        M_R=0.3, M_L=0.7, K_L_x=0.2, g=None)


def _brute_force(prob, x, z):
    """L(x, u) + z R(u) of every control at one state, one control at a
    time."""
    return [prob.L(x[None], j)[0] + float(z @ prob.R_table[j])
            for j in range(prob.n_controls)]


def test_pointwise_minimum_matches_brute_force():
    prob = _affine_problem()
    rng = np.random.default_rng(11)
    X, Z = rng.uniform(-1, 1, size=(50, 1)), rng.uniform(-2, 2, size=(50, 1))
    vals, ks = hamiltonian(prob, X, Z)
    for x, z, val, k in zip(X, Z, vals, ks):
        cand = _brute_force(prob, x, z)
        assert k == int(np.argmin(cand))
        assert abs(val - min(cand)) < 1e-12


def test_ties_resolve_to_lowest_index():
    prob = ControlProblem(R_table=np.array([[0.2], [0.2]]),
                          L=lambda X, k: np.full(len(X), 0.5), M_R=0.2, M_L=0.5)
    _, ks = hamiltonian(prob, np.array([[0.3]]), np.array([[1.0]]))
    assert ks.tolist() == [0]


def test_argmin_invariant_under_constant_cost_shift():
    # skip near-ties: rounding after the +5 shift may reorder exact ties
    prob = _affine_problem()
    shifted = ControlProblem(R_table=prob.R_table,
                             L=lambda X, k: prob.L(X, k) + 5.0,
                             M_R=prob.M_R, M_L=prob.M_L + 5.0)
    rng = np.random.default_rng(23)
    X, Z = rng.uniform(-1, 1, size=(60, 1)), rng.uniform(-2, 2, size=(60, 1))
    gap = np.diff(np.sort(prob.L_table(X) + Z @ prob.R_table.T, axis=1)[:, :2])[:, 0]
    clear = gap >= 1e-6
    assert clear.sum() > 40
    assert np.array_equal(hamiltonian(prob, X, Z)[1][clear],
                          hamiltonian(shifted, X, Z)[1][clear])


def test_induced_driver_constants():
    prob = two_control_problem()
    drv = induced_driver(prob)
    assert drv.K_psi_x == prob.K_L_x
    assert drv.K_psi_z == prob.M_R
    assert drv.M_psi == prob.M_L
    assert not drv.psi_bounded
    assert drv.control is prob
    # the induced driver evaluates the minimum itself
    x, z = np.array([0.5]), np.array([-1.0])
    assert drv.psi(x[None], z[None])[0] == min(_brute_force(prob, x, z))


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
    with pytest.raises(ValueError, match="unknown policy kind"):
        policy_from_json({"kind": "mystery"}, prob)
    for kind in ("feedback", "threshold_z"):
        with pytest.raises(ValueError, match="needs a solved problem"):
            policy_from_json({"kind": kind, "cut": 0.0, "below": 0, "above": 1},
                             prob, None)


@pytest.mark.parametrize("spec, message", [
    ({"kind": "constant", "index": 2}, "index 2 is not an integer from 0 to 1"),
    ({"kind": "constant", "index": -1}, "index -1"),
    ({"kind": "constant", "index": 1.0}, "index 1.0"),
    ({"kind": "constant", "index": True}, "index True"),
    ({"kind": "constant"}, "constant policy needs index"),
    ({"kind": "threshold_z", "cut": 0.0, "below": 0, "above": 2}, "above 2"),
    ({"kind": "threshold_z", "cut": 0.0, "below": 0, "above": 1, "axis": 1},
     "axis 1 is not an integer from 0 to 0"),
    ({"kind": "threshold_z", "below": 0, "above": 1}, "needs cut"),
    ({"kind": "threshold_z", "cut": "0.1", "below": 0, "above": 1},
     "cut '0.1' is not a number"),
    ([], "unknown policy kind None")])
def test_bad_policy_specs_are_refused(spec, message):
    # every control index is checked against the problem's controls, so a
    # bad spec fails here rather than inside a run
    prob = two_control_problem()
    with pytest.raises(ValueError, match=message):
        control.check_policy_spec(spec, prob)
    with pytest.raises(ValueError, match=message):
        policy_from_json(spec, prob)


def test_single_control_costs_reduce_to_plain_averages(interval, std_model):
    # one control with R = 0: no tilt, L = 0.5; then
    # I = 0.5 - mu E[K_T]/T and the recovered J is mu itself
    prob = ControlProblem(R_table=np.array([[0.0]]),
                          L=lambda X, k: np.full(len(X), 0.5), M_R=0.0, M_L=0.5)
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
    # 10 steps: the partial values come after steps 2 and 5, each divided by
    # its own horizon, not by T/4 = 0.0025
    I = cost_I(std_model, interval, prob, Policy.constant(1), 0.3,
               T=0.01, h=1e-3, paths=8, seed=1)
    assert sorted(I.horizon_values) == [0.002, 0.005, 0.01]


def test_zero_tilt_weights_are_exactly_one(interval, std_model):
    prob = ControlProblem(R_table=np.array([[0.0]]),
                          L=lambda X, k: np.full(len(X), 0.5), M_R=0.0, M_L=0.5)
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
                          L=lambda X, k: np.full(len(X), 0.5), M_R=3.0, M_L=0.5)
    with pytest.raises(WeightDegeneracy):
        girsanov_weight_check(std_model, interval, wild, Policy.constant(0),
                              T=60.0, h=1e-2, paths=64, seed=3, mu=0.0)


def test_degenerate_local_time_detected(std_model):
    wide = ball_domain(8.0, 1)
    prob = ControlProblem(R_table=np.array([[0.0]]),
                          L=lambda X, k: np.full(len(X), 0.5), M_R=0.0, M_L=0.5)
    with pytest.raises(DegenerateLocalTime):
        cost_J(std_model, wide, prob, Policy.constant(0), 0.5, T=1.0,
               h=1e-2, paths=32, seed=0, x0=np.zeros(1))


def test_control_table_bound_validated():
    with pytest.raises(ValueError):
        ControlProblem(R_table=np.array([[2.0]]),
                       L=lambda X, k: np.zeros(len(X)), M_R=1.0, M_L=0.1)


# Recorded from the masked per-control accumulation that the table gather
# replaced (girsanov from the per-step table builds that the shared table
# replaced); on the interval every path is bit-identical, so == holds. The J
# costs read lambda and the feedback and threshold rules read zeta,
# re-recorded with the 1-d ghost-point boundary rows. The feedback,
# threshold and state-sign rows were re-recorded with per-node control
# tables, whose switch points sit on the node nearest the rule's own; the
# threshold's moved from x = 0.14507 to 0.145, and no path of this pin
# visits the sliver between them, so its row kept its bits.
GOLDEN_COSTS = {
    "feedback": (0.3941281241135666, 0.02977434563716419,
                 0.1299764160193862, 0.034646531928420175),
    "constant": (0.38885993012951936, 0.029450632702548718,
                 0.12649524983560356, 0.03521714119207027),
    "threshold": (0.39126097609008736, 0.026483441467092594,
                  0.12019484380612373, 0.037951638863131895),
    "state-sign": (0.393990985410026, 0.03205414203643625,
                   0.13335842539395398, 0.036006660766709234),
    "girsanov-constant": {
        "mean_weight": 1.0009361120184572, "mean_weight_stderr": 0.04291887815515035,
        "effective_sample_size": 15.570582127960185,
        "I_reweighted": 0.4074203041280461, "I_reweighted_stderr": 0.04022561800878449,
        "I_tilted": 0.2930683081268326, "I_tilted_stderr": 0.05888197747776342,
        "agreement_gap": 0.11435199600121349, "combined_stderr": 0.07131050144179668},
    "girsanov-feedback": {
        "mean_weight": 0.9821130849119032, "mean_weight_stderr": 0.04085102434822339,
        "effective_sample_size": 15.595268485212124,
        "I_reweighted": 0.39755969826510573, "I_reweighted_stderr": 0.03525418136630241,
        "I_tilted": 0.28054105323946904, "I_tilted_stderr": 0.06052681393377293,
        "agreement_gap": 0.11701864502563669, "combined_stderr": 0.07004536036584945},
}


def test_costs_pinned_bit_for_bit(interval, std_model):
    prob = two_control_problem()
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.2,
                        spacing=1e-2)
    assert sol.lam == 0.3501302823219385
    policies = {
        "feedback": feedback_policy(prob, sol),
        "constant": policy_from_json({"kind": "constant", "index": 1}, prob, sol),
        "threshold": policy_from_json({"kind": "threshold_z", "axis": 0,
                                       "cut": 0.0, "below": 0, "above": 1},
                                      prob, sol),
        "state-sign": Policy.tabulate(lambda nodes, Z: (nodes[:, 0] > 0).astype(int),
                                      sol.v.mesh)}
    for name, pol in policies.items():
        I = cost_I(std_model, interval, prob, pol, 0.2, 0.4, 1e-3, 16, seed=3)
        J = cost_J(std_model, interval, prob, pol, sol.lam, 0.4, 1e-3, 16, seed=4)
        assert (I.value, I.stderr, J.value, J.stderr) == GOLDEN_COSTS[name], name
    for name in ("constant", "feedback"):
        out = girsanov_weight_check(std_model, interval, prob, policies[name],
                                    T=0.4, h=1e-3, paths=16, seed=7, mu=0.2)
        assert out == GOLDEN_COSTS["girsanov-" + name], name


# Recorded at the per-step rule evaluation that the constant path replaced,
# with sigma given by its diagonal; sigma depends on the state, so the noise
# and the tilt go through the einsum of model.noise_term, which keeps the
# bits of the diagonal product. A node table of ones gives the same bits as
# the constant.
STATE_SIGMA_COSTS = (
    (0.3096666173607215, 0.0591831623826108,
     0.1923787477152575, 0.047511998552932325),
    (0.43012665092028524, 0.3643764631894455, 0.9784096079443441))


def test_constant_policy_with_state_dependent_sigma_pinned(interval):
    prob = two_control_problem()
    model = SdeModel(b=lambda X: -X,
                     sigma=lambda X: (1.0 + 0.2 * X)[:, :, None] * np.eye(X.shape[1]),
                     eta_hint=-1.0)
    x0 = np.array([0.9])
    ones = Policy.tabulate(lambda nodes, Z: np.ones(len(nodes), int),
                           build_mesh(interval, 1e-2))
    for pol in (Policy.constant(1), ones):
        I = cost_I(model, interval, prob, pol, 0.2, 0.2, 1e-3, 8, seed=3, x0=x0)
        J = cost_J(model, interval, prob, pol, 0.3, 0.4, 1e-3, 16, seed=4,
                   x0=x0)
        g = girsanov_weight_check(model, interval, prob, pol, T=0.2, h=1e-3,
                                  paths=8, seed=7, mu=0.2, x0=x0)
        assert (I.value, I.stderr, J.value, J.stderr) == STATE_SIGMA_COSTS[0]
        assert ((g["I_tilted"], g["I_reweighted"], g["mean_weight"])
                == STATE_SIGMA_COSTS[1])


def test_costs_with_boundary_cost_pinned_bit_for_bit(interval, std_model):
    # a non-zero g, recorded from the boundary cost of the control layer,
    # lambda from the 1-d ghost-point boundary rows; ==
    prob = dataclasses.replace(two_control_problem(),
                               g=lambda X: 0.2 * X[:, 0] ** 2 + 0.05)
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.2,
                        spacing=1e-2)
    assert sol.lam == 0.5071347709845169
    I = cost_I(std_model, interval, prob, feedback_policy(prob, sol), 0.2, 0.4,
               1e-3, 16, seed=3)
    assert I.horizon_values == {
        0.1: (0.48867185576779626, 0.007804701447347531),
        0.2: (0.48497030611091585, 0.005708574658161336),
        0.4: (0.4863279864914597, 0.0056707703597660575)}
    J = cost_J(std_model, interval, prob, Policy.constant(1), sol.lam, 0.4,
               1e-3, 16, seed=4)
    assert (J.value, J.stderr) == (0.23245018497825468, 0.010840861989744772)
    out = girsanov_weight_check(std_model, interval, prob, Policy.constant(0),
                                T=0.4, h=1e-3, paths=16, seed=7, mu=0.2)
    assert out == {
        "mean_weight": 1.002396876422651, "mean_weight_stderr": 0.04415552953087812,
        "effective_sample_size": 15.54747567379024,
        "I_reweighted": 0.5180237822605597, "I_reweighted_stderr": 0.025304446894952048,
        "I_tilted": 0.5343707050399614, "I_tilted_stderr": 0.010073025747333786,
        "agreement_gap": 0.01634692277940175, "combined_stderr": 0.027235654579354205}


def test_policy_holds_a_table_or_an_index(interval):
    mesh = build_mesh(interval, 0.5)    # nodes -1, -0.5, 0, 0.5, 1
    table = np.array([0, 0, 1, 1, 1])
    with pytest.raises(ValueError, match="constant index or a node table"):
        Policy()
    with pytest.raises(ValueError, match="constant index or a node table"):
        Policy(index=0, table=table, mesh=mesh)
    assert Policy.constant(2).index == 2
    pol = Policy(table=table, mesh=mesh)
    assert pol.index is None and pol.table.dtype == np.intp
    X = np.array([[-1.0], [-0.6], [-0.2], [0.3], [0.9]])
    assert np.array_equal(pol.controls_for(X), [0, 0, 1, 1, 1])
    with pytest.raises(ValueError, match="one control index per node"):
        Policy(table=table.astype(float), mesh=mesh)


def test_table_needs_one_control_per_node(interval):
    mesh = build_mesh(interval, 0.5)
    for n in (4, 6):
        with pytest.raises(ValueError, match="one control index per node"):
            Policy(table=np.zeros(n, int), mesh=mesh)
    with pytest.raises(ValueError, match="one control index per node"):
        Policy(table=np.zeros((5, 1), int), mesh=mesh)
    with pytest.raises(ValueError, match="one control index per node"):
        Policy(table=np.zeros(5, int))
    with pytest.raises(ValueError, match="one control index per node"):
        Policy.tabulate(lambda nodes, Z: np.zeros(len(nodes) - 1, int), mesh)


def test_tabulated_rule_runs_once_on_the_nodes_and_never_in_a_step(interval, std_model):
    # the rule sees the nodes and the node zeta (zeros without a solution)
    # once, when the table is built; stepping only looks the table up
    prob = two_control_problem()
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.2,
                        spacing=1e-2)
    mesh = sol.v.mesh
    for zeta in (None, sol.zeta):
        seen = []

        def rule(nodes, Z):
            seen.append((nodes.copy(), Z.copy()))
            return np.where(Z[:, 0] + nodes[:, 0] < 0.0, 0, 1)

        pol = Policy.tabulate(rule, mesh, zeta, "rule")
        assert len(seen) == 1
        assert np.array_equal(seen[0][0], mesh.nodes)
        want = np.zeros(mesh.nodes.shape) if zeta is None else zeta
        assert np.array_equal(seen[0][1], want)
        for cost in (cost_I, cost_J):
            cost(std_model, interval, prob, pol, 0.2, 0.5, 1e-3, 32, seed=1)
        assert len(seen) == 1


def _counting_L_table(prob):
    calls = []
    table = prob.L_table

    def counted(X):
        calls.append(len(X))
        return table(X)

    prob.L_table = counted
    return calls


def test_feedback_step_builds_one_cost_table_and_constant_none(interval, std_model,
                                                             monkeypatch):
    # the feedback is a per-node control table: building it takes one cost
    # table over the nodes; a run then builds one cost table per block, for
    # the running cost of the chosen controls, none in the steps, and
    # interpolates no zeta; a constant policy builds none
    prob = two_control_problem()
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.2,
                        spacing=1e-2)
    calls = _counting_L_table(prob)
    fb = feedback_policy(prob, sol)
    assert calls == [sol.v.mesh.n_nodes]
    del calls[:]
    zeta_calls = []
    monkeypatch.setattr(type(sol), "zeta_at",
                        lambda self, X: zeta_calls.append(len(X)))
    # 500 steps of 320 paths, in sub-blocks of S steps and a last one of
    # the rest
    S = dynamics._SUB_NUMBERS // 320
    cost_I(std_model, interval, prob, fb, 0.2, 0.5, 1e-3, 320, seed=1)
    assert calls == [min(S, 500 - j) * 320 for j in range(0, 500, S)]
    assert len(calls) > 1
    assert zeta_calls == []
    del calls[:]
    cost_J(std_model, interval, prob, Policy.constant(1), sol.lam, 0.05, 1e-3,
           8, seed=1, x0=np.array([0.99]))
    assert calls == []


def test_criterion_09_policies_build_at_most_one_cost_table_per_step(monkeypatch):
    # the criterion's policies on a 50-step horizon: every policy is a node
    # table or a constant, so none reads zeta in a run, and a run builds one
    # cost table per block, for the running cost of the chosen controls
    from ebsde import acceptance
    from ebsde.ergodic import ErgodicSolution
    builds = {}
    zeta_calls = []
    monkeypatch.setattr(ErgodicSolution, "zeta_at",
                        lambda self, X: zeta_calls.append(len(X)))

    def short_cost(model, domain, problem, pol, mu, T, h, paths, seed):
        calls = _counting_L_table(problem)
        try:
            est = cost_I(model, domain, problem, pol, mu, 50 * h, h, 8, seed)
        finally:
            del problem.L_table
        builds[pol.name] = len(calls)
        return est

    monkeypatch.setattr(acceptance, "cost_I", short_cost)
    monkeypatch.setattr(acceptance, "cost_J", short_cost)
    acceptance.criterion_09()
    # a 50-step run is one block: one table for the running cost
    assert builds == {"feedback": 1, "constant-0": 0, "constant-1": 0,
                      "state-sign": 1, "z-threshold": 1, "anti-feedback": 1}
    assert zeta_calls == []


def test_step_tuples_carry_state_and_local_time_at_fixed_positions(interval, std_model):
    # a single zero-tilt control leaves the dynamics untouched, so the
    # controlled blocks must replay the plain ensemble blocks: X at index 1,
    # X_new, dK and xi at -3, -2, -1 in both tuples, flat in step-major order
    prob = ControlProblem(R_table=np.array([[0.0]]),
                          L=lambda X, k: np.full(len(X), 0.5), M_R=0.0, M_L=0.5)
    P = 12
    X0 = np.linspace(-0.99, 0.99, P)[:, None]
    zeros = Policy.tabulate(lambda nodes, Z: np.zeros(len(nodes), int),
                            build_mesh(interval, 1e-2))
    for pol in (Policy.constant(0), zeros):
        plain = ensemble_steps(std_model, interval, X0, 200, 1e-2, 4)
        steered = control._controlled_steps(std_model, interval, prob, pol, X0,
                                            200, 1e-2, 4)
        reflected = steps = 0
        X_prev = X0
        for a, b in zip(plain, steered):
            assert a[0] == b[0] == steps
            n_rows = len(a[-2])
            assert np.array_equal(a[1][:P], X_prev) and np.array_equal(b[1][:P], X_prev)
            # each step starts where the one before it ended
            assert np.array_equal(a[1][P:], a[-3][:-P])
            for k in (1, -3, -2, -1):
                assert np.array_equal(a[k], b[k])
            assert b[-2].shape == (n_rows,) and b[-2].min() >= 0.0
            assert b[1].shape == b[-3].shape == b[-1].shape == (n_rows, 1)
            assert np.array_equal(b[3], np.full(n_rows, 0.5))
            reflected += int((b[-2] > 0).sum())
            steps += n_rows // P
            X_prev = a[-3][-P:].copy()
        assert steps == 200 and reflected > 0


def _assert_table_is_the_node_argmin(prob, sol):
    # the table holds the Hamiltonian argmin at every node's solved zeta;
    # a node looks up its own entry
    nodes = sol.v.nodes
    table = feedback_policy(prob, sol).controls_for(nodes)
    for x, z, k in zip(nodes, sol.zeta, table):
        vals = _brute_force(prob, x, z)
        best = int(np.argmin(vals))
        assert k == best or abs(vals[k] - vals[best]) <= 1e-12
    assert np.array_equal(table, hamiltonian(prob, nodes, sol.zeta)[1])
    return table


def test_feedback_table_is_the_hamiltonian_argmin_in_1d(interval, std_model):
    prob = two_control_problem()
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.3,
                        spacing=1e-3)
    table = _assert_table_is_the_node_argmin(prob, sol)
    # one switch, near x = 0.249
    switch = np.nonzero(np.diff(table))[0]
    assert len(switch) == 1 and abs(sol.v.nodes[switch[0], 0] - 0.249) < 2e-3


def test_feedback_table_is_the_hamiltonian_argmin_in_2d():
    from ebsde.presets import assemble_config
    domain, model, driver, prob = assemble_config({
        "domain": {"kind": "ball", "radius": 1.0, "dim": 2},
        "model": {"kind": "kolmogorov", "dim": 2, "eta_hint": -1.0,
                  "potential": {"kind": "quadratic", "curvature": 1.0}},
        "driver": {"kind": "hamiltonian"},
        "control": {"kind": "table",
                    "R": [[0.25, 0.0], [-0.25, 0.0], [0.0, 0.25]],
                    "L": {"kind": "affine", "base": 0.5, "slopes": [0.0, 0.1, -0.1]},
                    "M_R": 0.25, "M_L": 0.7}})
    sol = solve_ergodic(model, domain, driver, 0.3, spacing=0.1)
    table = _assert_table_is_the_node_argmin(prob, sol)
    assert len(np.unique(table)) > 1
    # off the nodes the policy takes the entry of the nearest node
    X = np.random.default_rng(2).uniform(-0.7, 0.7, (200, 2))
    nearest = [int(np.argmin(((sol.v.nodes - x) ** 2).sum(axis=1))) for x in X]
    assert np.array_equal(feedback_policy(prob, sol).controls_for(X), table[nearest])


def _step_tilt(monkeypatch, model, domain, prob, pol, h):
    """The tilt function that ``_controlled_steps`` hands the stepper."""
    seen = []
    steps = dynamics._step_blocks
    monkeypatch.setattr(dynamics, "_step_blocks",
                        lambda *args: seen.append(args[6]) or steps(*args))
    next(control._controlled_steps(model, domain, prob, pol, np.zeros((2, 1)),
                                   1, h, 0))
    monkeypatch.undo()
    return seen[0]


def test_folded_lookup_is_the_tilt_of_the_nearest_nodes_control(interval, std_model,
                                                                monkeypatch):
    # the per-step tilt is one take from the per-node tilt table at the
    # unclamped index; it must be tilts[controls_for(X)] bit for bit, on
    # and between the nodes, one ulp either side of every midpoint and
    # beyond both ends of the interval
    prob, h = two_control_problem(), 1e-3
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.3,
                        spacing=1e-3)
    a = sol.v.mesh.axes[0]
    mid = (a[:-1] + a[1:]) / 2
    pts = np.concatenate([
        np.random.default_rng(4).uniform(-1.2, 1.2, 400_000), a, mid,
        np.nextafter(mid, np.inf), np.nextafter(mid, -np.inf),
        [-1e3, -3.0, np.nextafter(-1.0, -np.inf), np.nextafter(1.0, np.inf), 3.0, 1e3]])
    X = pts[:, None]
    tilts = (prob.R_table @ std_model.sigma_constant.T) * h
    policies = [feedback_policy(prob, sol),
                Policy.tabulate(lambda nodes, Z: (np.arange(len(nodes)) % 2),
                                sol.v.mesh, name="alternating"),
                Policy.constant(1)]
    for pol in policies:
        got = _step_tilt(monkeypatch, std_model, interval, prob, pol, h)(X)
        want = tilts[pol.controls_for(X)]
        assert np.array_equal(np.broadcast_to(got, want.shape), want), pol.name
    # the alternating table tells every neighbouring node apart
    assert len(np.unique(policies[1].controls_for(X))) == 2


def test_feedback_costs_pinned_bit_for_bit(interval, std_model):
    # recorded with the per-step Mesh.nearest lookup and sub-blocks of 2^16
    # numbers
    prob = two_control_problem()
    sol = solve_ergodic(std_model, interval, induced_driver(prob), 0.3,
                        spacing=1e-3)
    fb = feedback_policy(prob, sol)
    I = cost_I(std_model, interval, prob, fb, 0.3, 1.0, 1e-3, 160, seed=3)
    J = cost_J(std_model, interval, prob, fb, sol.lam, 1.0, 1e-3, 160, seed=4)
    assert I.horizon_values == {0.25: (0.29720790110142914, 0.025588438475569644),
                                0.5: (0.3212205440678935, 0.01872028774581859),
                                1.0: (0.30054726011116706, 0.01436002633849341)}
    assert (J.value, J.stderr) == (0.29479310852985907, 0.01993103682410778)
    assert J.extra["mean_local_time"] == 0.8605752661005243


def test_disc_feedback_attains_the_constants_and_constants_score_above():
    # the control application in d = 2: the disc Hamiltonian's feedback
    # table, looked up at Mesh.nearest, attains lambda and mu, and each
    # constant control scores above them, by the verdict of ``ebsde control``
    from ebsde.presets import assemble_config
    domain, model, driver, prob = assemble_config({
        "domain": {"kind": "ball", "radius": 1.0, "dim": 2},
        "model": {"kind": "kolmogorov", "dim": 2, "eta_hint": -1.0,
                  "potential": {"kind": "quadratic", "curvature": 1.0}},
        "driver": {"kind": "hamiltonian"},
        "control": {"kind": "table",
                    "R": [[0.25, 0.0], [-0.25, 0.0], [0.0, 0.25]],
                    "L": {"kind": "affine", "base": 0.5, "slopes": [0.0, 0.1, -0.1]},
                    "M_R": 0.25, "M_L": 0.7}})
    mu, T, h, paths = 0.3, 10.0, 1e-2, 400
    sol = solve_ergodic(model, domain, driver, mu, spacing=0.05)
    fb = feedback_policy(prob, sol)
    assert sol.v.mesh.nodes.shape[1] == 2 and len(np.unique(fb.table)) > 1
    for k, pol in enumerate([fb] + [Policy.constant(j) for j in range(3)]):
        I = cost_I(model, domain, prob, pol, mu, T, h, paths, 10 * k)
        J = cost_J(model, domain, prob, pol, sol.lam, T, h, paths, 10 * k + 5)
        assert policy_verdict(I, J, sol.lam, mu, pol is fb), pol.name


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
        assert np.array_equal(table[:, k], prob.L(X, k))


def test_controlled_step_too_large_raises(interval, std_model):
    with pytest.raises(StepTooLarge):
        cost_I(std_model, interval, two_control_problem(), Policy.constant(0),
               0.0, T=50.0, h=50.0, paths=4, seed=0, x0=np.array([0.9]))


def test_start_outside_the_closure_is_refused(interval, std_model):
    # a start beyond 3r would fold outside the interval on a small move and
    # read as a step that is too large; it is refused as a start instead
    prob = two_control_problem()
    for cost in (cost_I, cost_J):
        with pytest.raises(ValueError, match="x0 outside"):
            cost(std_model, interval, prob, Policy.constant(0), 0.0, T=1.0,
                 h=1e-2, paths=4, seed=0, x0=np.array([3.5]))
