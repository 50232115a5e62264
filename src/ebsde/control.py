"""Ergodic control layer: Hamiltonian, feedback policies, and the two
long-run costs.

The driver of the ergodic equation is the Hamiltonian
psi(x, z) = min over the control grid of L(x, u) + z R(u). Its argmin
defines the optimal feedback once the gradient field zeta of the solved
value function is available.

A policy is a constant control or, as in the Markov-chain approximation
(Kushner & Dupuis 2001), one control per grid node: a rule of the state and
zeta is evaluated once at the nodes, never per step (``Policy.tabulate``).

The controlled measure tilts the noise by R(u): under it the state drift
becomes b + sigma R(u), which is how the costs are simulated.
The exponential-weight route (simulate under the base measure, reweight by
the stochastic exponential of the R integral) is kept as a cross-check,
since its variance blows up when the horizon times |R|^2 grows.

Costs: the time-average cost divides accumulated running and boundary
costs by the horizon and converges to the ergodic constant lambda for the
optimal feedback; the per-unit-local-time cost divides by the accumulated
local time instead and converges to the boundary constant mu.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dynamics
from .discounted import DriverSpec
from .dynamics import SdeModel, _Accumulator, _boundary_cost, _mean_stderr
from .errors import DegenerateLocalTime, WeightDegeneracy
from .geometry import DomainSpec
from .grids import Mesh

__all__ = ["ControlProblem", "Policy", "hamiltonian", "induced_driver",
           "feedback_policy", "check_policy_spec", "policy_from_json",
           "CostEstimate", "cost_I", "cost_J", "policy_verdict",
           "girsanov_weight_check"]


@dataclass
class ControlProblem:
    """Finite control grid with noise tilt R and running cost L.

    ``R_table`` has one row per control. ``L(X, k)`` is batched: it maps
    states X (P, d) and one control index k to the running costs (P,).
    ``g(X)``, batched the same way, is the boundary running cost (None
    means zero).
    """

    R_table: np.ndarray
    L: Callable
    M_R: float
    M_L: float
    K_L_x: float = 0.0
    g: Optional[Callable] = None

    def __post_init__(self):
        self.R_table = np.atleast_2d(np.asarray(self.R_table, dtype=float))
        norms = np.linalg.norm(self.R_table, axis=1)
        if norms.max() > self.M_R + 1e-12:
            raise ValueError(f"|R| reaches {norms.max():.3g}, beyond the declared "
                             f"bound {self.M_R:.3g}")

    @property
    def n_controls(self) -> int:
        return len(self.R_table)

    def L_table(self, X: np.ndarray) -> np.ndarray:
        """Running cost of every control at a batch of states, (P, K)."""
        out = np.empty((len(X), self.n_controls))
        for k in range(self.n_controls):
            out[:, k] = self.L(X, k)
        return out


def hamiltonian(problem: ControlProblem, X: np.ndarray, Z: np.ndarray):
    """Exact minimum of L(x, u) + z R(u) over the control grid, for a batch
    of states X (P, d) and z row vectors Z (P, d).

    Returns (values (P,), control indices (P,)); ties resolve to the lowest
    index.
    """
    costs = problem.L_table(X) + Z @ problem.R_table.T
    ks = np.argmin(costs, axis=1)
    return costs[np.arange(len(X)), ks], ks


def induced_driver(problem: ControlProblem) -> DriverSpec:
    """Driver whose values are the Hamiltonian minima.

    The z-Lipschitz constant equals the noise-tilt bound; the x constant
    inherits the declared x-modulus of the running cost.
    """
    return DriverSpec(psi=lambda X, Z: hamiltonian(problem, X, Z)[0],
                      g=problem.g, K_psi_x=problem.K_L_x,
                      K_psi_z=problem.M_R, M_psi=problem.M_L,
                      psi_bounded=False, control=problem)


@dataclass(eq=False)
class Policy:
    """One control per state: a constant ``index`` that every path takes,
    or a ``table`` of control indices (intp), one per node of ``mesh``,
    looked up at the node nearest each state (``Mesh.nearest``). A policy
    holds exactly one of the two; ``tabulate`` builds a table from a rule,
    and ``lookup`` folds a per-control array (the tilts) into a node table.
    """

    index: Optional[int] = None
    table: Optional[np.ndarray] = None
    mesh: Optional[Mesh] = None
    name: str = "policy"

    def __post_init__(self):
        if (self.index is None) == (self.table is None):
            raise ValueError("a policy holds a constant index or a node table")
        if self.table is not None:
            table = np.asarray(self.table)
            if (not np.issubdtype(table.dtype, np.integer) or self.mesh is None
                    or table.shape != (self.mesh.n_nodes,)):
                raise ValueError("a node table holds one control index per node "
                                 "of its mesh")
            self.table = table.astype(np.intp, copy=False)

    def controls_for(self, X: np.ndarray) -> np.ndarray:
        """Control index of each state, (P, d) -> (P,)."""
        if self.index is not None:
            return np.full(len(X), self.index, dtype=int)
        return self.table[self.mesh.nearest(X)]

    def lookup(self, values: np.ndarray) -> Callable:
        """X -> values[controls_for(X)] for one row of ``values`` per
        control: the constant's row, which broadcasts over the states, or
        one ``Mesh.take`` from the node table values[table], built once."""
        if self.index is not None:
            return lambda X, row=values[self.index]: row
        per_node = values[self.table]
        return lambda X: self.mesh.take(per_node, X)

    @staticmethod
    def constant(k: int) -> "Policy":
        return Policy(index=int(k), name=f"constant-{k}")

    @staticmethod
    def tabulate(rule: Callable, mesh: Mesh, zeta: Optional[np.ndarray] = None,
                 name: str = "policy") -> "Policy":
        """Node table of rule(nodes, Z), evaluated once at the nodes of
        ``mesh``: Z is the solved zeta at those nodes, zeros without one."""
        Z = np.zeros(mesh.nodes.shape) if zeta is None else zeta
        return Policy(table=rule(mesh.nodes, Z), mesh=mesh, name=name)


def feedback_policy(problem: ControlProblem, solution) -> Policy:
    """Optimal feedback as one control per grid node: the Hamiltonian argmin
    at the solved zeta of every node, computed once, then looked up at the
    node nearest each state."""
    return Policy.tabulate(lambda nodes, Z: hamiltonian(problem, nodes, Z)[1],
                           solution.v.mesh, solution.zeta, "feedback")


_SPEC_KEYS = {"constant": ("index",), "threshold_z": ("cut", "below", "above"),
              "feedback": ()}


def check_policy_spec(spec, problem: ControlProblem) -> str:
    """The kind of a policy spec; ValueError unless ``policy_from_json``
    can build it for ``problem``: a known kind with the keys it needs
    (``_SPEC_KEYS``), every control index in range, the zeta axis one of
    the problem's and a numeric cut."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _SPEC_KEYS:
        raise ValueError(f"unknown policy kind {kind!r}; use one of "
                         f"{', '.join(_SPEC_KEYS)}")
    missing = [key for key in _SPEC_KEYS[kind] if key not in spec]
    if missing:
        raise ValueError(f"{kind} policy needs {', '.join(missing)}")
    n, d = problem.R_table.shape
    for key, bound in (("index", n), ("below", n), ("above", n), ("axis", d)):
        k = spec.get(key, 0)
        if (isinstance(k, bool) or not isinstance(k, (int, np.integer))
                or not 0 <= k < bound):
            raise ValueError(f"{kind} policy {key} {k!r} is not an integer "
                             f"from 0 to {bound - 1}")
    cut = spec.get("cut", 0.0)
    if isinstance(cut, bool) or not isinstance(cut, (int, float)):
        raise ValueError(f"{kind} policy cut {cut!r} is not a number")
    return kind


def policy_from_json(spec: dict, problem: ControlProblem,
                     solution=None) -> Policy:
    """Policies from a JSON-style dict (``check_policy_spec`` first).

    kinds: {"kind": "constant", "index": k};
    {"kind": "threshold_z", "axis": a, "cut": c, "below": k0, "above": k1}
    (k0 where the solved zeta's component a is below c at the nearest node,
    k1 elsewhere; requires solution);
    {"kind": "feedback"} (requires solution).
    """
    kind = check_policy_spec(spec, problem)
    if kind == "constant":
        return Policy.constant(spec["index"])
    if solution is None:
        raise ValueError(f"{kind} policy needs a solved problem")
    if kind == "feedback":
        return feedback_policy(problem, solution)
    a, c, k0, k1 = spec.get("axis", 0), float(spec["cut"]), spec["below"], spec["above"]
    return Policy.tabulate(lambda nodes, Z: np.where(Z[:, a] < c, k0, k1),
                           solution.v.mesh, solution.zeta, "threshold-z")


# ---------------------------------------------------------------------------
# controlled simulation


def _controlled_steps(model: SdeModel, domain: DomainSpec, problem: ControlProblem,
                      policy: Policy, X0: np.ndarray, n_steps: int, h: float,
                      seed: int, record: Optional[dynamics.RunRecord] = None):
    """Reflected Euler steps under the controlled measure, one block per
    yield: the proposal uses drift b + sigma R(u) with u the policy's
    control.

    Per step only the tilt runs beside the state recursion of the plain
    step (``dynamics._step_blocks``: drift, noise add and the boundary
    kernel; the local time and the StepTooLarge check run once per block):
    one gather from a per-node table of sigma R(u) h built once per run
    (``Policy.lookup``), or of R(u) then scaled by sigma(X) when sigma is
    not constant. Yields (start, X, u, L_u, X_new, dK, xi) over the m P
    path-steps of a block, flat in step-major order as
    ``dynamics.ensemble_steps`` yields them; the controls u come from one
    ``Policy.controls_for`` per block and L_u, the running cost of the
    chosen control, from one ``_running_cost``. A constant policy yields
    its index as u, a scalar int rather than an array, and evaluates only
    its own running cost.
    """
    sig, k = model.sigma_constant, policy.index
    if sig is not None:
        control_shift = policy.lookup((problem.R_table @ sig.T) * h)
    else:
        R_of = policy.lookup(problem.R_table)
        control_shift = lambda X: model.noise_term(
            X, np.broadcast_to(R_of(X), X.shape)) * h
    for i, X, X_new, dK, xi in dynamics._step_blocks(model, domain, X0, n_steps, h,
                                                    seed, control_shift, record):
        u = k if k is not None else policy.controls_for(X)
        yield i, X, u, _running_cost(problem, X, u), X_new, dK, xi


def _running_cost(problem: ControlProblem, X: np.ndarray, u) -> np.ndarray:
    """L(X_p, u_p) for a block of states: one call of L for a constant
    control u, one cost table otherwise."""
    if np.ndim(u) == 0:
        return problem.L(X, u)
    return problem.L_table(X)[np.arange(len(u)), u]


@dataclass
class CostEstimate:
    value: float
    stderr: float
    horizon_values: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def cost_I(model: SdeModel, domain: DomainSpec, problem: ControlProblem,
           policy: Policy, mu: float, T: float, h: float, paths: int,
           seed: int, x0=None) -> CostEstimate:
    """Time-average controlled cost at horizon T.

    Accumulates running cost plus (boundary cost - mu) against the local
    time, divided by T, under the controlled measure (drift-tilted
    simulation). Values after the whole steps nearest T/4 and T/2, each
    divided by its own horizon, are reported alongside to show
    stabilization toward the long-run limit.
    """
    n = dynamics.step_count(T, h)
    X0 = dynamics.start_states(model, domain, paths, h, seed, x0)
    acc = _Accumulator(np.zeros(paths))
    marks = {k: k * h for k in (round(n / 4), round(n / 2))} | {n: T}
    horizon_values = {}
    run = dynamics.RunRecord()
    for i, X, u, L_u, X_new, dK, xi in _controlled_steps(model, domain, problem, policy,
                                                         X0, n, h, seed, run):
        for k, sums in acc.add_steps(L_u * h, _boundary_cost(problem.g, X_new, dK, mu),
                                     start=i, marks=marks):
            horizon_values[marks[k]] = _mean_stderr(sums / marks[k])
    value, se = horizon_values[T]
    return CostEstimate(value, se, horizon_values, {"run": run.as_dict()})


def cost_J(model: SdeModel, domain: DomainSpec, problem: ControlProblem,
           policy: Policy, lam: float, T: float, h: float, paths: int,
           seed: int, x0=None) -> CostEstimate:
    """Per-unit-local-time controlled cost at horizon T.

    Ratio of accumulated (running cost - lam) plus boundary cost to the
    accumulated local time, with a delta-method standard error. Raises
    when the local time is statistically indistinguishable from zero.
    """
    n = dynamics.step_count(T, h)
    X0 = dynamics.start_states(model, domain, paths, h, seed, x0)
    num = _Accumulator(np.zeros(paths))
    den = _Accumulator(np.zeros(paths))
    run = dynamics.RunRecord()
    for i, X, u, L_u, X_new, dK, xi in _controlled_steps(model, domain, problem, policy,
                                                         X0, n, h, seed, run):
        if problem.g is None:
            num.add_steps((L_u - lam) * h)
        else:
            num.add_steps((L_u - lam) * h, _boundary_cost(problem.g, X_new, dK, 0.0))
        den.add_steps(dK)
    num, den = num.total, den.total
    dbar, d_se = _mean_stderr(den)
    if dbar <= 3 * d_se:
        raise DegenerateLocalTime(
            f"mean local time {dbar:.3g} within 3 stderr ({d_se:.3g}) of zero; "
            "lengthen the horizon")
    nbar = num.mean()
    J = nbar / dbar
    cov = np.cov(num, den)
    var_J = (cov[0, 0] / dbar ** 2 + nbar ** 2 * cov[1, 1] / dbar ** 4
             - 2 * nbar * cov[0, 1] / dbar ** 3)
    se = float(np.sqrt(max(var_J, 0.0) / paths))
    return CostEstimate(float(J), se,
                        extra={"mean_local_time": float(dbar),
                               "local_time_stderr": float(d_se),
                               "run": run.as_dict()})


def policy_verdict(I: CostEstimate, J: CostEstimate, lam: float, mu: float,
                   optimal: bool) -> bool:
    """Whether one policy's two long-run costs are as the theory says.

    The optimal feedback must attain both constants, I within
    stderr + 5e-3 of lam and J within stderr + 1e-2 of mu; any other
    policy must score no lower than them within the same slacks.
    """
    if optimal:
        return (abs(I.value - lam) <= I.stderr + 5e-3
                and abs(J.value - mu) <= J.stderr + 1e-2)
    return (I.value >= lam - (I.stderr + 5e-3)
            and J.value >= mu - (J.stderr + 1e-2))


def girsanov_weight_check(model: SdeModel, domain: DomainSpec,
                          problem: ControlProblem, policy: Policy,
                          T: float, h: float, paths: int, seed: int,
                          mu: float = 0.0, x0=None) -> dict:
    """Cross-check the drift-tilted cost against exponential reweighting.

    Simulates the base dynamics (plain ``dynamics.ensemble_steps``, the
    policy and its running cost evaluated once per block), accumulates the
    stochastic exponential of the R integral path by path, and reweights
    the cost. The reweighted estimate must agree with the tilted-simulation
    estimate within combined error bars, and the mean weight must be one.
    Raises when the effective sample size of the weights collapses below 5
    percent.
    """
    n = dynamics.step_count(T, h)
    X0 = dynamics.start_states(model, domain, paths, h, seed, x0)
    sh = np.sqrt(h)
    logw = _Accumulator(np.zeros(paths))
    cost = _Accumulator(np.zeros(paths))
    k = policy.index
    for i, X, X_new, dK, xi in dynamics.ensemble_steps(model, domain, X0, n, h, seed):
        u = k if k is not None else policy.controls_for(X)
        Ru = np.broadcast_to(problem.R_table[u], xi.shape)
        logw.add_steps((Ru * xi).sum(axis=1) * sh - 0.5 * (Ru * Ru).sum(axis=1) * h)
        cost.add_steps(_running_cost(problem, X, u) * h,
                       _boundary_cost(problem.g, X_new, dK, mu))
    logw, cost = logw.total, cost.total
    w = np.exp(logw - logw.max())
    ess = float(w.sum() ** 2 / (w * w).sum())
    if ess < 0.05 * paths:
        raise WeightDegeneracy(
            f"effective sample size {ess:.1f} of {paths}; shorten the horizon "
            "or shrink the noise tilt")
    W = np.exp(logw)
    mean_w, se_w = _mean_stderr(W)
    I_w, se_Iw = _mean_stderr(W * cost / T)
    tilted = cost_I(model, domain, problem, policy, mu, T, h, paths, seed + 1, x0=x0)
    return {
        "mean_weight": mean_w, "mean_weight_stderr": se_w,
        "effective_sample_size": ess,
        "I_reweighted": I_w, "I_reweighted_stderr": se_Iw,
        "I_tilted": tilted.value, "I_tilted_stderr": tilted.stderr,
        "agreement_gap": abs(I_w - tilted.value),
        "combined_stderr": float(np.hypot(se_Iw, tilted.stderr)),
    }
