"""Ergodic control layer: Hamiltonian, feedback policies, and the two
long-run costs.

The driver of the ergodic equation is the Hamiltonian
psi(x, z) = min over the control grid of L(x, u) + z R(u). Its argmin
defines the optimal feedback once the gradient field zeta of the solved
value function is available.

The controlled measure tilts the noise by R(u): under it the state drift
becomes b + sigma R(u), which is how the costs are simulated by default.
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
from .dynamics import SdeModel
from .errors import DegenerateLocalTime, WeightDegeneracy
from .geometry import DomainSpec, domain_grid

__all__ = ["ControlProblem", "Policy", "hamiltonian", "induced_driver",
           "feedback_policy", "policy_from_json", "CostEstimate",
           "cost_I", "cost_J", "policy_verdict", "girsanov_weight_check"]


@dataclass
class ControlProblem:
    """Finite control grid with noise tilt R and running cost L.

    ``R_table`` has one row per control; ``L(x, k)`` and the optional
    vectorized ``L_vec(X, k)`` take the control by index. ``g`` is the
    boundary running cost (None means zero).
    """

    R_table: np.ndarray
    L: Callable
    M_R: float
    M_L: float
    L_vec: Optional[Callable] = None
    K_L_x: float = 0.0
    g: Optional[Callable] = None
    name: str = "control-problem"

    def __post_init__(self):
        self.R_table = np.atleast_2d(np.asarray(self.R_table, dtype=float))
        norms = np.linalg.norm(self.R_table, axis=1)
        if norms.max() > self.M_R + 1e-12:
            raise ValueError(f"|R| reaches {norms.max():.3g}, beyond the declared "
                             f"bound {self.M_R:.3g}")

    @property
    def n_controls(self) -> int:
        return len(self.R_table)

    def L_at(self, X: np.ndarray, k: int) -> np.ndarray:
        if self.L_vec is not None:
            return self.L_vec(X, k)
        return np.array([self.L(x, k) for x in X])

    def L_table(self, X: np.ndarray) -> np.ndarray:
        """Running cost of every control at a batch of states, (P, K)."""
        out = np.empty((len(X), self.n_controls))
        for k in range(self.n_controls):
            out[:, k] = self.L_at(X, k)
        return out

    def validate(self, domain: DomainSpec, density: int = 33) -> None:
        """Spot-check the declared cost bound on a grid; raises on violation."""
        pts = domain_grid(domain, density)
        for k in range(self.n_controls):
            worst = float(np.abs(self.L_at(pts, k)).max())
            if worst > self.M_L + 1e-12:
                raise ValueError(f"|L(., control {k})| reaches {worst:.3g}, beyond "
                                 f"the declared bound {self.M_L:.3g}")


def hamiltonian(problem: ControlProblem, x, z):
    """Exact minimum of L(x, u) + z R(u) over the control grid.

    Returns (value, control index); ties resolve to the lowest index.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    vals = np.array([problem.L(x, k) + float(z @ problem.R_table[k])
                     for k in range(problem.n_controls)])
    k = int(np.argmin(vals))
    return float(vals[k]), k


def _control_costs(problem: ControlProblem, X: np.ndarray, Z: np.ndarray,
                   table: Optional[np.ndarray] = None) -> np.ndarray:
    """L(x, u) + z R(u) for every state of a batch and every control, (P, K);
    ``table`` is L_table(X) when the caller has it already."""
    if table is None:
        table = problem.L_table(X)
    return table + Z @ problem.R_table.T


def _hamiltonian_batch(problem: ControlProblem, X: np.ndarray, Z: np.ndarray):
    """Vectorized Hamiltonian over a batch; returns (values (P,), argmins (P,))."""
    costs = _control_costs(problem, X, Z)
    ks = np.argmin(costs, axis=1)
    return costs[np.arange(len(X)), ks], ks


def induced_driver(problem: ControlProblem, name: Optional[str] = None) -> DriverSpec:
    """Driver whose values are the Hamiltonian minima.

    The z-Lipschitz constant equals the noise-tilt bound; the x constant
    inherits the declared x-modulus of the running cost.
    """

    def psi(x, z, _p=problem):
        return hamiltonian(_p, x, z)[0]

    def psi_vec(X, Z, _p=problem):
        return _hamiltonian_batch(_p, X, Z)[0]

    return DriverSpec(psi=psi, g=problem.g, K_psi_x=problem.K_L_x,
                      K_psi_z=problem.M_R, M_psi=problem.M_L,
                      psi_vec=psi_vec, psi_bounded=False,
                      control=problem,
                      name=name or (problem.name + "-driver"))


@dataclass
class Policy:
    """Control selection rule u = rule(X, Z) over path batches.

    ``zeta_source`` (anything with a zeta_at method) supplies Z when the
    rule needs the solved gradient field; without one the rule receives
    zeros. Values returned by the rule are control-grid indices. With
    ``reads_costs`` the rule is called as rule(X, Z, costs), where costs
    is the (P, K) running-cost table of the step (or None). ``index`` marks
    a constant policy: every path takes that control and no rule runs.
    """

    rule: Optional[Callable] = None
    zeta_source: Optional[object] = None
    name: str = "policy"
    reads_costs: bool = False
    index: Optional[int] = None

    def __post_init__(self):
        if self.rule is None and self.index is None:
            raise ValueError("a policy needs a rule or a constant index")

    def controls_for(self, X: np.ndarray, costs: Optional[np.ndarray] = None) -> np.ndarray:
        if self.index is not None:
            return np.full(len(X), self.index, dtype=int)
        if self.zeta_source is not None:
            Z = self.zeta_source.zeta_at(X)
        else:
            Z = np.zeros_like(X)
        u = self.rule(X, Z, costs) if self.reads_costs else self.rule(X, Z)
        return np.asarray(u).astype(int, copy=False)

    @staticmethod
    def constant(k: int, name: Optional[str] = None) -> "Policy":
        return Policy(index=int(k), name=name or f"constant-{k}")


def feedback_policy(problem: ControlProblem, solution) -> Policy:
    """Optimal feedback: the Hamiltonian argmin at the solved zeta field."""

    def rule(X, Z, costs=None, _p=problem):
        return np.argmin(_control_costs(_p, X, Z, costs), axis=1)

    return Policy(rule=rule, zeta_source=solution, name="feedback",
                  reads_costs=True)


def policy_from_json(spec: dict, problem: ControlProblem,
                     solution=None) -> Policy:
    """Policies from a JSON-style dict.

    kinds: {"kind": "constant", "index": k};
    {"kind": "threshold_z", "axis": a, "cut": c, "below": k0, "above": k1}
    (uses the solved zeta field, requires solution);
    {"kind": "feedback"} (requires solution).
    """
    kind = spec.get("kind")
    if kind == "constant":
        return Policy.constant(int(spec["index"]))
    if kind == "threshold_z":
        a, c = int(spec.get("axis", 0)), float(spec["cut"])
        k0, k1 = int(spec["below"]), int(spec["above"])

        def rule(X, Z):
            return np.where(Z[:, a] < c, k0, k1)

        return Policy(rule=rule, zeta_source=solution, name="threshold-z")
    if kind == "feedback":
        if solution is None:
            raise ValueError("feedback policy needs a solved problem")
        return feedback_policy(problem, solution)
    raise ValueError(f"unknown policy kind {kind!r}")


# ---------------------------------------------------------------------------
# controlled simulation


def _controlled_steps(model: SdeModel, domain: DomainSpec, problem: ControlProblem,
                      policy: Policy, X0: np.ndarray, n_steps: int, h: float,
                      seed: int, tilt_drift: bool):
    """Reflected Euler steps with the policy in the loop.

    With ``tilt_drift`` the proposal uses drift b + sigma R(u) (controlled
    measure); without it the base dynamics are simulated and the caller
    reweights. Yields (i, X, u, L_u, X_new, dK, xi), where L_u is the
    running cost of the chosen control on each path. A constant policy
    yields its index as u, a scalar int rather than a (P,) array, and
    evaluates only its own running cost; any other builds the (P, K)
    running-cost table once per step.
    """
    X = np.array(X0, dtype=float)
    P, d = X.shape
    rows = np.arange(P)
    kernel = dynamics._make_kernel(domain)
    tilts = None    # sigma R(u) h for every control when sigma is constant
    if tilt_drift and model.sigma_constant is not None:
        tilts = (problem.R_table @ model.sigma_constant.T) * h
    k = policy.index
    for i, xi, noise in dynamics._noise_steps(model, seed, P, d, n_steps, h):
        if k is not None:
            u, L_u = k, problem.L_at(X, k)
        else:
            table = problem.L_table(X)
            u = policy.controls_for(X, table)
            L_u = table[rows, u]
        shift = model.drift_at(X) * h
        if tilts is not None:
            shift = shift + tilts[u]
        elif tilt_drift:
            Ru = np.broadcast_to(problem.R_table[u], X.shape)
            shift = shift + model.noise_term(X, Ru) * h
        X_new, dK = dynamics._advance(model, kernel, X, shift, xi, noise, h,
                                      "symmetrize")
        yield i, X, u, L_u, X_new, dK, xi
        X = X_new


def _boundary_cost(problem: ControlProblem, X: np.ndarray, dK: np.ndarray,
                   mu: float) -> np.ndarray:
    """(g(X) - mu) dK for one step; g is evaluated only when some path
    reflected."""
    if problem.g is None or not np.any(dK > 0):
        return (0.0 - mu) * dK
    return (np.array([problem.g(x) for x in X]) - mu) * dK


def _default_start(model, domain, paths, h, seed, x0):
    if x0 is not None:
        return np.tile(np.atleast_1d(np.asarray(x0, dtype=float)), (paths, 1))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 515_151]))
    return dynamics.stationary_start(model, domain, paths, rng, h, seed, "symmetrize")


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
    simulation). Values at T/4 and T/2 are reported alongside to show
    stabilization toward the long-run limit.
    """
    n = round(T / h)
    X0 = _default_start(model, domain, paths, h, seed, x0)
    acc = np.zeros(paths)
    marks = {round(n / 4): T / 4, round(n / 2): T / 2, n: T}
    horizon_values = {}
    for i, X, u, L_u, X_new, dK, xi in _controlled_steps(model, domain, problem,
                                                         policy, X0, n, h, seed, True):
        acc += L_u * h
        acc += _boundary_cost(problem, X_new, dK, mu)
        if i + 1 in marks:
            t = marks[i + 1]
            vals = acc / t
            horizon_values[t] = (float(vals.mean()),
                                 float(vals.std(ddof=1) / np.sqrt(paths)))
    value, se = horizon_values[T]
    return CostEstimate(value, se, horizon_values)


def cost_J(model: SdeModel, domain: DomainSpec, problem: ControlProblem,
           policy: Policy, lam: float, T: float, h: float, paths: int,
           seed: int, x0=None) -> CostEstimate:
    """Per-unit-local-time controlled cost at horizon T.

    Ratio of accumulated (running cost - lam) plus boundary cost to the
    accumulated local time, with a delta-method standard error. Raises
    when the local time is statistically indistinguishable from zero.
    """
    n = round(T / h)
    X0 = _default_start(model, domain, paths, h, seed, x0)
    num = np.zeros(paths)
    den = np.zeros(paths)
    for i, X, u, L_u, X_new, dK, xi in _controlled_steps(model, domain, problem,
                                                         policy, X0, n, h, seed, True):
        num += (L_u - lam) * h
        if problem.g is not None:
            num += _boundary_cost(problem, X_new, dK, 0.0)
        den += dK
    dbar = den.mean()
    d_se = den.std(ddof=1) / np.sqrt(paths)
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
                               "local_time_stderr": float(d_se)})


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

    Simulates the base dynamics, accumulates the stochastic exponential of
    the R integral path by path, and reweights the cost. The reweighted
    estimate must agree with the tilted-simulation estimate within
    combined error bars, and the mean weight must be one. Raises when the
    effective sample size of the weights collapses below 5 percent.
    """
    n = round(T / h)
    X0 = _default_start(model, domain, paths, h, seed, x0)
    sh = np.sqrt(h)
    logw = np.zeros(paths)
    cost = np.zeros(paths)
    for i, X, u, L_u, X_new, dK, xi in _controlled_steps(model, domain, problem,
                                                         policy, X0, n, h, seed, False):
        Ru = np.broadcast_to(problem.R_table[u], xi.shape)
        logw += (Ru * xi).sum(axis=1) * sh - 0.5 * (Ru * Ru).sum(axis=1) * h
        cost += L_u * h
        cost += _boundary_cost(problem, X_new, dK, mu)
    w = np.exp(logw - logw.max())
    ess = float(w.sum() ** 2 / (w * w).sum())
    if ess < 0.05 * paths:
        raise WeightDegeneracy(
            f"effective sample size {ess:.1f} of {paths}; shorten the horizon "
            "or shrink the noise tilt")
    W = np.exp(logw)
    mean_w = float(W.mean())
    se_w = float(W.std(ddof=1) / np.sqrt(paths))
    weighted = W * cost / T
    I_w = float(weighted.mean())
    se_Iw = float(weighted.std(ddof=1) / np.sqrt(paths))
    tilted = cost_I(model, domain, problem, policy, mu, T, h, paths, seed + 1, x0=x0)
    return {
        "mean_weight": mean_w, "mean_weight_stderr": se_w,
        "effective_sample_size": ess,
        "I_reweighted": I_w, "I_reweighted_stderr": se_Iw,
        "I_tilted": tilted.value, "I_tilted_stderr": tilted.stderr,
        "agreement_gap": abs(I_w - tilted.value),
        "combined_stderr": float(np.hypot(se_Iw, tilted.stderr)),
    }
