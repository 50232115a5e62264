"""The three benchmark workloads and their per-op verdicts.

Every problem is built with ``presets.assemble_config`` (from
``configs/*.json`` or from a literal config below), and every op calls the
same public functions as the matching ``ebsde`` subcommand. An op records
its latency under an end-to-end metric name, its verdict from the
program's own judge, and any oracle errors. Monte Carlo seeds are derived
from the workload seed; grid ops do not read it.
"""
from __future__ import annotations

import json
import math
import traceback
from collections import defaultdict
from pathlib import Path
from time import process_time

import numpy as np

from ebsde import control, dynamics, ergodic, errors, presets, verification

import oracle

__all__ = ["WORKLOADS", "Pass", "derive_seed"]

MUS = [-2.0, -1.0, 0.0, 1.0, 2.0]

_KOLMOGOROV = {"kind": "kolmogorov",
               "potential": {"kind": "quadratic", "curvature": 1.0},
               "eta_hint": -1.0}
DISC_COS = {"domain": {"kind": "ball", "radius": 1.0, "dim": 2},
            "model": dict(_KOLMOGOROV, dim=2),
            "driver": {"kind": "cos", "amplitude": 1.0}}
DISC_HAMILTONIAN = {
    "domain": DISC_COS["domain"], "model": DISC_COS["model"],
    "driver": {"kind": "hamiltonian"},
    "control": {"kind": "table",
                "R": [[0.25, 0.0], [-0.25, 0.0], [0.0, 0.25]],
                "L": {"kind": "affine", "base": 0.5, "slopes": [0.0, 0.1, -0.1]},
                "M_R": 0.25, "M_L": 0.7}}
QUARTIC_COS = {"domain": {"kind": "interval_quartic"},
               "model": _KOLMOGOROV,
               "driver": {"kind": "cos", "amplitude": 1.0}}
ELLIPSE = {"domain": {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 2.0]]},
           "model": dict(_KOLMOGOROV, dim=2)}


def derive_seed(seed: int, tag: int) -> int:
    """Monte Carlo seed for one call, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def load_configs(root: Path) -> dict:
    """Every config document the workloads use, by short name."""
    docs = {"disc_cos": DISC_COS, "disc_hamiltonian": DISC_HAMILTONIAN,
            "quartic_cos": QUARTIC_COS, "ellipse": ELLIPSE}
    for name in ("interval_cos", "degenerate", "two_control"):
        with open(root / "configs" / f"{name}.json") as fh:
            docs[name] = json.load(fh)
    return docs


def assemble(docs: dict, names) -> dict:
    """(domain, model, driver, control) for each named config."""
    return {name: presets.assemble_config(docs[name]) for name in names}


class OpFailed(Exception):
    """A verdict of the program's own judge did not hold."""


class Pass:
    """Accounting for one pass over a workload's ops."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.samples = defaultdict(list)
        self.units = {}
        self.attempted = 0
        self.failed = []
        self.lambda_err = []
        self.mu_err = []
        self.path_steps = 0
        self.seconds = 0.0   # CPU seconds of the whole pass

    def record(self, metric: str, value: float, unit: str = "s") -> None:
        self.samples[metric].append(value)
        self.units[metric] = unit

    def timed(self, metric: str, fn, *args, **kwargs):
        """Call fn and record its latency in CPU seconds of this process.

        The engine is single-threaded and BLAS is pinned to one thread, so
        CPU time equals the latency on an idle machine; unlike wall time it
        leaves out the bursts in which the host runs other guests (steal
        was up to a fifth of run time on the reference VM), which made
        sub-second ops vary by half between runs."""
        t0 = process_time()
        out = fn(*args, **kwargs)
        self.record(metric, process_time() - t0)
        return out

    def run_op(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            detail = fn(self)
        except Exception as exc:   # any failure is an op failure; keep going
            self.failed.append({"op": name, "error": type(exc).__name__,
                                "message": str(exc)[:300]})
            traceback.print_exc()
            return
        with open(self.out_dir / f"{name}.json", "w") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True, default=float)

    def check_lambda(self, oracle_: oracle.Oracle, mu: float, lam: float) -> float:
        err = abs(lam - oracle_.lam(mu))
        self.lambda_err.append(err)
        return err


def _judge(ok: bool, what: str) -> None:
    if not ok:
        raise OpFailed(what)


def _gross_lambda_bound(spacing: float, mu: float) -> float:
    """Sanity bound on |lambda - oracle|: far above the first-order
    discretization error, so only a broken solve trips it."""
    return 10.0 * spacing * (1.0 + abs(mu))


# ---------------------------------------------------------------------------
# grid2d_disc


def grid2d_disc(problems: dict, docs: dict, seed: int):
    dom, model, drv, _ = problems["disc_cos"]
    hdom, hmodel, hdrv, _ = problems["disc_hamiltonian"]
    orc = oracle.disc_oracle()
    spacing = 0.025
    state = {}

    def curve(p: Pass):
        c = p.timed("curve_s", ergodic.lambda_of_mu, model, dom, drv, MUS,
                    scheme="direct", spacing=spacing, tol=1e-3)
        errs = [p.check_lambda(orc, m, l) for m, l in zip(c.mus, c.lams)]
        ergodic.curve_to_csv(c, str(p.out_dir / "disc_curve.csv"))
        _judge(c.non_increasing(), "curve is not non-increasing")
        _judge(all(e <= _gross_lambda_bound(spacing, m) for m, e in zip(c.mus, errs)),
               "curve point far from the oracle")
        return {"mus": list(c.mus), "lambdas": list(c.lams), "oracle_err": errs}

    def hamiltonian_solve(p: Pass):
        sol = p.timed("solve_s", ergodic.solve_ergodic, hmodel, hdom, hdrv, 0.3,
                      scheme="direct", spacing=spacing, tol=1e-3)
        _judge(math.isfinite(sol.lam), "non-finite lambda")
        state["sol"] = sol
        return {"lambda": sol.lam, "mu": sol.mu}

    def pde(p: Pass):
        res = p.timed("pde_residual_s", verification.pde_residual,
                      state["sol"], hmodel, hdom, hdrv)
        _judge(all(math.isfinite(v) for v in res.values()), "non-finite residual")
        return res

    return [("disc_curve", curve), ("disc_hamiltonian_solve", hamiltonian_solve),
            ("disc_pde_residual", pde)]


# ---------------------------------------------------------------------------
# grid1d_inverse


def grid1d_inverse(problems: dict, docs: dict, seed: int):
    dom, model, drv, _ = problems["interval_cos"]
    qdom, qmodel, qdrv, _ = problems["quartic_cos"]
    ddom, dmodel, ddrv, _ = problems["degenerate"]
    orc = oracle.interval_oracle("ball")
    qorc = oracle.interval_oracle("quartic")
    tol = 1e-3

    def curve(p: Pass):
        c = p.timed("curve_s", ergodic.lambda_of_mu, model, dom, drv, MUS,
                    scheme="direct", spacing=1e-4, tol=tol)
        errs = [p.check_lambda(orc, m, l) for m, l in zip(c.mus, c.lams)]
        ergodic.curve_to_csv(c, str(p.out_dir / "interval_curve.csv"))
        _judge(c.non_increasing(), "curve is not non-increasing")
        _judge(all(e <= _gross_lambda_bound(1e-4, m) for m, e in zip(c.mus, errs)),
               "curve point far from the oracle")
        return {"mus": list(c.mus), "lambdas": list(c.lams), "oracle_err": errs}

    def invert(name, dom_, model_, drv_, orc_, target, spacing):
        def op(p: Pass):
            sol = p.timed("invert_s", ergodic.solve_boundary_cost, model_, dom_,
                          drv_, target, tol=tol, scheme="direct", spacing=spacing)
            gap = abs(sol.lam - target)
            mu_err = abs(sol.mu - orc_.mu_star(target))
            p.mu_err.append(mu_err)
            lam_err = p.check_lambda(orc_, sol.mu, sol.lam)
            _judge(gap <= tol, f"inversion gap {gap:.3g} above tol")
            return {"mu_star": sol.mu, "lambda": sol.lam, "gap": gap,
                    "mu_err": mu_err, "lambda_err": lam_err}
        return name, op

    def vanishing_discount(p: Pass):
        sol = p.timed("solve_s", ergodic.solve_ergodic, model, dom, drv, 0.5,
                      scheme="vanishing_discount", spacing=1e-4, tol=tol)
        err = p.check_lambda(orc, 0.5, sol.lam)
        _judge(math.isfinite(sol.lam) and err <= _gross_lambda_bound(1e-4, 0.5) + tol,
               "vanishing-discount constant far from the oracle")
        return {"lambda": sol.lam, "oracle_err": err}

    def flat_curve(p: Pass):
        t0 = process_time()
        try:
            ergodic.solve_boundary_cost(dmodel, ddom, ddrv, 0.5, tol=tol,
                                        scheme="direct", spacing=1e-3)
        except errors.FlatCurve as exc:
            p.record("flat_curve_s", process_time() - t0)
            return {"verdict": "FlatCurve", "message": str(exc)}
        raise OpFailed("degenerate model inverted without FlatCurve")

    return [("interval_curve", curve),
            invert("interval_invert", dom, model, drv, orc, 0.5, 1e-4),
            ("interval_vanishing_discount", vanishing_discount),
            invert("quartic_invert", qdom, qmodel, qdrv, qorc, 0.3, 1e-3),
            ("degenerate_flat_curve", flat_curve)]


# ---------------------------------------------------------------------------
# mc_paths

CONTROL_T = 10.0
CONTROL_PATHS = 320
VERIFY_T = 4.0
VERIFY_PATHS = 1000
K_RATE_T = 0.5
K_RATE_PATHS = 200
H = 1e-3
# ``ebsde control`` accepts the feedback policy when |I - lambda| <= stderr
# + 5e-3, a slack sized for the config's horizon of 50. The benchmark scales
# that horizon down to CONTROL_T = 10 to set run length, and there the
# spread of I over seeds (0.0047 over 30 seeds, reported stderr 0.0039)
# makes that a 1.9-sigma test that fails on about one seed in 16 with no
# fault in the program, so the benchmark widens the stderr term to the
# 3-stderr rule it applies to every other Monte Carlo verdict.
FEEDBACK_I_STDERRS = 3.0


def mc_paths(problems: dict, docs: dict, seed: int):
    cdom, cmodel, cdrv, cproblem = problems["two_control"]
    vdom, vmodel, vdrv, _ = problems["interval_cos"]
    edom, emodel, _, _ = problems["ellipse"]
    mu_c = float(docs["two_control"]["run"]["mu"])
    verify_grid = float(docs["interval_cos"]["run"]["grid"])
    orc = oracle.interval_oracle("ball")
    policy_specs = docs["two_control"]["run"]["policies"]
    n_ctrl = round(CONTROL_T / H)

    def controls(p: Pass):
        sol = p.timed("solve_s", ergodic.solve_ergodic, cmodel, cdom, cdrv, mu_c,
                      scheme="direct", spacing=1e-3, tol=1e-3)
        policies = [("feedback", control.feedback_policy(cproblem, sol))]
        for k, spec in enumerate(policy_specs):
            pol = control.policy_from_json(spec, cproblem, sol)
            policies.append((f"{pol.name}-{k}", pol))
        rows, bad = {}, []
        for k, (name, pol) in enumerate(policies):
            I = p.timed("policy_eval_s", control.cost_I, cmodel, cdom, cproblem,
                        pol, mu_c, CONTROL_T, H, CONTROL_PATHS,
                        derive_seed(seed, 10 * k))
            J = p.timed("policy_eval_s", control.cost_J, cmodel, cdom, cproblem,
                        pol, sol.lam, CONTROL_T, H, CONTROL_PATHS,
                        derive_seed(seed, 10 * k + 5))
            p.path_steps += 2 * CONTROL_PATHS * n_ctrl
            # the thresholds of ``ebsde control``, except that the feedback
            # time-average cost gets 3 stderr (see FEEDBACK_I_STDERRS)
            if name == "feedback":
                good = (abs(I.value - sol.lam)
                        <= FEEDBACK_I_STDERRS * I.stderr + 5e-3
                        and abs(J.value - mu_c) <= J.stderr + 1e-2)
            else:
                good = (I.value >= sol.lam - (I.stderr + 5e-3)
                        and J.value >= mu_c - (J.stderr + 1e-2))
            rows[name] = {"I": I.value, "I_stderr": I.stderr,
                          "J": J.value, "J_stderr": J.stderr, "ok": good}
            if not good:
                bad.append(name)
        _judge(not bad, f"policy verdicts failed: {bad}")
        return {"lambda": sol.lam, "policies": rows}

    def verify(p: Pass):
        sol = p.timed("solve_s", ergodic.solve_ergodic, vmodel, vdom, vdrv, 0.5,
                      scheme="direct", spacing=verify_grid, tol=1e-3)
        err = p.check_lambda(orc, 0.5, sol.lam)
        pde = p.timed("pde_residual_s", verification.pde_residual,
                      sol, vmodel, vdom, vdrv)
        res = p.timed("bsde_residual_s", verification.bsde_residual,
                      sol, vmodel, vdom, vdrv, paths=VERIFY_PATHS, T=VERIFY_T,
                      h=H, seed=derive_seed(seed, 100))
        p.path_steps += VERIFY_PATHS * round(VERIFY_T / H)
        _judge(err <= _gross_lambda_bound(verify_grid, 0.5), "solve far from the oracle")
        # the verdict of ``ebsde verify``
        _judge(abs(res.mean) <= 3 * res.stderr,
               f"backward residual {res.mean:.3g} beyond 3 stderr {res.stderr:.3g}")
        return {"lambda": sol.lam, "oracle_err": err, "pde": pde,
                "bsde_mean": res.mean, "bsde_stderr": res.stderr}

    def k_rate(p: Pass):
        est = p.timed("k_rate_s", dynamics.expected_K_rate, emodel, edom,
                      K_RATE_T, H, K_RATE_PATHS, derive_seed(seed, 200))
        p.path_steps += K_RATE_PATHS * round(K_RATE_T / H)
        _judge(est.rate > 3 * est.stderr,
               f"local-time rate {est.rate:.3g} within 3 stderr of zero")
        return {"rate": est.rate, "stderr": est.stderr}

    return [("two_control_policies", controls), ("interval_verify", verify),
            ("ellipse_k_rate", k_rate)]


WORKLOADS = {
    "grid2d_disc": (grid2d_disc, ["disc_cos", "disc_hamiltonian"]),
    "grid1d_inverse": (grid1d_inverse, ["interval_cos", "quartic_cos", "degenerate"]),
    "mc_paths": (mc_paths, ["two_control", "interval_cos", "ellipse"]),
}
