"""Batch experiment runner.

One JSON config document (sections: domain, model, driver, control, run)
drives every pipeline: hypothesis checks, single solves, cost curves,
curve inversion, verification, and control benchmarks. Each run writes
``summary.json``, CSV tables, and ``manifest.json`` (the config echo plus
every effective parameter and seed) into the output directory, so a
result can always be traced back to its inputs and reproduced.

Exit codes: 0 when the requested assertions hold, 1 when an assertion
fails, 2 on configuration or solver errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .control import (check_policy_spec, cost_I, cost_J, feedback_policy,
                      girsanov_weight_check, induced_driver, policy_from_json,
                      policy_verdict)
from .dynamics import step_count
from .ergodic import (_jsonable, curve_to_csv, lambda_of_mu, lambda_time_average,
                      solve_boundary_cost, solve_ergodic)
from .errors import ConfigError, EbsdeError
from .hypotheses import check_all
from .presets import assemble_config
from .verification import bsde_residual, drift_shift_equivalence, pde_residual

__all__ = ["main"]

_GIRSANOV_HORIZON = 20.0   # longest horizon of the control task's Girsanov check


# ---------------------------------------------------------------------------
# plumbing


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _effective(cfg: dict, args) -> dict:
    """Run parameters: CLI flags override the config's run section."""
    run = dict(cfg.get("run", {}))
    eff = {
        "seed": int(args.seed if args.seed is not None else run.get("seed", 0)),
        "tol": float(args.tol if args.tol is not None else run.get("tol", 1e-3)),
        "grid": float(args.grid if args.grid is not None else run.get("grid", 1e-3)),
        "paths": int(args.paths if args.paths is not None else run.get("paths", 500)),
        "horizon": float(args.horizon if args.horizon is not None
                         else run.get("horizon", 50.0)),
        "scheme": run.get("scheme", "direct"),
        "h": float(run.get("h", 1e-3)),
        "mu": float(getattr(args, "mu", None) if getattr(args, "mu", None) is not None
                    else run.get("mu", 0.0)),
        "mus": [float(m) for m in run.get("mus", [-2, -1, 0, 1, 2])],
        "grid_density": int(run.get("grid_density", 48)),
    }
    if eff["scheme"] != "direct":
        exc = ConfigError(f"run.scheme {eff['scheme']!r} is not one of ('direct',): "
                          "every task runs the direct scheme only")
        exc.remedy = 'set run.scheme to "direct"'
        raise exc
    if not 0 < eff["grid"] < np.inf:
        raise ConfigError(f"grid spacing {eff['grid']!r} is not finite and positive")
    try:
        step_count(eff["horizon"], eff["h"])
        if run.get("girsanov_check"):
            step_count(min(eff["horizon"], _GIRSANOV_HORIZON), eff["h"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if eff["paths"] < 2:
        raise ConfigError(f"paths {eff['paths']} is below 2: every verdict needs "
                          "a standard error over paths")
    lt = getattr(args, "lambda_target", None)
    if lt is not None or "lambda_target" in run:
        eff["lambda_target"] = float(lt if lt is not None else run["lambda_target"])
    return eff


def _out_dir(args) -> Path:
    out = Path(args.out_dir or "ebsde-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _write_table(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


def _finish(out: Path, task: str, cfg, eff, summary: dict, ok: bool) -> int:
    summary = dict(summary)
    summary["task"] = task
    summary["passed"] = bool(ok)
    with open(out / "summary.json", "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {"task": task, "config": cfg, "effective": eff}
    with open(out / "manifest.json", "w") as fh:
        json.dump(_jsonable(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{task}: {'ok' if ok else 'FAILED'} -> {out}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    eff = _effective(cfg, args)
    domain, model, driver, _ = assemble_config(cfg)
    report = check_all(model, driver, domain, grid_density=eff["grid_density"],
                       spacing=eff["grid"])
    out = _out_dir(args)
    rows = [[k, v] for k, v in sorted(report.flags.items())]
    _write_table(out / "flags.csv", ["hypothesis", "holds"], rows)
    return _finish(out, "check", cfg, eff, report.as_dict(), True)


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    eff = _effective(cfg, args)
    domain, model, driver, _ = assemble_config(cfg)
    sol = solve_ergodic(model, domain, driver, eff["mu"], spacing=eff["grid"],
                        tol=eff["tol"])
    out = _out_dir(args)
    sol.save(str(out / "solution"))
    summary = {"lambda": sol.lam, "mu": sol.mu,
               "diagnostics": sol.diagnostics}
    if cfg.get("run", {}).get("simulate_lambda"):
        est, se = lambda_time_average(model, domain, driver, sol,
                                      T=eff["horizon"], h=eff["h"],
                                      paths=min(eff["paths"], 128),
                                      seed=eff["seed"])
        summary["lambda_simulated"] = est
        summary["lambda_simulated_stderr"] = se
    return _finish(out, "solve", cfg, eff, summary, True)


def cmd_curve(args) -> int:
    cfg = _load_config(args.config)
    eff = _effective(cfg, args)
    domain, model, driver, _ = assemble_config(cfg)
    curve = lambda_of_mu(model, domain, driver, eff["mus"], spacing=eff["grid"],
                         tol=eff["tol"])
    out = _out_dir(args)
    curve_to_csv(curve, str(out / "curve.csv"))
    ok = curve.non_increasing()
    summary = {"mus": list(curve.mus), "lambdas": list(curve.lams),
               "non_increasing": ok, "slope_modulus": curve.slope_modulus(),
               "record": curve.record}
    return _finish(out, "curve", cfg, eff, summary, ok)


def cmd_invert(args) -> int:
    cfg = _load_config(args.config)
    eff = _effective(cfg, args)
    if "lambda_target" not in eff:
        raise ConfigError("invert needs --lambda or run.lambda_target")
    domain, model, driver, _ = assemble_config(cfg)
    sol = solve_boundary_cost(model, domain, driver, eff["lambda_target"],
                              tol=eff["tol"], spacing=eff["grid"])
    out = _out_dir(args)
    sol.save(str(out / "solution"))
    gap = abs(sol.lam - eff["lambda_target"])
    summary = {"mu_star": sol.mu, "lambda": sol.lam,
               "lambda_target": eff["lambda_target"], "gap": gap}
    return _finish(out, "invert", cfg, eff, summary, gap <= eff["tol"])


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    eff = _effective(cfg, args)
    domain, model, driver, _ = assemble_config(cfg)
    sol = solve_ergodic(model, domain, driver, eff["mu"], spacing=eff["grid"],
                        tol=eff["tol"])
    pde = pde_residual(sol, model, domain, driver)
    res = bsde_residual(sol, model, domain, driver, paths=eff["paths"],
                        T=eff["horizon"], h=eff["h"], seed=eff["seed"])
    out = _out_dir(args)
    _write_table(out / "bsde_partials.csv", ["t", "partial_mean"],
                 list(zip(res.partial_times, res.partial_means)))
    centered = abs(res.mean) <= 3 * res.stderr
    summary = {"lambda": sol.lam, "pde_interior_max": pde["interior_max"],
               "pde_boundary_max": pde["boundary_max"],
               "bsde_mean": res.mean, "bsde_stderr": res.stderr,
               "bsde_centered": centered, "bsde_run": res.run}
    xi = cfg.get("run", {}).get("shift_xi")
    ok = centered
    if xi is not None:
        shift = drift_shift_equivalence(model, domain, driver, float(xi),
                                        mu=eff["mu"], spacing=eff["grid"])
        summary["shift"] = shift
        ok = ok and shift["lambda_gap"] < 5 * eff["tol"]
    return _finish(out, "verify", cfg, eff, summary, ok)


def cmd_control(args) -> int:
    cfg = _load_config(args.config)
    eff = _effective(cfg, args)
    domain, model, driver, problem = assemble_config(cfg)
    if problem is None:
        raise ConfigError("control runs need a control section")
    specs = cfg.get("run", {}).get("policies", [])
    for k, spec in enumerate(specs):
        try:
            check_policy_spec(spec, problem)
        except ValueError as exc:
            raise ConfigError(f"run.policies[{k}]: {exc}") from exc
    if driver.control is None:
        driver = induced_driver(problem)
    sol = solve_ergodic(model, domain, driver, eff["mu"], spacing=eff["grid"],
                        tol=eff["tol"])
    T, h, paths, seed = eff["horizon"], eff["h"], eff["paths"], eff["seed"]
    policies = [("feedback", feedback_policy(problem, sol))]
    for k, spec in enumerate(specs):
        pol = policy_from_json(spec, problem, sol)
        policies.append((f"{pol.name}-{k}", pol))
    rows, results = [], {}
    ok = True
    for k, (name, pol) in enumerate(policies):
        I = cost_I(model, domain, problem, pol, eff["mu"], T, h, paths,
                   seed + 10 * k)
        J = cost_J(model, domain, problem, pol, sol.lam, T, h, paths,
                   seed + 10 * k + 5)
        good = policy_verdict(I, J, sol.lam, eff["mu"], name == "feedback")
        ok &= good
        rows.append([name, I.value, I.stderr, J.value, J.stderr, good])
        results[name] = {"I": I.value, "I_stderr": I.stderr, "J": J.value,
                         "J_stderr": J.stderr, "run_I": I.extra["run"],
                         "run_J": J.extra["run"]}
    out = _out_dir(args)
    _write_table(out / "policies.csv",
                 ["policy", "I", "I_stderr", "J", "J_stderr", "ok"], rows)
    summary = {"lambda": sol.lam, "mu": eff["mu"], "policies": results}
    if cfg.get("run", {}).get("girsanov_check"):
        gk = girsanov_weight_check(model, domain, problem, policies[0][1],
                                   T=min(T, _GIRSANOV_HORIZON), h=h, paths=paths,
                                   seed=seed, mu=eff["mu"])
        summary["girsanov"] = gk
        ok = ok and gk["agreement_gap"] <= 3 * gk["combined_stderr"] + 5e-3
    return _finish(out, "control", cfg, eff, summary, ok)


def cmd_reproduce(args) -> int:
    out = _out_dir(args)
    only = None
    if args.config:
        cfg = _load_config(args.config)
        only = cfg.get("run", {}).get("criteria")
    results = acceptance.run_all(only)
    ok = True
    lines, timings = {}, {}
    for res in results:
        _write_table(out / f"criterion_{res.number:02d}.csv",
                     res.table_header, res.table_rows)
        status = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.number:02d}: {status} ({res.seconds:.1f}s) {res.title}")
        lines[res.number] = res.as_dict()
        timings[res.number] = dict(res.timings, seconds=round(res.seconds, 3))
        ok &= res.passed
    # wall-clock times are the one output that differs between reruns
    with open(out / "timings.json", "w") as fh:
        json.dump(_jsonable({"criteria": timings}), fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary = {"criteria": lines}
    eff = {"criteria": [r.number for r in results],
           "seeds": {r.number: r.details.get("seed") for r in results
                     if "seed" in r.details}}
    return _finish(out, "reproduce", {} if not args.config else cfg, eff,
                   summary, ok)


# ---------------------------------------------------------------------------
# entry points


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ebsde",
        description="ergodic solvers for reflected diffusions with boundary "
                    "costs: hypothesis checks, solves, curves, inversion, "
                    "verification, control benchmarks")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config document")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out-dir", default=None)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--grid", type=float, default=None,
                        help="spatial grid spacing")
    common.add_argument("--paths", type=int, default=None)
    common.add_argument("--horizon", type=float, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", parents=[common],
                        help="estimate constants and check hypothesis flags")
    sp.set_defaults(func=cmd_check)
    sp = sub.add_parser("solve", parents=[common],
                        help="solve the long-run problem at one boundary constant")
    sp.add_argument("--mu", type=float, default=None)
    sp.set_defaults(func=cmd_solve)
    sp = sub.add_parser("curve", parents=[common],
                        help="sample the boundary-constant-to-cost curve")
    sp.set_defaults(func=cmd_curve)
    sp = sub.add_parser("invert", parents=[common],
                        help="find the boundary constant matching a target cost")
    sp.add_argument("--lambda", dest="lambda_target", type=float, default=None)
    sp.set_defaults(func=cmd_invert)
    sp = sub.add_parser("verify", parents=[common],
                        help="independent residual checks of a solve")
    sp.add_argument("--mu", type=float, default=None)
    sp.set_defaults(func=cmd_verify)
    sp = sub.add_parser("control", parents=[common],
                        help="benchmark feedback and heuristic policies")
    sp.add_argument("--mu", type=float, default=None)
    sp.set_defaults(func=cmd_control)
    sp = sub.add_parser("reproduce", parents=[common],
                        help="rerun the frozen experiment suite")
    sp.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except EbsdeError as exc:
        if isinstance(exc, ConfigError):
            print(f"config error: {exc}", file=sys.stderr)
        else:
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            module = tb.tb_frame.f_globals["__name__"].rpartition(".")[2]
            print(f"error in {module} ({type(exc).__name__}): {exc}", file=sys.stderr)
        if exc.remedy:
            print(f"hint: {exc.remedy}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
