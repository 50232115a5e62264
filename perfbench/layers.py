"""Per-layer metrics from the spans of traced passes.

Counts come from the first traced pass; every pass of a run does the same
work with the same seeds, so they are exact. Times are medians over the
traced passes. A metric whose spans could not be installed is absent; a
layer that did no work on a workload reports 0. Names and units of the
reported metrics come from the ``per_layer`` list of ``BENCHMARK.json``;
this module only says how each one is computed.
"""
from __future__ import annotations

import statistics
from collections import Counter
from types import SimpleNamespace

from tracing import LINALG_TARGETS, PACKAGE_TARGETS, STEP_SPANS

__all__ = ["LAYER_METRICS", "layer_metrics", "failures_by_layer"]


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# name -> (spans it reads, value from the statistics of one traced pass);
# trace.overhead_frac compares passes and is computed in layer_metrics
LAYER_METRICS = {
    "ergodic.solve_ergodic.calls": (
        ["ergodic.solve_ergodic"], lambda s: s.calls["ergodic.solve_ergodic"]),
    "ergodic.solve_ergodic.self_s": (
        ["ergodic.solve_ergodic"], lambda s: s.selft["ergodic.solve_ergodic"]),
    "ergodic.solves_per_invert": (
        ["ergodic.solve_ergodic", "ergodic.solve_boundary_cost"],
        lambda s: _per(s.under("ergodic.solve_ergodic", "ergodic.solve_boundary_cost"),
                       s.calls["ergodic.solve_boundary_cost"])),
    "ergodic.solves_per_curve": (
        ["ergodic.solve_ergodic", "ergodic.lambda_of_mu"],
        lambda s: _per(s.under("ergodic.solve_ergodic", "ergodic.lambda_of_mu"),
                       s.calls["ergodic.lambda_of_mu"])),
    "ergodic.zeta_at.s": (["ergodic.zeta_at"], lambda s: s.busy["ergodic.zeta_at"]),
    "linalg.factorizations": (
        ["linalg.spsolve", "linalg.splu"],
        lambda s: s.calls["linalg.spsolve"] + s.calls["linalg.splu"]),
    "linalg.banded_solves": (
        ["linalg.solve_banded"], lambda s: s.calls["linalg.solve_banded"]),
    "linalg.s": (
        ["linalg.spsolve", "linalg.splu", "linalg.solve_banded"],
        lambda s: (s.busy["linalg.spsolve"] + s.busy["linalg.splu"]
                   + s.busy["linalg.solve_banded"])),
    "grids.build_mesh.calls": (["grids.build_mesh"], lambda s: s.calls["grids.build_mesh"]),
    "grids.build_mesh.s": (["grids.build_mesh"], lambda s: s.busy["grids.build_mesh"]),
    "grids.gradient.s": (["grids.gradient"], lambda s: s.busy["grids.gradient"]),
    "grids.interp.s": (["grids.interp"], lambda s: s.busy["grids.interp"]),
    "discounted.solve_discounted.calls": (
        ["discounted.solve_discounted"], lambda s: s.calls["discounted.solve_discounted"]),
    "discounted.solve_discounted.self_s": (
        ["discounted.solve_discounted"], lambda s: s.selft["discounted.solve_discounted"]),
    "hypotheses.flux.s": (["hypotheses.flux"], lambda s: s.busy["hypotheses.flux"]),
    "hypotheses.flux.path_steps": (["hypotheses.flux", *STEP_SPANS],
                                   lambda s: s.flux_steps),
    "dynamics.path_steps": (list(STEP_SPANS), lambda s: s.steps),
    "dynamics.step.us_per_path_step": (
        [*STEP_SPANS, "control.policy"],
        lambda s: _per(s.step_busy - s.policy_in_steps, s.steps, 1e6)),
    "dynamics.noise.s": (["dynamics.noise"], lambda s: s.busy["dynamics.noise"]),
    "dynamics.proposal.s": (["dynamics.proposal"], lambda s: s.busy["dynamics.proposal"]),
    "dynamics.boundary.s": (["dynamics.boundary"], lambda s: s.busy["dynamics.boundary"]),
    "dynamics.reflect_frac": (list(STEP_SPANS), lambda s: _per(s.reflected, s.steps)),
    "geometry.project.calls": (["geometry.project"], lambda s: s.calls["geometry.project"]),
    "geometry.project.s": (["geometry.project"], lambda s: s.busy["geometry.project"]),
    "control.policy.s": (["control.policy"], lambda s: s.busy["control.policy"]),
    "control.cost.self_s": (["control.cost"], lambda s: s.selft["control.cost"]),
    "verification.bsde_residual.self_s": (
        ["verification.bsde_residual"], lambda s: s.selft["verification.bsde_residual"]),
    "verification.pde_residual.s": (
        ["verification.pde_residual"], lambda s: s.busy["verification.pde_residual"]),
    "errors.raised": ([], lambda s: s.errors),
}
OVERHEAD = "trace.overhead_frac"
EXACT_UNITS = ("count", "fraction")

_TARGET_SPAN = {f"{m}.{a}": s for m, a, s in LINALG_TARGETS}
_TARGET_SPAN.update({f"{m}.{p}": s for m, p, s, _ in PACKAGE_TARGETS})


def _pass_stats(tracer, lo: int, hi: int, self_t) -> SimpleNamespace:
    """Call counts, busy and self times, and step totals of spans lo..hi."""
    names = tracer.names
    nid = {n: i for i, n in enumerate(names)}
    calls, busy, selft = Counter(), Counter(), Counter()
    for i in range(lo, hi):
        n = names[tracer.name[i]]
        calls[n] += 1
        busy[n] += tracer.busy[i]
        selft[n] += self_t[i]

    def under(child: str, ancestor: str) -> int:
        c, a = nid.get(child), nid.get(ancestor)
        if c is None or a is None:
            return 0
        return sum(1 for i in range(lo, hi)
                   if tracer.name[i] == c and tracer.has_ancestor(i, a))

    step_ids = {nid[s] for s in STEP_SPANS if s in nid}
    steps = reflected = flux_steps = 0
    flux = nid.get("hypotheses.flux")
    for idx, (n_steps, n_ref) in tracer.steps.items():
        if lo <= idx < hi:
            steps += n_steps
            reflected += n_ref
            if flux is not None and tracer.has_ancestor(idx, flux):
                flux_steps += n_steps
    policy = nid.get("control.policy")
    policy_in_steps = sum(tracer.busy[i] for i in range(lo, hi)
                          if tracer.name[i] == policy
                          and tracer.parent[i] >= 0
                          and tracer.name[tracer.parent[i]] in step_ids)
    return SimpleNamespace(
        calls=calls, busy=busy, selft=selft, under=under, steps=steps,
        reflected=reflected, flux_steps=flux_steps,
        step_busy=sum(busy[s] for s in STEP_SPANS), policy_in_steps=policy_in_steps,
        errors=sum(1 for i, _ in tracer.failures if lo <= i < hi))


def layer_metrics(tracer, ranges, traced_passes, untraced_seconds: float,
                  units: dict):
    """Per-layer metrics of a traced run as {name: {"value", "unit"}}, for
    the names and units in ``units``; and whether every exact metric
    (unit count or fraction) repeated across the traced passes."""
    self_t = tracer.self_times()
    stats = [_pass_stats(tracer, lo, hi, self_t) for lo, hi in ranges]
    missing_spans = {_TARGET_SPAN.get(t, t) for t in tracer.missing}
    out, repeat = {}, True
    for name, unit in units.items():
        if name == OVERHEAD:
            traced = statistics.median(p.seconds for p in traced_passes)
            value = traced / untraced_seconds - 1.0
        elif name in LAYER_METRICS:
            spans, fn = LAYER_METRICS[name]
            if missing_spans.intersection(spans):
                continue
            per_pass = [fn(s) for s in stats]
            if unit in EXACT_UNITS:
                value = per_pass[0]
                repeat &= all(v == value for v in per_pass)
            else:
                value = statistics.median(per_pass)
        else:
            continue
        out[name] = {"value": value, "unit": unit}
    return out, repeat


def failures_by_layer(tracer) -> dict:
    """Exceptions that left a traced span: {layer: {class: count}}."""
    out: dict = {}
    for idx, cls in tracer.failures:
        layer = tracer.names[tracer.name[idx]].split(".")[0]
        out.setdefault(layer, Counter())[cls] += 1
    return {k: dict(v) for k, v in out.items()}
