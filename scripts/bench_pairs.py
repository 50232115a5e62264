#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised as BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --parent ../parent-checkout --change . \\
        --workloads mc_paths grid2d_disc grid1d_inverse --pairs 10 \\
        --title "what the change does" --parent-commit abc1234

Runs ``perfbench/run.py --trace 0`` from each checkout for the
``run_seconds`` of the change's ``BENCHMARK.json``, one run at a time:
pair k uses seed ``--seed + k``, and the parent runs first on the odd pairs
(the first, third, ...) and second on the even ones, so a drift in machine
load falls on both sides alike. Every workload runs on both sides within a
pair. The file is rewritten after every pair, so an interrupted series keeps
what it measured.

The output is ``BENCH_<first workload>.json`` in the change checkout: the
first workload's metrics go under ``end_to_end``,
those of the other workloads under ``other_workloads``, and every run under
``runs``. Per metric and side it gives the median and the quartiles (linear
interpolation, numpy's default), the pairs in which the change is lower and
higher, the relative change of the median, and a verdict against the
metric's ``bound`` in ``BENCHMARK.json`` (``bound_verdict``): ``unresolved``
when the parent's interquartile range, relative to its median, is wider
than the bound and not every change run is better than every parent run,
else ``beyond`` when the median is worse than the parent's by more than the
bound, else ``within``. ``claim`` restates the first
workload's ``--claim`` metric (lower is better; ``wall_s`` by default) with
a one-line verdict: the share of pairs won and whether the median gap
exceeds the parent's interquartile range. When the output file already holds a record of the
same workload, its ``parent_commit``, ``change``, ``claim`` and end-to-end
medians, followed by its own ``history``, are carried forward under
``history`` (newest first), so a new series does not erase the old one.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path



def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its exit code, op counts and end-to-end metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"no result line from {checkout} {workload} seed {seed}:\n"
                         f"{proc.stderr[-2000:]}")
    row = {"exit_code": proc.returncode, "attempted": result["attempted"],
           "failed": result["failed"]}
    row.update({k: v["value"] for k, v in result["metrics"].items()})
    return row


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def bound_verdict(stats: dict, bound: float, clear_win: bool = False) -> dict:
    """The median change of one metric (lower is better) against its
    relative ``bound``: ``unresolved`` when the parent's interquartile range
    is wider than the bound (relative to the parent's median) and not every
    change run is lower than every parent run (``clear_win``), else
    ``beyond`` when the change is higher by more than the bound, else
    ``within``."""
    par = stats["parent"]
    spread = (par["q3"] - par["q1"]) / par["median"] if par["median"] else 0.0
    if spread > bound and not clear_win:
        verdict = "unresolved"
    else:
        verdict = "beyond" if stats["median_change_rel"] > bound else "within"
    return {"bound": bound, "median_change_rel": stats["median_change_rel"],
            "parent_iqr_rel": spread, "verdict": verdict}


def summarise(runs: list, metrics: list) -> dict:
    """Per-metric statistics of one workload's runs, matched by seed, with
    the bound verdict of every metric that declares a ``bound``."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r
    pairs = [p for p in by_seed.values() if len(p) == 2]
    seeds = sorted(s for s, p in by_seed.items() if len(p) == 2)
    out = {"pairs": len(pairs), "seeds": seeds, "metrics": {}}
    for m in metrics:
        name = m["name"]
        par = [p["parent"][name] for p in pairs if name in p["parent"]]
        chg = [p["change"][name] for p in pairs if name in p["change"]]
        if not par or not chg:
            continue
        lower = sum(p["change"][name] < p["parent"][name] for p in pairs)
        higher = sum(p["change"][name] > p["parent"][name] for p in pairs)
        ps, cs = quartiles(par), quartiles(chg)
        rel = cs["median"] / ps["median"] - 1.0 if ps["median"] else 0.0
        out["metrics"][name] = {"unit": m["unit"], "parent": ps, "change": cs,
                                "change_lower_in_pairs": lower,
                                "change_higher_in_pairs": higher,
                                "median_change_rel": rel}
        if "bound" in m:
            out["metrics"][name]["bound_verdict"] = bound_verdict(
                out["metrics"][name], m["bound"], max(chg) < min(par))
    for key, field in (("ops_failed", "failed"), ("attempted", "attempted")):
        out[key] = {side: sum(p[side][field] for p in pairs)
                    for side in ("parent", "change")}
    return out


def claim_of(summary: dict, claim: str = "wall_s") -> dict:
    """The claimed metric (lower is better) with its verdict."""
    s = summary["metrics"][claim]
    par, chg = s["parent"], s["change"]
    gap = abs(chg["median"] - par["median"])
    iqr = par["q3"] - par["q1"]
    rel = s["median_change_rel"]
    note = (f"median {abs(rel) * 100:.1f}% {'lower' if rel < 0 else 'higher'}; "
            f"the change is lower in {s['change_lower_in_pairs']} of "
            f"{summary['pairs']} pairs; the median gap {gap:.3g} {s['unit']} "
            f"{'exceeds' if gap > iqr else 'does not exceed'} the parent's "
            f"interquartile range {iqr:.3g} {s['unit']}")
    return {"metric": claim, "parent": par["median"], "change": chg["median"],
            "note": note}


def carried_history(path: Path, workload: str) -> list:
    """The record already at ``path`` as the first history entry, followed
    by its own history; empty when there is none for ``workload``."""
    if not path.exists():
        return []
    old = json.loads(path.read_text())
    if old.get("workload") != workload:
        return []
    medians = {name: {side: m[side]["median"] for side in ("parent", "change")}
               for name, m in old["end_to_end"]["metrics"].items()}
    entry = {"parent_commit": old.get("parent_commit"), "change": old.get("change"),
             "claim": old.get("claim"), "end_to_end_medians": medians}
    return [entry] + old.get("history", [])


def machine() -> str:
    import numpy
    import scipy
    return (f"{os.cpu_count()} cores, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}, BLAS and "
            "OpenMP pinned to 1 thread; times are CPU seconds of the working process")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="parent checkout")
    ap.add_argument("--change", required=True, type=Path, help="changed checkout")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    ap.add_argument("--title", required=True, help="what the change does")
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--claim", default="wall_s",
                    help="end-to-end metric the change claims (lower is better)")
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    main_wl = args.workloads[0]
    out_path = args.change / f"BENCH_{main_wl}.json"
    history = carried_history(out_path, main_wl)
    runs = {w: [] for w in args.workloads}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for w in args.workloads:
            for side in order:
                row = {"side": side, "seed": seed}
                row.update(run_once(sides[side], w, seed, seconds))
                runs[w].append(row)
                print(f"pair {k + 1}/{args.pairs} {w} {side}: "
                      f"wall_s {row.get('wall_s', float('nan')):.4g} "
                      f"failed {row['failed']}/{row['attempted']}", file=sys.stderr)
        summaries = {w: summarise(runs[w], metrics) for w in args.workloads}
        doc = {
            "workload": main_wl,
            "change": args.title,
            "parent_commit": args.parent_commit,
            "command": (f"python3 perfbench/run.py --workload W --seed N "
                        f"--seconds {seconds:g} --trace 0"),
            "method": ("alternating parent/change runs of the committed benchmark, "
                       f"the parent first on the odd pairs (seeds {args.seed}, "
                       f"{args.seed + 2}, ...); each side ran from its own copy of "
                       "the tree on the same machine, one run at a time; medians "
                       "and quartiles over the pairs"),
            "machine": machine(),
            "claim": claim_of(summaries[main_wl], args.claim),
            "end_to_end": summaries[main_wl],
            "other_workloads": {w: summaries[w] for w in args.workloads[1:]},
            "runs": runs,
            "history": history,
        }
        out_path.write_text(json.dumps(doc, indent=1) + "\n")
    for w in args.workloads:
        for name, m in summaries[w]["metrics"].items():
            if "bound_verdict" in m:
                v = m["bound_verdict"]
                print(f"{w} {name}: median {v['median_change_rel']:+.1%} against "
                      f"bound {v['bound']:.0%}: {v['verdict']}", file=sys.stderr)
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
