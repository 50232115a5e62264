"""Benchmark entry point for the ebsde grid and path engines.

    python3 perfbench/run.py --workload grid2d_disc --seed 1 --seconds 20 --trace 0

Builds nothing: the package is imported from ``src/`` of the checkout this
file sits in. The launcher times ``SETUP_PROBES`` fresh interpreters that
import the package and assemble the workload's configs (``setup_s``), then
runs the workload in one worker process with BLAS and OpenMP threads pinned
to ``THREADS``. It prints every metric with its unit and, as the last line
of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The exit code is 0 only when every op passed its verdict.
All files are written under ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = 1
SETUP_PROBES = 5
WORKLOADS = ("grid2d_disc", "grid1d_inverse", "mc_paths")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)   # the worker puts <root>/src first itself
    return env


def _worker_cmd(workload: str, *extra: str) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload, *extra]


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup(workload: str, env: dict, deadline: float) -> float:
    """Median CPU time (user + system) of fresh interpreters that import the
    package and assemble the configs; CPU time for the reason given in
    ``workloads.Pass.timed``."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = _children_cpu()
        subprocess.run(_worker_cmd(workload, "--setup-probe"), env=env, cwd=ROOT,
                       check=True, timeout=max(1.0, deadline - perf_counter()))
        times.append(_children_cpu() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    t_start = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/ebsde/__init__.py", "configs/two_control.json"):
        if not (ROOT / need).is_file():
            return _fail(f"{need} not found under {ROOT}; run from a full checkout")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"result-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    env = _env()
    # a safety net against a hung worker, not a budget: the worker measures
    # for --seconds, then finishes its last pass (about 20 s at most)
    budget_s = 2.0 * args.seconds + 130.0
    deadline = t_start + budget_s
    try:
        setup_s = measure_setup(args.workload, env, deadline)
        subprocess.run(
            _worker_cmd(args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--out-dir", str(out_dir), "--result", str(result_path)),
            env=env, cwd=ROOT, check=True,
            timeout=max(1.0, deadline - perf_counter()))
    except subprocess.CalledProcessError as exc:
        return _fail(f"worker exited with code {exc.returncode}")
    except subprocess.TimeoutExpired:
        return _fail(f"worker did not finish within {budget_s:.0f} s")
    with open(result_path) as fh:
        res = json.load(fh)

    values = dict(res["layers"] if args.trace else res["e2e"])
    counts_repeat = res.get("counts_repeat", True)
    if not args.trace:
        values["setup_s"] = {"value": setup_s, "unit": "s"}
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, unit in wanted.items():
        if name in values and values[name]["unit"] != unit:
            return _fail(f"{name} is measured in {values[name]['unit']}, "
                         f"but BENCHMARK.json says {unit}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {res['passes']}  threads {THREADS} of {res['env']['cpus']} cpus  "
          f"python {res['env']['python']}  numpy {res['env']['numpy']}  "
          f"scipy {res['env']['scipy']}  machine {res['env']['machine']}")
    for name in list(wanted) + sorted(set(values) - set(wanted)):
        if name in values:
            v = values[name]
            n = f"  (median of {v['samples']})" if "samples" in v else ""
            print(f"  {name:36s} {v['value']:.6g} {v['unit']}{n}")
        else:
            print(f"  {name:36s} absent")
    if args.trace:
        print(f"  failures by layer: {json.dumps(res.get('failures_by_class', {}))}")
        print(f"  exact counts repeat across traced passes: {counts_repeat}")
    for f in res["failed"]:
        print(f"  FAILED op {f['op']}: {f['error']}: {f['message']}")

    failed = len(res["failed"])
    correct = failed == 0 and counts_repeat
    metrics = {name: {"value": values[name]["value"], "unit": unit}
               for name, unit in wanted.items() if name in values}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
