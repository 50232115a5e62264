"""Benchmark worker: runs one workload in this process and writes a result.

Launched by ``run.py`` with BLAS/OpenMP threads pinned in its environment.
It imports the package from ``<root>/src`` only, runs whole passes over the
workload's ops until ``--seconds`` have elapsed (at least one pass), and
writes a JSON result to ``--result``. With ``--trace 1`` it first runs one
untraced pass as the overhead baseline, then traced passes, and also writes
every span to ``<out-dir>/spans.npz``.

``--setup-probe`` only imports the package and assembles the workload's
configs, so that the launcher can time a fresh interpreter's set-up.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import ebsde
    if Path(ebsde.__file__).resolve().parent != (src / "ebsde").resolve():
        raise ImportError(f"ebsde imported from {ebsde.__file__}, not {src}")
    return ebsde


def run_passes(ops, out_dir: Path, seconds: float):
    """Whole passes over ``ops`` until ``seconds`` have elapsed, at least one.

    Each pass is timed in CPU seconds of this process, like the ops inside
    it (see ``workloads.Pass.timed``): a pass of up to 20 s otherwise takes
    in whatever share of it the host gives to other guests. Returns the
    passes and the peak resident memory in MB after the first
    one; later passes only add allocator fragmentation, so the peak would
    otherwise depend on how many passes fit in the run."""
    import workloads
    passes = []
    t_begin = perf_counter()
    while not passes or perf_counter() - t_begin < seconds:
        p = workloads.Pass(out_dir)
        t0 = process_time()
        for name, fn in ops:
            p.run_op(name, fn)
        p.seconds = process_time() - t0
        passes.append(p)
        if len(passes) == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"pass {len(passes)}: {p.seconds:.2f} s, {len(p.failed)} failed",
              file=sys.stderr)
    return passes, rss_mb


def e2e_metrics(passes, rss_mb: float) -> dict:
    """End-to-end metrics of a set of untraced passes as
    {name: {"value", "unit"}}; pooled latencies also carry "samples"."""
    wall = statistics.median(p.seconds for p in passes)
    out = {"wall_s": {"value": wall, "unit": "s"},
           "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    pooled = {}
    for p in passes:
        for key, vals in p.samples.items():
            pooled.setdefault(key, []).extend(vals)
    for key, vals in sorted(pooled.items()):
        out[key] = {"value": statistics.median(vals), "unit": passes[0].units[key],
                    "samples": len(vals)}
    steps = passes[0].path_steps
    if steps:
        out["path_steps_per_s"] = {"value": steps / wall, "unit": "1/s"}
    for name, attr in (("lambda_abs_err", "lambda_err"), ("mu_abs_err", "mu_err")):
        errs = [e for p in passes for e in getattr(p, attr)]
        if errs:
            out[name] = {"value": max(errs), "unit": "1"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir")
    ap.add_argument("--result")
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install_linalg()
    _import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    factory, names = workloads.WORKLOADS[args.workload]
    docs = workloads.load_configs(ROOT)
    problems = workloads.assemble(docs, names)
    if args.setup_probe:
        return 0

    out_dir = Path(args.out_dir)
    ops_dir = out_dir / "ops"
    ops_dir.mkdir(parents=True, exist_ok=True)
    ops = factory(problems, docs, args.seed)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if tracer is None:
        passes, rss_mb = run_passes(ops, ops_dir, args.seconds)
        result["e2e"] = e2e_metrics(passes, rss_mb)
    else:
        import layers
        tracer.install_package()
        base, rss_mb = run_passes(ops, ops_dir, 0.0)
        t0 = perf_counter()
        ranges = []
        traced = []
        tracer.enabled = True
        while not traced or perf_counter() - t0 < args.seconds:
            lo = len(tracer)
            traced += run_passes(ops, ops_dir, 0.0)[0]
            ranges.append((lo, len(tracer)))
        tracer.enabled = False
        passes = base + traced
        result["e2e"] = e2e_metrics(base, rss_mb)
        with open(ROOT / "BENCHMARK.json") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        result["layers"], result["counts_repeat"] = layers.layer_metrics(
            tracer, ranges, traced, base[0].seconds, units)
        result["failures_by_class"] = layers.failures_by_layer(tracer)
        tracer.dump(out_dir / "spans.npz")
    result["passes"] = len(passes)
    result["attempted"] = sum(p.attempted for p in passes)
    result["failed"] = [f for p in passes for f in p.failed]
    import numpy
    import scipy
    result["env"] = {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "machine": platform.machine(), "cpus": os.cpu_count(),
                     "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
