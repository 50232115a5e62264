"""Self-checks of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The repeatability test runs every workload twice with tracing on and
takes a few minutes; select one workload with ``-k grid2d_disc``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402

# counts and errors that must repeat bit for bit for a fixed seed
EXACT_LAYERS = ["linalg.factorizations", "ergodic.solves_per_invert",
                "dynamics.path_steps", "geometry.project.calls"]
EXACT_E2E = ["lambda_abs_err", "mu_abs_err"]


def test_oracle_reference_values():
    one = oracle.interval_oracle("ball")
    assert one.mean_psi == pytest.approx(0.861136, abs=5e-7)
    assert one.mean_Lphi == pytest.approx(-0.708875, abs=5e-7)
    two = oracle.disc_oracle()
    assert two.mean_psi == pytest.approx(0.889853, abs=5e-7)
    assert two.mean_Lphi == pytest.approx(-1.541494, abs=5e-7)
    # the flux does not depend on which unit-gradient defining function is used
    quartic = oracle.interval_oracle("quartic")
    assert quartic.mean_Lphi == pytest.approx(one.mean_Lphi, abs=1e-12)
    assert one.lam(one.mu_star(0.5)) == pytest.approx(0.5, abs=1e-14)


def test_oracle_reproduces_known_1d_error():
    from ebsde import ergodic, presets
    domain = presets.ball_domain(1.0, 1)
    model = presets.kolmogorov_model(presets.quadratic_potential(1.0), eta_hint=-1.0)
    sol = ergodic.solve_ergodic(model, domain, presets.cos_driver(1.0), 0.5,
                                spacing=1e-3)
    err = sol.lam - oracle.interval_oracle("ball").lam(0.5)
    assert err == pytest.approx(-3.05e-4, abs=5e-6)


def test_every_per_layer_metric_is_computed():
    import layers
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert listed == set(layers.LAYER_METRICS) | {layers.OVERHEAD}


def test_refuses_without_a_checkout():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "mc_paths", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _traced_run(workload: str, tag: str) -> dict:
    out = ROOT / ".bench_out" / f"selftest-{workload}-{tag}"
    out.mkdir(parents=True, exist_ok=True)
    result = out / "result.json"
    subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload",
                    workload, "--seed", "3", "--seconds", "0", "--trace", "1",
                    "--out-dir", str(out), "--result", str(result)],
                   cwd=ROOT, check=True, timeout=600)
    with open(result) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["grid2d_disc", "grid1d_inverse", "mc_paths"])
def test_exact_metrics_repeat_across_runs(workload):
    first, second = _traced_run(workload, "a"), _traced_run(workload, "b")
    assert first["failed"] == [] and second["failed"] == []
    for name in EXACT_LAYERS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["counts_repeat"] and second["counts_repeat"]
    for name in EXACT_E2E:
        assert first["e2e"].get(name) == second["e2e"].get(name), name
