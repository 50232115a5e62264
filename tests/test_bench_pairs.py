"""The bound verdicts of ``scripts/bench_pairs.py`` on a synthetic series of
alternating runs; the script is loaded by path, as it is run."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

METRICS = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "lambda_abs_err", "unit": "1", "better": "lower", "bound": 0.05},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _runs(parent: dict, change: dict) -> list:
    """One run per side and seed, the metrics' values in seed order."""
    runs = []
    for side, values in (("parent", parent), ("change", change)):
        for k in range(4):
            row = {"side": side, "seed": 100 + k, "attempted": 10, "failed": 0}
            row.update({name: vals[k] for name, vals in values.items()})
            runs.append(row)
    return runs


def test_bound_verdicts_on_a_synthetic_series():
    parent = {"setup_s": [0.60, 0.611, 0.611, 0.62],     # a 41% rise: beyond
              "wall_s": [0.05, 0.05, 0.07, 0.07],        # spread 33%: unresolved
              "lambda_abs_err": [0.1617] * 4,            # a 99.9% fall: within
              "peak_rss_mb": [90.0, 90.5, 90.5, 91.0]}   # a 1% rise: within
    change = {"setup_s": [0.85, 0.861, 0.861, 0.87],
              "wall_s": [0.05, 0.06, 0.06, 0.07],
              "lambda_abs_err": [1.8e-4] * 4,
              "peak_rss_mb": [91.0, 91.5, 91.5, 92.0]}
    summary = _bench_pairs().summarise(_runs(parent, change), METRICS)
    assert summary["pairs"] == 4
    verdicts = {name: m["bound_verdict"] for name, m in summary["metrics"].items()}
    assert {name: v["verdict"] for name, v in verdicts.items()} == {
        "setup_s": "beyond", "wall_s": "unresolved", "lambda_abs_err": "within",
        "peak_rss_mb": "within"}
    setup = verdicts["setup_s"]
    assert setup["bound"] == 0.25
    assert abs(setup["median_change_rel"] - (0.861 / 0.611 - 1)) < 1e-12
    assert abs(verdicts["wall_s"]["parent_iqr_rel"] - 0.02 / 0.06) < 1e-12


def test_bound_verdict_spread_and_clear_win():
    stats = {"parent": {"median": 100.0, "q1": 99.0, "q3": 101.0},
             "median_change_rel": -0.3}
    mod = _bench_pairs()
    assert mod.bound_verdict(stats, 0.25)["verdict"] == "within"
    assert mod.bound_verdict(dict(stats, median_change_rel=0.3), 0.25)["verdict"] == "beyond"
    # a spread wider than the bound is unresolved, unless every change run
    # is better than every parent run
    wide = dict(stats, parent={"median": 100.0, "q1": 80.0, "q3": 120.0})
    assert mod.bound_verdict(wide, 0.25)["verdict"] == "unresolved"
    assert mod.bound_verdict(wide, 0.25, clear_win=True)["verdict"] == "within"
    # a metric without a bound gets no verdict
    summary = mod.summarise(_runs({"x": [1.0] * 4}, {"x": [2.0] * 4}),
                            [{"name": "x", "unit": "1"}])
    assert "bound_verdict" not in summary["metrics"]["x"]
