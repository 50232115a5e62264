import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ebsde import cli, discounted
from ebsde.errors import NonConvergence

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _read(out, name):
    return json.loads((Path(out) / name).read_text())


def test_solve_degenerate_closed_form(tmp_path):
    rc = cli.main(["solve", "--config", str(CONFIGS / "degenerate.json"),
                   "--mu", "1.0", "--out-dir", str(tmp_path)])
    assert rc == 0
    s = _read(tmp_path, "summary.json")
    assert abs(s["lambda"]) < 1e-6
    assert (tmp_path / "solution.csv").exists()
    assert (tmp_path / "manifest.json").exists()


def test_check_reports_failed_flux_flag_but_exits_zero(tmp_path):
    rc = cli.main(["check", "--config", str(CONFIGS / "degenerate.json"),
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    s = _read(tmp_path, "summary.json")
    assert s["flags"]["F2.2"] is False
    flags = (tmp_path / "flags.csv").read_text().splitlines()
    assert flags[0] == "hypothesis,holds"
    assert "F2.2,false" in flags


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_check_summary_does_not_depend_on_the_seed(tmp_path, config):
    # check simulates nothing, so --seed changes no byte of the summary
    outs = [tmp_path / f"seed{seed}" for seed in (0, 7)]
    for seed, out in zip((0, 7), outs):
        assert cli.main(["check", "--config", str(CONFIGS / config),
                         "--seed", str(seed), "--out-dir", str(out)]) == 0
    a, b = ((out / "summary.json").read_bytes() for out in outs)
    assert a == b


def test_invert_on_flat_curve_fails_with_hint(tmp_path, capsys):
    rc = cli.main(["invert", "--config", str(CONFIGS / "degenerate.json"),
                   "--lambda", "0.0", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "FlatCurve" in err and "ergodic" in err
    assert "hint:" in err


def test_invert_refuses_every_scheme_but_direct(tmp_path, capsys, monkeypatch):
    # every task that solves refuses the vanishing-discount scheme with one
    # message and its remedy, before any grid is built or any output written
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(discounted, "build_mesh", no_mesh)
    cfg = json.loads((CONFIGS / "interval_cos.json").read_text())
    cfg["run"]["scheme"] = "vanishing_discount"
    path = tmp_path / "vd.json"
    path.write_text(json.dumps(cfg))
    for task, extra in (("solve", []), ("curve", []), ("invert", ["--lambda", "0.5"]),
                        ("verify", []), ("control", [])):
        out = tmp_path / f"out-{task}"
        rc = cli.main([task, "--config", str(path), *extra, "--out-dir", str(out)])
        assert rc == 2, task
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: run.scheme 'vanishing_discount' is not one of "
                       "('direct',): every task runs the direct scheme only",
                       'hint: set run.scheme to "direct"'], task
        assert not out.exists(), task


def test_error_names_the_module_that_raised_it(tmp_path, capsys):
    # NonConvergence is raised in geometry and in ergodic; here only the
    # inversion of ergodic raises it, as its lambda misses the target by
    # 4e-13, more than the tolerance
    rc = cli.main(["invert", "--config", str(CONFIGS / "interval_cos.json"),
                   "--lambda", "0.5", "--tol", "1e-15",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error in ergodic (NonConvergence): ")
    assert err[1] == f"hint: {NonConvergence.remedy}"


def test_invert_reaches_target(tmp_path):
    rc = cli.main(["invert", "--config", str(CONFIGS / "interval_cos.json"),
                   "--lambda", "0.5", "--out-dir", str(tmp_path)])
    assert rc == 0
    s = _read(tmp_path, "summary.json")
    assert s["gap"] <= 1e-3
    assert 0.3 < s["mu_star"] < 0.7


def test_curve_subcommand(tmp_path):
    rc = cli.main(["curve", "--config", str(CONFIGS / "interval_cos.json"),
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    s = _read(tmp_path, "summary.json")
    assert s["non_increasing"] is True
    # a z-free driver: the line from one LU and one transposed solve
    assert s["record"] == {"route": "line", "nodes": 2001, "factorisations": 1,
                           "solves": 0, "transposed_solves": 1}
    head = (tmp_path / "curve.csv").read_text().splitlines()[0]
    assert head.startswith("mu,lambda")


def test_outputs_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["solve", "--config",
                         str(CONFIGS / "interval_cos.json"),
                         "--out-dir", str(out)]) == 0
    assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_solution_json_is_byte_deterministic(tmp_path):
    # the solve diagnostics hold counts and updates, no wall-clock time
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["solve", "--config", str(CONFIGS / "two_control.json"),
                         "--out-dir", str(out)]) == 0
    a, b = ((out / "solution.json").read_bytes() for out in outs)
    assert a == b
    diag = json.loads(a)["diagnostics"]
    assert diag["boundary_rows"] == "ghost_point"
    assert diag["picard_sweeps"] > 1


def test_verify_subcommand(tmp_path):
    rc = cli.main(["verify", "--config", str(CONFIGS / "interval_cos.json"),
                   "--paths", "80", "--horizon", "2", "--out-dir",
                   str(tmp_path)])
    assert rc == 0
    s = _read(tmp_path, "summary.json")
    assert s["pde_interior_max"] < 1e-3
    assert (tmp_path / "bsde_partials.csv").exists()


def test_control_and_verify_summaries_carry_byte_identical_run_records(tmp_path):
    runs = {"control": ["control", "--config", str(CONFIGS / "two_control.json"),
                        "--grid", "1e-2", "--paths", "16", "--horizon", "0.5"],
            "verify": ["verify", "--config", str(CONFIGS / "interval_cos.json"),
                       "--paths", "40", "--horizon", "0.5"]}
    for task, argv in runs.items():
        outs = [tmp_path / f"{task}-{k}" for k in range(2)]
        for out in outs:
            cli.main(argv + ["--out-dir", str(out)])
        assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
        s = _read(outs[0], "summary.json")
        records = ([p[r] for p in s["policies"].values() for r in ("run_I", "run_J")]
                   if task == "control" else [s["bsde_run"]])
        for rec in records:
            assert rec["path_steps"] == int(argv[-3]) * 500
            assert 0.0 < rec["reflected_fraction"] < 1.0
            assert 0.0 < rec["max_step_ratio"] < 1.0
            assert rec["local_time"] > 0.0


def test_reproduce_single_criterion(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"run": {"criteria": [4]}}')
    rc = cli.main(["reproduce", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "criterion_04.csv").exists()


def test_reproduce_is_byte_deterministic_apart_from_timings(tmp_path):
    # wall-clock values go to timings.json only; every other file repeats
    cfg = tmp_path / "c.json"
    cfg.write_text('{"run": {"criteria": [1, 4]}}')
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["reproduce", "--config", str(cfg), "--out-dir", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert names == ["criterion_01.csv", "criterion_04.csv", "manifest.json",
                     "summary.json", "timings.json"]
    for name in names:
        if name != "timings.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    header = (outs[0] / "criterion_01.csv").read_text().splitlines()[0]
    assert header == "mu,lambda,v_err,ok"
    timings = _read(outs[0], "timings.json")["criteria"]
    assert sorted(timings) == ["1", "4"]
    assert sorted(timings["1"]["seconds_per_mu"]) == ["-1.0", "0.0", "1.0"]
    assert timings["4"]["seconds"] >= 0.0


@pytest.mark.parametrize("scheme", ["bogus", "both"])
@pytest.mark.parametrize("task", ["solve", "curve"])
def test_unknown_scheme_is_a_config_error(tmp_path, capsys, task, scheme):
    cfg = json.loads((CONFIGS / "interval_cos.json").read_text())
    cfg["run"]["scheme"] = scheme
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main([task, "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: run.scheme '{scheme}' is not one of" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["-1", "0", "nan", "inf"])
def test_grid_must_be_finite_and_positive(tmp_path, capsys, grid):
    # a negative spacing would round to a 3-node mesh, and 0 overflows
    rc = cli.main(["solve", "--config", str(CONFIGS / "interval_cos.json"),
                   "--grid", grid, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "is not finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--horizon", "0.0004"], "is not a whole number of time steps"),
    (["--horizon", "0.0015"], "is not a whole number of time steps"),
    (["--horizon", "-5"], "are not finite and positive"),
    (["--horizon", "0"], "are not finite and positive"),
    (["--horizon", "nan"], "are not finite and positive"),
    (["--horizon", "inf"], "are not finite and positive"),
    (["--paths", "1"], "paths 1 is below 2")])
def test_horizon_and_paths_must_give_a_run_with_a_stderr(tmp_path, capsys, flags,
                                                         message):
    # h = 1e-3: a horizon shorter than one step, or between two whole
    # numbers of steps, would leave cost_I without its horizon value
    rc = cli.main(["control", "--config", str(CONFIGS / "two_control.json"), *flags,
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_girsanov_horizon_must_be_a_whole_number_of_steps(tmp_path, capsys):
    # the check runs min(horizon, 20) = 20 at h = 0.003: 6666.67 steps,
    # refused before any output although the horizon itself is 10000 steps
    cfg = json.loads((CONFIGS / "two_control.json").read_text())
    cfg["run"].update(horizon=30.0, h=0.003, girsanov_check=True)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["control", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "is not a whole number of time steps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_import_leaves_the_quadrature_modules_unloaded():
    # scipy.integrate pulls in scipy.special; only the Gibbs quadratures
    # need them, so the console command does not pay for them at start
    code = ("import sys, ebsde.cli; print(sorted(m for m in ('scipy.integrate', "
            "'scipy.special', 'scipy.optimize') if m in sys.modules))")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_missing_config_is_a_config_error(tmp_path, capsys):
    rc = cli.main(["solve", "--config", str(tmp_path / "nope.json"),
                   "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_unparsable_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["solve", "--config", str(bad), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_domain_kind(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"domain": {"kind": "torus"}, "model": {"kind": "ou"}}')
    rc = cli.main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "domain" in capsys.readouterr().err


def test_control_needs_control_section(tmp_path, capsys):
    rc = cli.main(["control", "--config", str(CONFIGS / "interval_cos.json"),
                   "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "control section" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ({"kind": "mystery"}, "unknown policy kind 'mystery'"),
    ({"kind": "constant", "index": 5}, "index 5 is not an integer from 0 to 1")])
def test_bad_policy_spec_is_a_config_error_before_any_solve(tmp_path, capsys,
                                                            monkeypatch, spec, message):
    cfg = json.loads((CONFIGS / "two_control.json").read_text())
    cfg["run"]["policies"].append(spec)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the policies were checked")

    monkeypatch.setattr(cli, "solve_ergodic", no_solve)
    rc = cli.main(["control", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: run.policies[2]: " in err and message in err
    assert not (tmp_path / "out").exists()


DISC = {"kind": "ball", "radius": 1.0, "dim": 2}


@pytest.mark.parametrize("task, cfg, message", [
    # a 1-d potential in a 2-d model: the drift would read only x0
    ("check", {"domain": DISC, "model": {"kind": "kolmogorov", "dim": 2,
                                         "potential": {"kind": "poly",
                                                       "coeffs": [0, 0, 0.5]}}},
     "the poly potential is 1-d, but the model has dim 2"),
    ("solve", {"domain": DISC, "model": {"kind": "kolmogorov", "dim": 2,
                                         "potential": {"kind": "pinned_free"}}},
     "the pinned_free potential is 1-d, but the model has dim 2"),
    # a model whose dimension is not the domain's
    ("solve", {"domain": {"kind": "ball", "dim": 1}, "model": {"kind": "ou", "dim": 2}},
     "the model has dim 2, but the domain has dim 1"),
    ("solve", {"domain": {"kind": "interval_quartic"},
               "model": {"kind": "kolmogorov", "dim": 2}},
     "the model has dim 2, but the domain has dim 1"),
    # a noise tilt whose width is not the domain's
    ("solve", {"domain": DISC, "model": {"kind": "kolmogorov", "dim": 2},
               "driver": {"kind": "hamiltonian"},
               "control": {"kind": "table", "preset": "two_control"}},
     "control R has 1 columns, but the domain has dim 2")])
def test_dimensions_that_disagree_are_a_config_error(tmp_path, capsys, task, cfg,
                                                     message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main([task, "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_subcommand_exits(capsys):
    with pytest.raises(SystemExit):
        cli.main([])
