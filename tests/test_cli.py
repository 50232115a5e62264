import json
from pathlib import Path

import pytest

from ebsde import cli

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


def test_invert_on_flat_curve_fails_with_hint(tmp_path, capsys):
    rc = cli.main(["invert", "--config", str(CONFIGS / "degenerate.json"),
                   "--lambda", "0.0", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "FlatCurve" in err and "ergodic" in err
    assert "hint:" in err


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


def test_verify_subcommand(tmp_path):
    rc = cli.main(["verify", "--config", str(CONFIGS / "interval_cos.json"),
                   "--paths", "80", "--horizon", "2", "--out-dir",
                   str(tmp_path)])
    assert rc == 0
    s = _read(tmp_path, "summary.json")
    assert s["pde_interior_max"] < 1e-3
    assert (tmp_path / "bsde_partials.csv").exists()


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


def test_programmatic_run_wrapper(tmp_path):
    rc = cli.run(CONFIGS / "degenerate.json", "solve", tmp_path, mu=1.0)
    assert rc == 0


def test_missing_subcommand_exits(capsys):
    with pytest.raises(SystemExit):
        cli.main([])
