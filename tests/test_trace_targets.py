"""The benchmark tracer wraps package functions by name; a renamed or
deleted target would silently drop a per-layer metric, so every target
must resolve against the imported package."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    targets = _tracing().PACKAGE_TARGETS
    assert targets
    for modname, path, _, kind in targets:
        obj = importlib.import_module(modname)
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{modname}.{path} is gone"
            obj = getattr(obj, attr)
        assert callable(obj), f"{modname}.{path}"
        assert kind in ("call", "gen", "steps")


def test_step_targets_yield_flat_blocks():
    # the tracer counts len(item[1]) path-steps and the reflected entries
    # of item[-2] for each item of a "steps" target: a block must carry its
    # states flat as (m P, d) at index 1 and its dK flat as (m P,) at -2
    import numpy as np
    from ebsde import (ball_domain, control, dynamics, kolmogorov_model,
                       quadratic_potential)
    from ebsde.grids import build_mesh
    from ebsde.presets import two_control_problem

    domain = ball_domain(1.0, 1)
    model = kolmogorov_model(quadratic_potential(), eta_hint=-1.0)
    paths, steps = 320, 500
    X0 = np.linspace(-0.9, 0.9, paths)[:, None]
    policy = control.Policy.tabulate(lambda nodes, Z: (nodes[:, 0] > 0).astype(int),
                                     build_mesh(domain, 1e-3))
    calls = {
        "dynamics.ensemble_steps": lambda fn: fn(model, domain, X0, steps, 1e-3, 5),
        "control.controlled_steps": lambda fn: fn(model, domain, two_control_problem(),
                                                  policy, X0, steps, 1e-3, 5),
    }
    targets = [t for t in _tracing().PACKAGE_TARGETS if t[3] == "steps"]
    assert sorted(t[2] for t in targets) == sorted(calls)
    for modname, path, name, _ in targets:
        fn = getattr(importlib.import_module(modname), path)
        rows, reflected, blocks = 0, 0, 0
        for item in calls[name](fn):
            X, dK = item[1], item[-2]
            assert X.ndim == 2 and X.shape[1] == 1
            assert dK.shape == (len(X),)
            rows += len(X)
            reflected += int((dK > 0).sum())
            blocks += 1
        assert rows == paths * steps, name
        S = dynamics._SUB_NUMBERS // paths      # steps per sub-block
        assert blocks == -(-steps // S) > 1 and 0 < reflected < rows, name
