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
