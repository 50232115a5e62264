"""The benchmark calls package functions by name with keywords; a keyword
that a signature no longer has would fail only when the benchmark runs, so
every call of a package function in ``perfbench/workloads.py`` must still
bind to that function's signature."""
import ast
import importlib
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _package_names(tree: ast.Module) -> dict:
    """Local name -> object for every ``from ebsde... import`` name."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ebsde"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _resolve(expr: ast.expr, names: dict):
    """The package object an expression such as ``ergodic.lambda_of_mu``
    names, or None when it names none."""
    parts = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name) or expr.id not in names:
        return None
    obj = names[expr.id]
    for attr in reversed(parts):
        assert hasattr(obj, attr), f"{ast.unparse(expr)}.{'.'.join(parts[::-1])} is gone"
        obj = getattr(obj, attr)
    return obj


def _package_calls(tree: ast.Module, names: dict):
    """(line, function, positional args, keywords) of every call of a
    package function: called directly, or handed to a wrapper such as
    ``Pass.timed(metric, fn, *args, **kwargs)`` with the arguments after it."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        fn, args = _resolve(call.func, names), call.args
        if fn is None:
            for k, arg in enumerate(call.args):
                fn = _resolve(arg, names)
                if callable(fn):
                    args = call.args[k + 1:]
                    break
            else:
                continue
        if callable(fn):
            yield call.lineno, fn, args, call.keywords


def test_every_benchmark_call_binds_to_its_function():
    tree = ast.parse(WORKLOADS.read_text())
    names = _package_names(tree)
    assert names
    seen = set()
    for line, fn, args, keywords in _package_calls(tree, names):
        sig = inspect.signature(fn)
        plain = [a for a in args if not isinstance(a, ast.Starred)]
        kwargs = {kw.arg: None for kw in keywords if kw.arg is not None}
        # *args or **kwargs hide how many arguments there are: bind what is seen
        unpacked = len(plain) < len(args) or len(kwargs) < len(keywords)
        bind = sig.bind_partial if unpacked else sig.bind
        try:
            bind(*[None] * len(plain), **kwargs)
        except TypeError as exc:
            raise AssertionError(f"workloads.py line {line}: {fn.__qualname__}: {exc}")
        seen.update((fn.__qualname__, key) for key in kwargs)
    # the keywords this guard exists for are among those checked
    for fn in ("solve_ergodic", "lambda_of_mu", "solve_boundary_cost"):
        for key in ("scheme", "spacing", "tol"):
            assert (fn, key) in seen, (fn, key)
