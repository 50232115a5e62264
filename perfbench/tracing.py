"""In-memory span tracer that wraps the package's public entry points.

Nothing inside the package is edited. ``install_linalg`` replaces the scipy
factor/solve entry points before the package is imported, so the names the
package binds with ``from scipy... import`` are the wrapped ones;
``install_package`` replaces public functions and methods after import,
in every loaded ``ebsde`` module that holds a reference to the original.

A span is (name, start, end, parent, busy). For a plain call busy equals
end - start. Generator functions get generator-aware spans: the span is
open only while the generator body runs (each resumption), so ``busy`` is
the time spent producing items and the caller's loop body between items is
charged to the caller. Self time is busy minus the busy time of the direct
children. A target that does not exist is recorded in ``missing`` instead
of raising, so metrics that need it can be reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

__all__ = ["Tracer", "LINALG_TARGETS", "PACKAGE_TARGETS", "STEP_SPANS"]

# (module, attribute, span name)
LINALG_TARGETS = [
    ("scipy.sparse.linalg", "spsolve", "linalg.spsolve"),
    ("scipy.sparse.linalg", "splu", "linalg.splu"),
    ("scipy.linalg", "solve_banded", "linalg.solve_banded"),
]

# (module, attribute path, span name, kind); kind "gen" marks generator
# functions that yield reflected-step tuples (..., X, ..., dK, xi)
PACKAGE_TARGETS = [
    ("ebsde.grids", "build_mesh", "grids.build_mesh", "call"),
    ("ebsde.grids", "GridFunction.gradient", "grids.gradient", "call"),
    ("ebsde.grids", "GridFunction.interp_many", "grids.interp", "call"),
    ("ebsde.discounted", "solve_discounted", "discounted.solve_discounted", "call"),
    ("ebsde.ergodic", "solve_ergodic", "ergodic.solve_ergodic", "call"),
    ("ebsde.ergodic", "lambda_of_mu", "ergodic.lambda_of_mu", "call"),
    ("ebsde.ergodic", "solve_boundary_cost", "ergodic.solve_boundary_cost", "call"),
    ("ebsde.ergodic", "ErgodicSolution.zeta_at", "ergodic.zeta_at", "call"),
    ("ebsde.hypotheses", "stationary_generator_phi", "hypotheses.flux", "call"),
    ("ebsde.geometry", "project", "geometry.project", "call"),
    ("ebsde.dynamics", "ensemble_steps", "dynamics.ensemble_steps", "steps"),
    ("ebsde.dynamics", "_ensemble_noise_blocks", "dynamics.noise", "gen"),
    ("ebsde.dynamics", "SdeModel.drift_at", "dynamics.proposal", "call"),
    ("ebsde.dynamics", "SdeModel.noise_term", "dynamics.proposal", "call"),
    ("ebsde.dynamics", "_IntervalKernel.__call__", "dynamics.boundary", "call"),
    ("ebsde.dynamics", "_BallKernel.__call__", "dynamics.boundary", "call"),
    ("ebsde.dynamics", "_GenericKernel.__call__", "dynamics.boundary", "call"),
    ("ebsde.control", "_controlled_steps", "control.controlled_steps", "steps"),
    ("ebsde.control", "Policy.controls_for", "control.policy", "call"),
    ("ebsde.control", "cost_I", "control.cost", "call"),
    ("ebsde.control", "cost_J", "control.cost", "call"),
    ("ebsde.verification", "pde_residual", "verification.pde_residual", "call"),
    ("ebsde.verification", "bsde_residual", "verification.bsde_residual", "call"),
]

STEP_SPANS = ("dynamics.ensemble_steps", "control.controlled_steps")


class Tracer:
    """Span store plus the wrappers that feed it.

    Spans live in flat typed arrays (one entry per span) so that the
    hot per-step wrappers stay cheap; ``steps`` maps a step-generator span
    index to [path_steps, reflected_path_steps].
    """

    def __init__(self):
        self.enabled = False
        self.names: list = []
        self._name_id: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.parent = array("i")
        self.steps: dict = {}
        self.failures: list = []      # (span index, exception class name)
        self.missing: list = []
        self._stack: list = []

    # -- span store -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def __len__(self) -> int:
        return len(self.name)

    def open(self, nid: int) -> int:
        idx = len(self.name)
        t = perf_counter()
        self.name.append(nid)
        self.start.append(t)
        self.end.append(t)
        self.busy.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter()
        self._stack.pop()
        self.end[idx] = t
        self.busy[idx] = t - self.start[idx]

    def _failed(self, idx: int, exc: BaseException) -> None:
        if getattr(exc, "_perfbench_seen", False):
            return
        try:
            exc._perfbench_seen = True
        except AttributeError:
            pass
        self.failures.append((idx, type(exc).__name__))

    # -- wrappers ---------------------------------------------------------

    def wrap_call(self, fn, name: str):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._failed(idx, exc)
                raise
            finally:
                tracer.close(idx)

        return wrapper

    def wrap_gen(self, fn, name: str, count_steps: bool):
        nid = self.name_id(name)
        tracer = self

        def traced(gen):
            idx = tracer.open(nid)      # created by the caller
            tracer._stack.pop()         # but only active while resumed
            counter = [0, 0] if count_steps else None
            if counter is not None:
                tracer.steps[idx] = counter
            try:
                while True:
                    t0 = perf_counter()
                    tracer._stack.append(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException as exc:
                        tracer._failed(idx, exc)
                        raise
                    finally:
                        tracer._stack.pop()
                        t1 = perf_counter()
                        tracer.busy[idx] += t1 - t0
                        tracer.end[idx] = t1
                    if counter is not None:
                        X, dK = item[1], item[-2]
                        counter[0] += len(X)
                        counter[1] += int((dK > 0).sum())
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return traced(gen) if tracer.enabled else gen

        return wrapper

    # -- installation -----------------------------------------------------

    def install_linalg(self) -> None:
        """Wrap scipy entry points; call before the package is imported."""
        for modname, attr, name in LINALG_TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            setattr(mod, attr, self.wrap_call(orig, name))

    def install_package(self) -> None:
        """Wrap package functions and methods; call after import."""
        loaded = [m for n, m in sys.modules.items()
                  if n == "ebsde" or n.startswith("ebsde.")]
        for modname, path, name, kind in PACKAGE_TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = mod
            if owner is not None and owner_name:
                owner = getattr(mod, owner_name, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{path}")
                continue
            if kind == "call":
                wrapped = self.wrap_call(orig, name)
            else:
                wrapped = self.wrap_gen(orig, name, count_steps=kind == "steps")
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            # rebind every module-level alias (``from .x import f`` copies)
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Self time of every span: busy minus the busy time of children."""
        child = [0.0] * len(self.name)
        busy, parent = self.busy, self.parent
        for i in range(len(parent)):
            p = parent[i]
            if p >= 0:
                child[p] += busy[i]
        return [busy[i] - child[i] for i in range(len(busy))]

    def has_ancestor(self, idx: int, nid: int) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def dump(self, path) -> None:
        """Write every span to an uncompressed ``.npz``: one array per field
        (name id, start, end, parent, busy) plus the name table, the
        step counters, the failures and the targets that were missing."""
        import json
        import numpy as np
        steps = sorted(self.steps.items())
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 busy=np.frombuffer(self.busy),
                 step_span=np.array([i for i, _ in steps], dtype=np.int64),
                 step_counts=np.array([c for _, c in steps],
                                      dtype=np.int64).reshape(-1, 2),
                 meta=np.array(json.dumps({"names": self.names,
                                           "failures": self.failures,
                                           "missing": self.missing})))
