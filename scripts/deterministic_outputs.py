#!/usr/bin/env python3
"""Write every output that is byte-deterministic, for a ``diff -r`` of two checkouts.

    PYTHONPATH=../parent/src python3 scripts/deterministic_outputs.py --out ../out-parent
    PYTHONPATH=src python3 scripts/deterministic_outputs.py --out ../out-change
    diff -r ../out-parent ../out-change

Runs ``python -m ebsde.cli`` from whichever ``ebsde`` the ``PYTHONPATH``
selects, one command at a time, with the BLAS pools pinned to one thread:

- ``reproduce``, with its ``timings.json`` (wall-clock seconds) removed;
- ``check``, ``solve``, ``curve``, ``invert --lambda 0.5``, ``verify`` and
  ``control`` on each ``configs/*.json`` of this checkout;
- ``control`` on a copy of ``configs/two_control.json`` with
  ``girsanov_check`` set, written to ``OUT/two_control_girsanov.json``;
- ``solve``, ``curve``, ``invert --lambda 0.5`` and ``solve --tol 1e-15``
  on a copy of ``configs/interval_cos.json`` with the
  ``vanishing_discount`` scheme, written to
  ``OUT/interval_cos_vanishing.json``. Every task runs the direct scheme
  only, so each of these records the configuration error that refuses the
  scheme (exit code 2) and writes no output directory.

Each command gets the directory ``OUT/<config>-<task>`` (``OUT/reproduce``):
its ``--out-dir`` under ``out/`` (absent when the command writes nothing)
and its standard error in ``stderr.txt``. Standard output is not kept, as
it names the output directory and, for ``reproduce``, the seconds per
criterion. ``OUT/exit_codes.json`` maps every command to its exit code.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TASKS = [("check", []), ("solve", []), ("curve", []), ("invert", ["--lambda", "0.5"]),
         ("verify", []), ("control", [])]
VANISHING_TASKS = {"solve": ["solve"], "curve": ["curve"],
                   "invert": ["invert", "--lambda", "0.5"],
                   "solve_tol1e-15": ["solve", "--tol", "1e-15"]}
ONE_THREAD = {key: "1" for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def run(out: Path, name: str, argv: list) -> int:
    """One CLI command into ``out/name``; returns its exit code."""
    where = out / name
    where.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "ebsde.cli", *argv,
                           "--out-dir", str(where / "out")],
                          env=dict(os.environ, **ONE_THREAD),
                          capture_output=True, text=True)
    (where / "stderr.txt").write_text(proc.stderr)
    return proc.returncode


def edited_copy(out: Path, source: str, name: str, settings: dict) -> Path:
    """``configs/<source>.json`` with ``settings`` added to its run section,
    written to ``OUT/<name>.json``."""
    doc = json.loads((CONFIGS / f"{source}.json").read_text())
    doc["run"].update(settings)
    config = out / f"{name}.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")
    return config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="directory to create; must not exist")
    args = parser.parse_args()
    out = args.out
    out.mkdir(parents=True)
    codes = {"reproduce": run(out, "reproduce", ["reproduce"])}
    (out / "reproduce" / "out" / "timings.json").unlink(missing_ok=True)
    for config in sorted(CONFIGS.glob("*.json")):
        for task, extra in TASKS:
            name = f"{config.stem}-{task}"
            codes[name] = run(out, name, [task, "--config", str(config), *extra])
    config = edited_copy(out, "two_control", "two_control_girsanov",
                         {"girsanov_check": True})
    codes["two_control_girsanov-control"] = run(
        out, "two_control_girsanov-control", ["control", "--config", str(config)])
    config = edited_copy(out, "interval_cos", "interval_cos_vanishing",
                         {"scheme": "vanishing_discount"})
    for task, (command, *extra) in VANISHING_TASKS.items():
        name = f"interval_cos_vanishing-{task}"
        codes[name] = run(out, name, [command, "--config", str(config), *extra])
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    print(json.dumps(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
