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
  ``girsanov_check`` set, written to ``OUT/two_control_girsanov.json``.

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
    doc = json.loads((CONFIGS / "two_control.json").read_text())
    doc["run"]["girsanov_check"] = True
    config = out / "two_control_girsanov.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")
    codes["two_control_girsanov-control"] = run(
        out, "two_control_girsanov-control", ["control", "--config", str(config)])
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    print(json.dumps(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
