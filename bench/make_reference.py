"""Capture the analytic CSV digests that the sweep-analytic check compares with.

    python3 bench/make_reference.py

Runs every (gamma, theta) grid input of sweep-analytic through the CLI
and writes bench/reference.json.  The digests pin today's analytic output
byte for byte, so rerun this only when that output is meant to change.
"""

from __future__ import annotations

import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import json  # noqa: E402

import crosscav.cli as cli  # noqa: E402
from passrun import run_invocation  # noqa: E402
from run import git_commit  # noqa: E402
from workloads import (  # noqa: E402
    ANALYTIC_POINTS,
    ANGLE_GRID,
    REFERENCE_PATH,
    digest,
    reference_key,
    sweep_argv,
    sweep_configs,
)


def main():
    ref = {"points": ANALYTIC_POINTS, "commit": git_commit(ROOT),
           "sweep-phi": {}, "sweep-time": {}}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        for i in range(ANGLE_GRID):
            for j in range(ANGLE_GRID):
                for command, cfg in sweep_configs(i, j).items():
                    key = reference_key(command, i, j)
                    if key in ref[command]:
                        continue
                    path = os.path.join(tmp, f"{command}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(cfg, fh)
                    argv = sweep_argv(command, path, ANALYTIC_POINTS, "analytic")
                    rc, out, err, _ = run_invocation(cli, {"argv": argv})
                    if rc != 0:
                        raise SystemExit(f"{command} {key} failed: {err}")
                    ref[command][key] = digest(out)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
