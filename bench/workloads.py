"""Workload inputs and output checks for the crosscav benchmark.

A workload pass is a list of CLI invocations.  The seed draws the cross
decay phase gamma and the preparation angle theta from a fixed grid; k,
T, the T range, the grid sizes and the r lists (each of which contains
r = k) stay fixed, so the cost of a pass does not depend on the seed.
Drawing from a grid keeps the set of possible inputs finite, which lets
every analytic output be checked against a digest captured once.

This module imports nothing from crosscav and no numpy: the parent
process uses it without paying the program's import cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from math import pi

WORKLOADS = ("sweep-analytic", "sweep-simulated", "validate")

K = 1000.0
PHI_WINDOW_T = 500e-6
PHI_R_LIST = (500.0, 750.0, 1000.0)
TIME_R_LIST = (500.0, 900.0, 1000.0)
TIME_STOP = 2e-3
JOBS = "2"
ANGLE_GRID = 16
ANALYTIC_POINTS = 8001
SIMULATED_POINTS = 24
# contractual tolerance of tests/test_cli.py::test_engines_agree
ENGINE_TOL = 1e-6

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def draw_angles(seed: int):
    """Grid indices (i, j) of gamma and theta for this seed."""
    rng = random.Random(seed)
    return rng.randrange(ANGLE_GRID), rng.randrange(ANGLE_GRID)


def gamma_of(i: int) -> float:
    return 2 * pi * (i + 0.5) / ANGLE_GRID


def theta_of(j: int) -> float:
    return (pi / 2) * (j + 0.5) / ANGLE_GRID


def sweep_configs(i: int, j: int) -> dict:
    """--config contents of both sweep commands for grid indices (i, j)."""
    decay = {"k": K, "gamma": gamma_of(i)}
    return {
        "sweep-phi": {
            "decay": decay,
            "protocol": {"theta": theta_of(j), "T": PHI_WINDOW_T},
            "sweep": {"start": 0.0, "stop": 2 * pi, "r_list": list(PHI_R_LIST)},
        },
        "sweep-time": {
            "decay": decay,
            "protocol": {"theta": theta_of(j)},
            "sweep": {"start": 0.0, "stop": TIME_STOP, "r_list": list(TIME_R_LIST)},
        },
    }


def reference_key(command: str, i: int, j: int) -> str:
    # sweep-time output does not depend on theta
    return f"{i},{j}" if command == "sweep-phi" else f"{i}"


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["points"] != ANALYTIC_POINTS:
        raise ValueError(f"{REFERENCE_PATH} holds digests for {ref['points']} points, "
                         f"not {ANALYTIC_POINTS}; rerun make_reference.py")
    return ref


def sweep_argv(command: str, config_path: str, points: int, engine: str) -> list:
    return [
        command, "--config", config_path, "--points", str(points),
        "--engine", engine, "--jobs", JOBS,
    ]


def build_pass(workload: str, seed: int, workdir: str, points=None,
               profile: str = "default") -> list:
    """Invocations of one pass; writes the sweep configs into workdir.

    Each invocation is a JSON-ready dict with the CLI argv and the check
    its output must pass.  `points` and `profile` shrink a pass for the
    benchmark's own tests; the digest check then has no reference and
    the caller supplies `expected` itself.
    """
    if workload == "validate":
        return [{"command": "validate", "argv": ["validate", "--profile", profile],
                 "check": "validate"}]
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    i, j = draw_angles(seed)
    analytic = workload == "sweep-analytic"
    default_points = ANALYTIC_POINTS if analytic else SIMULATED_POINTS
    points = default_points if points is None else points
    reference = load_reference() if analytic and points == ANALYTIC_POINTS else None
    invocations = []
    for command, cfg in sweep_configs(i, j).items():
        path = os.path.join(workdir, f"{command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        r_list = cfg["sweep"]["r_list"]
        inv = {"command": command}
        if analytic:
            inv["argv"] = sweep_argv(command, path, points, "analytic")
            inv["check"] = "digest"
            inv["expected"] = (
                reference[command][reference_key(command, i, j)] if reference else None
            )
        else:
            inv["argv"] = sweep_argv(command, path, points, "both")
            inv["check"] = "engines"
            inv["rows"] = points * len(r_list)
        invocations.append(inv)
    return invocations


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_digest(text: str, expected) -> str | None:
    if expected is None:
        return "no reference digest for this input"
    got = digest(text)
    if got != expected:
        return f"output digest {got[:12]} differs from reference {expected[:12]}"
    return None


def check_engines(text: str, rows: int, tol: float = ENGINE_TOL) -> str | None:
    """Every simulated row within tol of its analytic row."""
    lines = [l for l in text.split("\n") if l and not l.startswith("#")]
    if len(lines) < 2:
        return "no data rows"
    by_engine = {"analytic": [], "simulated": []}
    for line in lines[1:]:
        fields = line.split(",")
        if fields[-1] not in by_engine:
            return f"unknown engine in row {line!r}"
        by_engine[fields[-1]].append(fields[:-1])
    ana, sim = by_engine["analytic"], by_engine["simulated"]
    if len(ana) != rows or len(sim) != rows:
        return f"expected {rows} rows per engine, got {len(ana)} and {len(sim)}"
    for ra, rs in zip(ana, sim):
        if ra[:2] != rs[:2] or len(ra) != len(rs):
            return f"rows do not line up: {ra[:2]} vs {rs[:2]}"
        try:
            dev = max(abs(float(a) - float(s)) for a, s in zip(ra[2:], rs[2:]))
        except ValueError as exc:
            return f"unparsable value: {exc}"
        if not dev <= tol:
            return f"simulated deviates from analytic by {dev:.3e} > {tol:.0e} at {rs[:2]}"
    return None


def check_validate(text: str) -> str | None:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"validate output is not JSON: {exc}"
    if report.get("passed") is not True:
        failed = [c.get("name") for c in report.get("checks", []) if not c.get("passed")]
        return f"validate report not passed; failing checks {failed}"
    return None


def check_output(inv: dict, text: str) -> str | None:
    """Failure message for one invocation's stdout, None when it passes."""
    kind = inv["check"]
    if kind == "digest":
        return check_digest(text, inv.get("expected"))
    if kind == "engines":
        return check_engines(text, inv["rows"])
    if kind == "validate":
        return check_validate(text)
    raise ValueError(f"unknown check {kind!r}")
