"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import crosscav.cli as cli  # noqa: E402
from crosscav.tensor import DensityMatrix  # noqa: E402

import compare  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import build_pass, digest  # noqa: E402

SEED = 4242

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# (workload, points, validate profile) of a quick pass per workload; the
# analytic grid stays full size because only it has reference digests
SMOKE = [
    ("sweep-analytic", None, "default"),
    ("sweep-simulated", 2, "default"),
    ("validate", None, "zero-dissipation"),
]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload,points,profile", SMOKE)
def test_smoke_pass(workload, points, profile, trace):
    result = run.measure(workload, SEED, 0, trace, points=points, profile=profile)
    assert result["failures"] == []
    line = json.loads(run.result_line([result]))
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }


def _corrupt_last_simulated(text):
    lines = text.split("\n")
    k = max(i for i, line in enumerate(lines) if line.endswith(",simulated"))
    fields = lines[k].split(",")
    fields[2] = "%.14e" % (float(fields[2]) + 1e-3)
    lines[k] = ",".join(fields)
    return "\n".join(lines)


def _corrupt_one_digit(text):
    k = text.rindex("e-")
    digit = text[k - 1]
    return text[: k - 1] + ("1" if digit != "1" else "2") + text[k:]


class _CorruptingCli:
    """Stands in for crosscav.cli and alters one value of the real output."""

    def __init__(self, corrupt):
        self.corrupt = corrupt

    def main(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(argv)
        sys.stdout.write(self.corrupt(buf.getvalue()))
        return rc


def test_corrupted_simulated_value_fails_check(tmp_path):
    invocations = build_pass("sweep-simulated", SEED, str(tmp_path), points=2)
    clean = passrun.run_pass(cli, invocations)
    assert [inv["error"] for inv in clean["invocations"]] == [None, None]
    bad = passrun.run_pass(_CorruptingCli(_corrupt_last_simulated), invocations)
    for inv in bad["invocations"]:
        assert "deviates from analytic" in inv["error"]


def test_corrupted_analytic_value_fails_digest(tmp_path):
    invocations = build_pass("sweep-analytic", SEED, str(tmp_path), points=5)
    assert passrun.run_pass(cli, invocations)["invocations"][0]["error"] is not None
    for inv in invocations:
        rc, out, _, _ = passrun.run_invocation(cli, inv)
        assert rc == 0
        inv["expected"] = digest(out)
    clean = passrun.run_pass(cli, invocations)
    assert [inv["error"] for inv in clean["invocations"]] == [None, None]
    bad = passrun.run_pass(_CorruptingCli(_corrupt_one_digit), invocations)
    for inv in bad["invocations"]:
        assert "differs from reference" in inv["error"]


def test_traced_output_change_counts_as_failure():
    def rec(traced, d):
        return {"traced": traced, "invocations": [
            {"command": "sweep-phi", "check": "digest", "digest": d, "error": None}]}

    attempted, failures = run.count_failures([rec(False, "a"), rec(True, "b")])
    assert attempted == 2
    assert failures == ["pass 1 sweep-phi: traced output differs from the first pass"]


def _bindings():
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "crosscav" or name.startswith("crosscav.")}
    return mods, vars(DensityMatrix)["__post_init__"]


def _assert_same_bindings(before, after):
    (mods_b, post_b), (mods_a, post_a) = before, after
    assert post_a is post_b
    for name, attrs in mods_b.items():
        for attr, value in attrs.items():
            assert mods_a[name][attr] is value, f"{name}.{attr} not restored"


def test_bindings_restored_after_traced_pass(tmp_path):
    invocations = (build_pass("sweep-simulated", SEED, str(tmp_path), points=2)
                   + build_pass("validate", SEED, str(tmp_path), profile="zero-dissipation"))
    before = _bindings()
    record = passrun.run_pass(cli, invocations, traced=True)
    _assert_same_bindings(before, _bindings())
    for name in ("crosscav.protocol.evolve_master", "crosscav.cli.run_two_cavity",
                 "crosscav.liouvillian.build_general_liouvillian",
                 "DensityMatrix.__post_init__", "crosscav.validate.check_zero_dissipation"):
        assert name in record["bindings"]
    with pytest.raises(RuntimeError):
        with Tracer():
            assert vars(DensityMatrix)["__post_init__"] is not before[1]
            raise RuntimeError("escapes the traced region")
    _assert_same_bindings(before, _bindings())


def test_simulated_call_counts(tmp_path):
    points = 2
    invocations = build_pass("sweep-simulated", SEED, str(tmp_path), points=points)
    layers = passrun.run_pass(cli, invocations, traced=True)["layers"]
    # phi: 3 r values x 1 run; time: 3 r values x 2 runs (resonant, detuned)
    runs = 9 * points
    assert layers["protocol.runs"] == runs
    assert layers["integrator.evolve.calls"] == runs
    assert layers["liouvillian.builds"] == runs
    assert layers["liouvillian.nnz_total"] > 0
    assert layers["liouvillian.max_dim2"] == layers["integrator.evolve.max_dim2"] == 64
    assert layers["integrator.unitary.calls"] > 0
    assert layers["tensor.density.calls"] > 0


def test_analytic_sweep_bypasses_generators(tmp_path):
    points = 3
    invocations = build_pass("sweep-analytic", SEED, str(tmp_path), points=points)
    layers = passrun.run_pass(cli, invocations, traced=True)["layers"]
    assert layers["liouvillian.builds"] == 0
    assert layers["integrator.evolve.calls"] == 0
    # phi: one closed form per point and r; time: resonant and detuned
    assert layers["analytic.calls"] == points * (3 * 1 + 3 * 2)
    assert layers["cli.self_s"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep-analytic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_liouvillian_builds_count_symmetric_builder_only():
    lv = "crosscav.liouvillian."
    # a check that calls build_symmetric (with its nested build_general),
    # build_general directly and decompose_symmetric
    spans = [
        (1, None, "cli", "crosscav.cli.main", 0, 100, None),
        (2, 1, "validate.builder_consistency", "check", 1, 90, None),
        (3, 2, "liouvillian", lv + "build_symmetric_liouvillian", 2, 20, (64, 300)),
        (4, 3, "liouvillian", lv + "build_general_liouvillian", 3, 19, None),
        (5, 2, "liouvillian", lv + "build_general_liouvillian", 21, 40, None),
        (6, 2, "liouvillian", lv + "decompose_symmetric", 41, 60, None),
    ]
    layers = layer_metrics(spans, 100e-9)
    assert layers["liouvillian.builds"] == 1
    assert layers["liouvillian.nnz_total"] == 300
    assert layers["liouvillian.max_dim2"] == 64
    # self time covers every builder: 2 + 16 + 19 + 19 ns
    assert layers["liouvillian.self_s"] == pytest.approx(56e-9)


LOWER = {"better": "lower", "bound": 0.25}


def test_verdict_regression():
    assert compare.verdict([1.0] * 10, [1.5] * 10, LOWER).startswith("REGRESSION")


def test_verdict_better():
    base = [1.0 + 0.01 * k for k in range(10)]
    assert compare.verdict(base, [0.5] * 10, LOWER) == "better"


def test_verdict_unresolved():
    base = [0.5, 1.5] * 5
    assert compare.verdict(base, [1.0] * 10, LOWER).startswith("unresolved")


def _write_results(tmp_path, side, environment, values):
    paths = []
    for k, value in enumerate(values):
        path = tmp_path / f"{side}{k}.json"
        path.write_text(json.dumps({
            "workload": "validate", "trace": 0, "commit": side,
            "environment": environment, "attempted": 1, "failed": 0,
            "metrics": {"wall_s": value},
        }))
        paths.append(str(path))
    return paths


def test_compare_flags_different_environments(tmp_path, capsys):
    env = run.environment_stamp()
    other = dict(env, numpy="0.0.0")
    base = _write_results(tmp_path, "base", env, [1.0] * 10)
    new = _write_results(tmp_path, "new", other, [2.0] * 10)
    assert compare.main(["--base", *base, "--new", *new]) == 0
    out = capsys.readouterr().out
    assert "FLAGGED" in out
    row = next(line for line in out.splitlines() if line.startswith("wall_s"))
    assert row.split()[-1] == "flagged"
    assert "REGRESSION" not in out and "better" not in out


def test_compare_reports_verdict_with_same_environment(tmp_path, capsys):
    env = run.environment_stamp()
    base = _write_results(tmp_path, "base", env, [1.0] * 10)
    new = _write_results(tmp_path, "new", env, [2.0] * 10)
    assert compare.main(["--base", *base, "--new", *new]) == 0
    out = capsys.readouterr().out
    assert "FLAGGED" not in out
    assert "REGRESSION" in out
