import json
import os
import subprocess
import sys
from math import inf, nan, pi, sin
from pathlib import Path

import numpy as np
import pytest

import crosscav
from crosscav.analytic import (
    PreparedStateParams,
    prob_e_single_cavity_detuned,
    prob_e_single_cavity_resonant,
    prob_e_two_cavity,
)
from crosscav.cli import main
from crosscav.liouvillian import SymmetricDecayParameters
from crosscav.protocol import ProtocolConfig, run_single_cavity, run_two_cavity
from crosscav.validate import check_dfs_preservation


def run_cli(args):
    return main(args)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0


def test_cli_runs_load_no_scipy():
    # scipy.sparse alone costs ~0.27 s of import time and ~22 MB of resident
    # memory; the package stores and propagates its generators with numpy
    # only, on import and on the run path of validate and a simulated sweep.
    # numpy.ma (loaded by np.unique) and numpy.random cost ~15 ms each, so
    # neither is loaded on that path either
    src = str(Path(crosscav.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys\n"
        "import crosscav.cli as cli\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "on_import = scipy_modules()\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [cli.main(['validate']), cli.main(\n"
        "        ['sweep-time', '--engine', 'simulated', '--points', '3'])]\n"
        "lazy = [m for m in ('numpy.ma', 'numpy.random') if m in sys.modules]\n"
        "print(codes, on_import, scipy_modules(), lazy)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[0, 0] [] [] []"


def test_unknown_command_exit_1(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_phi_schema(capsys):
    assert run_cli(["sweep-phi", "--points", "5", "--r-list", "250,750"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("# crosscav-")
    assert lines[1] == "phi_rad,r_per_s,p_e,engine"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 10  # 2 r values x 5 points
    for row in rows:
        assert len(row) == 4
        assert row[3] == "analytic"
        assert 0.0 <= float(row[2]) <= 1.0


def test_sweep_time_schema(capsys):
    assert run_cli(["sweep-time", "--points", "4", "--r-list", "1000"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1] == "T_s,r_per_s,p_e_r,p_e_nr,D,engine"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[4]) == pytest.approx(0.0, abs=1e-15)  # D(0) = 0
    for line in lines[2:]:
        f = line.split(",")
        assert float(f[4]) == pytest.approx(float(f[2]) - float(f[3]), abs=1e-14)


def test_output_deterministic(tmp_path):
    # repeated runs and every --jobs value give the same bytes
    for command in ("sweep-phi", "sweep-time"):
        args = [command, "--points", "11", "--r-list", "600"]
        outputs = []
        for i, jobs in enumerate(["1", "3", "3"]):
            path = tmp_path / f"{command}-{i}.csv"
            assert run_cli(args + ["--jobs", jobs, "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_row_order(capsys):
    # engine, then the r list as given (not sorted), then phi ascending
    args = ["sweep-phi", "--engine", "both", "--r-list", "900,300", "--points", "3"]
    assert run_cli(args) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.strip().split("\n")[2:]]
    blocks = [
        (engine, r) for engine in ("analytic", "simulated") for r in (900.0, 300.0)
    ]
    assert [(row[3], float(row[1])) for row in rows] == [
        block for block in blocks for _ in range(3)
    ]
    for start in range(0, len(rows), 3):
        phis = [float(row[0]) for row in rows[start:start + 3]]
        assert phis == sorted(phis) and phis[0] < phis[-1]


ROW_CFG = {
    "decay": {"k": 1000.0, "gamma": 0.7},
    "protocol": {"G": 2 * pi * 25e3, "theta": 0.4, "phi": 1.1, "T": 3e-4},
}
GRID = {"sweep-phi": (0.0, 2 * pi), "sweep-time": (0.0, 2e-3)}


def row_reference(command, engine, frame, points, r_list, clear=None):
    """Data rows of a sweep, built one row at a time with one `%` per row.

    clear, when given, is called before each simulated point.
    """
    k, gamma = ROW_CFG["decay"]["k"], ROW_CFG["decay"]["gamma"]
    proto = ROW_CFG["protocol"]
    theta, T = proto["theta"], proto["T"]
    engines = ["analytic", "simulated"] if engine == "both" else [engine]
    rows = []
    for e in engines:
        for r in r_list:
            decay = SymmetricDecayParameters(k, r, gamma)
            for x in np.linspace(*GRID[command], points):
                if clear and e == "simulated":
                    clear()
                if command == "sweep-phi":
                    if e == "analytic":
                        p = prob_e_two_cavity(PreparedStateParams(theta, x), k, r, gamma, T)
                    else:
                        c = ProtocolConfig(**{**proto, "decay": decay, "phi": x})
                        p = run_two_cavity(c, readout="overlap", frame=frame).p_e
                    rows.append("%.14e,%.14e,%.14e,%s" % (x, r, p, e))
                    continue
                if e == "analytic":
                    p_r = prob_e_single_cavity_resonant(k, r, gamma, x)
                    p_nr = prob_e_single_cavity_detuned(k, x)
                else:
                    c = ProtocolConfig(**{**proto, "decay": decay, "T": x})
                    p_r = run_single_cavity(c, variant="resonant", frame=frame).p_e
                    p_nr = run_single_cavity(c, variant="detuned", frame=frame).p_e
                rows.append(
                    "%.14e,%.14e,%.14e,%.14e,%.14e,%s" % (x, r, p_r, p_nr, p_r - p_nr, e)
                )
    return rows


@pytest.mark.parametrize("points", [2, 4])
@pytest.mark.parametrize("frame", ["rotating", "lab"])
@pytest.mark.parametrize("engine", ["analytic", "both"])
@pytest.mark.parametrize("command", ["sweep-phi", "sweep-time"])
def test_sweep_csv_matches_row_reference(tmp_path, capsys, command, engine, frame,
                                          points):
    # the sweeps format by column; the bytes are those of row-at-a-time
    # formatting, for an r list that is unsorted and holds 0 and k
    r_list = [1000.0, 0.0, 450.0]
    args = [command, "--config", write_config(tmp_path, ROW_CFG), "--engine", engine,
            "--frame", frame, "--points", str(points),
            "--r-list", ",".join(map(str, r_list))]
    assert run_cli(args) == 0
    header, data = capsys.readouterr().out.split("\n", 2)[1:]
    assert header == {"sweep-phi": "phi_rad,r_per_s,p_e,engine",
                      "sweep-time": "T_s,r_per_s,p_e_r,p_e_nr,D,engine"}[command]
    rows = row_reference(command, engine, frame, points, r_list)
    assert data == "".join(row + "\n" for row in rows)


def test_sweep_overflow_leaves_no_partial_output(tmp_path, capsys):
    # the r = 500 block is computed before cosh(r T) overflows in the
    # r = 1000 block; nothing is written unless every block is done
    path = write_config(tmp_path, {"decay": {"k": 1000.0}, "sweep": {"stop": 1.0}})
    out = tmp_path / "out.csv"
    args = ["sweep-time", "--config", path, "--engine", "analytic",
            "--r-list", "500,1000"]
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert run_cli(args + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-phi", "simulate", "validate"])
def test_unwritable_out_exit_1_one_line(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.txt"
    args = {
        "sweep-phi": ["sweep-phi", "--points", "3"],
        "simulate": ["simulate", "--config",
                     write_config(tmp_path, {"protocol": {"T": 1e-4}})],
        "validate": ["validate", "--profile", "zero-dissipation"],
    }[command]
    assert run_cli(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert str(out) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-phi", "sweep-time", "simulate", "validate"])
def test_missing_out_directory_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                      command):
    import crosscav.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("the --out directory is checked before any work")

    for name in ("run_validation", "run_two_cavity", "run_single_cavity",
                 "prob_e_two_cavity", "prob_e_single_cavity_resonant",
                 "prob_e_single_cavity_detuned"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "missing" / "out.txt"
    args = {
        "sweep-phi": ["sweep-phi", "--engine", "both", "--points", "3"],
        "sweep-time": ["sweep-time", "--engine", "both", "--points", "3"],
        "simulate": ["simulate", "--config",
                     write_config(tmp_path, {"protocol": {"T": 1e-4}})],
        "validate": ["validate"],
    }[command]
    assert run_cli(args + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert str(out) in captured.err
    assert not out.parent.exists()
    # a directory given as --out is refused before any work too
    assert run_cli(args + ["--out", str(tmp_path)]) == 1
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("frame", ["rotating", "lab"])
@pytest.mark.parametrize("command", ["sweep-phi", "sweep-time"])
def test_repeated_r_block_is_served_warm_and_matches_cold_points(tmp_path, capsys, cold,
                                                                 command, frame):
    # the third block repeats the first r, so its runs hit the caches the
    # first block filled; every block equals runs made from cold caches
    r_list, points = [1000.0, 500.0, 1000.0], 5
    args = [command, "--config", write_config(tmp_path, ROW_CFG), "--engine",
            "simulated", "--frame", frame, "--points", str(points),
            "--r-list", ",".join(map(str, r_list))]
    assert run_cli(args) == 0
    data = capsys.readouterr().out.split("\n")[2:-1]
    blocks = [data[i * points:(i + 1) * points] for i in range(len(r_list))]
    assert blocks[0] == blocks[2]
    assert data == row_reference(command, "simulated", frame, points, r_list, clear=cold)


@pytest.mark.parametrize("source", ["option", "config"])
def test_points_below_two_names_its_source(tmp_path, capsys, source):
    if source == "option":
        args, named, unnamed = ["--points", "-5"], "--points", "sweep.count"
    else:
        cfg = write_config(tmp_path, {"sweep": {"count": 1}})
        args, named, unnamed = ["--config", cfg], "sweep.count", "--points"
    assert run_cli(["sweep-phi", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert named in captured.err and unnamed not in captured.err


@pytest.mark.parametrize("command", ["sweep-time", "simulate"])
def test_out_matches_stdout(tmp_path, capsys, command):
    cfg = {
        "decay": {"k": 1000.0, "r": 600.0},
        "protocol": {"T": 2e-4},
        "sweep": {"count": 4, "r_list": [1000.0, 400.0]},
    }
    args = [command, "--config", write_config(tmp_path, cfg)]
    assert run_cli(args) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "out.txt"
    assert run_cli(args + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode("utf-8")


def test_engines_agree(capsys):
    assert (
        run_cli(
            ["sweep-phi", "--points", "7", "--r-list", "800", "--engine", "both"]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().split("\n")[2:]
    analytic = [l.split(",") for l in lines if l.endswith(",analytic")]
    simulated = [l.split(",") for l in lines if l.endswith(",simulated")]
    assert len(analytic) == len(simulated) == 7
    for ra, rs in zip(analytic, simulated):
        assert ra[:2] == rs[:2]
        assert abs(float(ra[2]) - float(rs[2])) < 1e-6


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_zero_dissipation(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "decay": {"k": 0.0, "r": 0.0, "gamma": 0.0},
            "protocol": {"theta": 2.0, "phi": 1.0, "T": 1e-3, "kind": "two_cavity"},
        },
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["p_e"] == pytest.approx(1.0, abs=1e-9)
    assert result["p_e_analytic"] == pytest.approx(1.0, abs=1e-12)
    assert result["prep_fidelity"] >= 1 - 1e-9
    assert result["config"]["protocol"]["kind"] == "two_cavity"


def test_simulate_single_cavity(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "decay": {"k": 1000.0, "r": 1000.0, "gamma": pi / 2},
            "protocol": {"T": 1e-3, "kind": "single_cavity", "variant": "resonant",
                         "engine": "simulated"},
        },
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    result = json.loads(capsys.readouterr().out)
    assert "p_e_analytic" not in result
    assert result["p_e"] == pytest.approx(1.0, abs=1e-6)


def test_simulate_requires_config(capsys):
    assert run_cli(["simulate"]) == 1
    assert "config" in capsys.readouterr().err


def test_bad_config_fields_exit_1(tmp_path, capsys):
    bad = [
        {"decay": {"k": -5.0}},
        {"decay": {"k": 100.0, "r": 200.0}},
        {"protocol": {"kind": "three_cavity"}},
        {"protocol": {"G": 0.0}},
    ]
    for cfg in bad:
        path = write_config(tmp_path, cfg)
        assert run_cli(["simulate", "--config", path]) == 1
        assert "error:" in capsys.readouterr().err


def assert_one_error_line(err):
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep-phi", "sweep-time"])
@pytest.mark.parametrize("engine", ["analytic", "simulated"])
@pytest.mark.parametrize("source", ["option", "config"])
def test_sweep_r_out_of_range_exit_1(tmp_path, capsys, command, engine, source):
    # a negative r would be folded into the phase gamma + pi and the rows
    # mislabelled, so it is rejected before any engine runs
    # the message names where the rates came from
    if source == "option":
        args, named, unnamed = ["--r-list=-500"], "--r-list", "sweep.r_list"
    else:
        args = ["--config", write_config(tmp_path, {"sweep": {"r_list": [-500]}})]
        named, unnamed = "sweep.r_list", "--r-list"
    assert run_cli([command, "--engine", engine, "--points", "3", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert named in captured.err and unnamed not in captured.err


@pytest.mark.parametrize(
    "cfg",
    [
        {"sweep": {"r_list": "12"}},
        {"sweep": {"r_list": 5}},
        {"sweep": []},
        {"protocol": {"T": None}},
    ],
    ids=["r_list-string", "r_list-number", "sweep-list", "T-null"],
)
def test_malformed_config_exit_1_one_line(tmp_path, capsys, cfg):
    path = write_config(tmp_path, cfg)
    assert run_cli(["sweep-phi", "--points", "3", "--config", path]) == 1
    assert_one_error_line(capsys.readouterr().err)


def test_sweep_config_fuzz_exit_0_or_1(tmp_path, capsys):
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=4),
        st.integers(-3000, 3000),
        st.floats(-3000.0, 3000.0),
        st.sampled_from([nan, inf, -inf]),
    )
    values = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.text(max_size=3), inner, max_size=3),
        ),
        max_leaves=6,
    )
    # count stays small so that no draw asks for a huge grid
    count = st.one_of(
        st.integers(-2, 9), st.floats(-2.0, 9.0), st.none(), st.text(max_size=2)
    )

    def section(fields):
        return st.one_of(values, st.fixed_dictionaries({}, optional=fields))

    configs = st.fixed_dictionaries(
        {},
        optional={
            "decay": section({key: values for key in ("k", "r", "gamma", "omega")}),
            "protocol": section(
                {key: values for key in ("G", "theta", "phi", "T", "Omega", "delta")}
            ),
            "sweep": section(
                {"start": values, "stop": values, "count": count,
                 "r_list": st.one_of(values, st.lists(scalars, max_size=3))}
            ),
        },
    )

    @settings(
        max_examples=200, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture,
                               HealthCheck.too_slow],
    )
    @given(command=st.sampled_from(["sweep-phi", "sweep-time"]), cfg=configs)
    def check(command, cfg):
        path = write_config(tmp_path, cfg)
        rc = run_cli([command, "--engine", "analytic", "--config", path])
        err = capsys.readouterr().err
        assert rc in (0, 1)
        if rc == 1:
            assert_one_error_line(err)
        else:
            assert err == ""

    check()


def test_bad_json_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli(["sweep-phi", "--config", str(path)]) == 1


def test_overflow_exit_1_one_line(tmp_path, capsys):
    # cosh(r*T) overflows a float at r*T = 1e3
    path = write_config(
        tmp_path, {"decay": {"k": 1000, "gamma": 1.0}, "sweep": {"stop": 1.0}}
    )
    assert run_cli(["sweep-time", "--config", path]) == 1
    assert_one_error_line(capsys.readouterr().err)


def test_simulate_rejects_unknown_engine(tmp_path, capsys):
    path = write_config(tmp_path, {"protocol": {"engine": "foo", "T": 1e-4}})
    assert run_cli(["simulate", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "protocol.engine" in captured.err


# at k = r the slow normal mode does not decay: after a window of 1 s or
# longer the resonant single-cavity probability is (1 + sin gamma)^2 / 4,
# while cosh(r T) in the closed form overflows a float
DFS_LIMIT = {"decay": {"k": 1000.0, "r": 1000.0, "gamma": 1.0}}
P_E_DFS = (1 + sin(1.0)) ** 2 / 4


@pytest.mark.parametrize("T", [1.0, 1e3, 1e308])
def test_simulated_engine_answers_where_closed_form_overflows(tmp_path, capsys, T):
    protocol = {"T": T, "kind": "single_cavity", "engine": "simulated"}
    path = write_config(tmp_path, {**DFS_LIMIT, "protocol": protocol})
    assert run_cli(["simulate", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["p_e"] == pytest.approx(
        P_E_DFS, abs=1e-9
    )

    path = write_config(tmp_path, {**DFS_LIMIT, "sweep": {"stop": T}})
    args = ["sweep-time", "--engine", "simulated", "--r-list", "1000",
            "--points", "2", "--config", path]
    assert run_cli(args) == 0
    last = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    assert float(last[0]) == T
    assert float(last[2]) == pytest.approx(P_E_DFS, abs=1e-9)


@pytest.mark.parametrize("engine", ["analytic", "both"])
def test_closed_form_overflow_exit_1_one_line(tmp_path, capsys, engine):
    protocol = {"T": 1.0, "kind": "single_cavity", "engine": engine}
    path = write_config(tmp_path, {**DFS_LIMIT, "protocol": protocol})
    assert run_cli(["simulate", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "OverflowError" in captured.err


def test_validate_zero_dissipation_profile(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["validate", "--profile", "zero-dissipation", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])
    err = capsys.readouterr().err
    assert "[pass]" in err and "FAIL" not in err


def test_validate_exit_2_on_failure(monkeypatch, capsys):
    import crosscav.cli as cli

    fake = {
        "passed": False,
        "profile": "default",
        "checks": [
            {"name": "stub", "passed": False, "max_deviation": 1.0, "tolerance": 1e-6}
        ],
    }
    monkeypatch.setattr(cli, "run_validation", lambda profile: dict(fake))
    assert run_cli(["validate"]) == 2
    assert "[FAIL] stub" in capsys.readouterr().err


def test_dfs_check_mutation_hook_fails():
    params = SymmetricDecayParameters(1000.0, 1000.0, pi / 2)
    good = check_dfs_preservation(params, T=2e-4)
    assert good["passed"]
    mutated = check_dfs_preservation(params, state_gamma=pi / 2 + pi, T=2e-4)
    assert not mutated["passed"]
