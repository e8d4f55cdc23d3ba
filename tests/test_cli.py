import json
import os
import subprocess
import sys
from math import inf, nan, pi, sin
from pathlib import Path

import numpy as np
import pytest

import crosscav
import crosscav.integrator
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


@pytest.mark.parametrize("frame", ["rotating", "lab"])
@pytest.mark.parametrize("engine", ["analytic", "both"])
@pytest.mark.parametrize("command", ["sweep-phi", "sweep-time"])
def test_reused_columns_match_single_r_runs(tmp_path, capsys, command, engine, frame):
    # a column equal to the block before takes that block's strings (p_e_nr
    # of every analytic sweep-time block, every column of the repeated
    # r = 1000); each block must still be the rows of a run at its r alone
    r_list, points = [1000.0, 0.0, 450.0, 1000.0], 4
    args = [command, "--config", write_config(tmp_path, ROW_CFG), "--engine", engine,
            "--frame", frame, "--points", str(points)]

    def data_rows(rates):
        assert run_cli(args + ["--r-list", ",".join(map(str, rates))]) == 0
        return capsys.readouterr().out.split("\n")[2:-1]

    rows = data_rows(r_list)
    engines = ["analytic", "simulated"] if engine == "both" else ["analytic"]
    assert len(rows) == len(engines) * len(r_list) * points
    single = {r: data_rows([r]) for r in set(r_list)}
    for b, (e, r) in enumerate((e, r) for e in engines for r in r_list):
        block = rows[b * points:(b + 1) * points]
        assert block == [row for row in single[r] if row.endswith("," + e)]


@pytest.mark.parametrize("points", [1023, 1024, 1025, 2050])
@pytest.mark.parametrize("command", ["sweep-phi", "sweep-time"])
def test_rows_joined_in_chunks_match_row_reference(tmp_path, capsys, command, points):
    # rows are joined 256 at a time; full, partial and single-row last
    # chunks, with a reused column, give the bytes of row-at-a-time output
    r_list = [1000.0, 0.0, 1000.0]
    args = [command, "--config", write_config(tmp_path, ROW_CFG), "--engine", "analytic",
            "--points", str(points), "--r-list", ",".join(map(str, r_list))]
    assert run_cli(args) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    # as lists of rows: a failure names the first row that differs
    assert out.split("\n")[2:-1] == row_reference(command, "analytic", "rotating",
                                                  points, r_list)


def test_time_sweep_reads_one_at_t0_when_2k_overflows(tmp_path, capsys):
    # exp(-2 k T) once formed -2k = -inf first, and -inf * 0 is nan
    path = write_config(tmp_path, {"decay": {"k": 1e308}})
    assert run_cli(["sweep-time", "--config", path, "--points", "3", "--r-list", "0"]) == 0
    t0_row = capsys.readouterr().out.split("\n")[2]
    assert t0_row.split(",")[2:5] == ["1.00000000000000e+00", "1.00000000000000e+00",
                                      "0.00000000000000e+00"]


def test_column_reuse_tells_negative_zero_from_zero():
    # 0.0 == -0.0, but they print differently: only equal bits share strings
    from crosscav.cli import _sweep_blocks

    columns = {1.0: [0.0, 1.0], 2.0: [-0.0, 1.0], 3.0: [-0.0, 1.0]}
    rows = "\n".join(_sweep_blocks("e", {"e": lambda r, xs: (columns[r],)},
                                   [1.0, 2.0, 3.0], np.array([0.0, 1.0]),
                                   "x,r,v,engine")).split("\n")
    assert [row.split(",")[2] for row in rows[::2]] == [
        "0.00000000000000e+00", "-0.00000000000000e+00", "-0.00000000000000e+00"]


@pytest.mark.parametrize("points", [2, 5])
def test_analytic_sweeps_make_one_closed_form_call_per_point_and_r(monkeypatch, capsys,
                                                                   points):
    # the names in crosscav.cli are the ones a sweep calls; PreparedStateParams
    # is built once per phi for the whole command, not once per (phi, r)
    import crosscav.cli as cli

    calls = dict.fromkeys(("PreparedStateParams", "prob_e_two_cavity",
                           "prob_e_single_cavity_resonant",
                           "prob_e_single_cavity_detuned"), 0)

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    args = ["--engine", "analytic", "--points", str(points), "--r-list", "500,750,1000"]
    assert run_cli(["sweep-phi", *args]) == 0
    assert calls == {"PreparedStateParams": points, "prob_e_two_cavity": 3 * points,
                     "prob_e_single_cavity_resonant": 0,
                     "prob_e_single_cavity_detuned": 0}
    calls.update(dict.fromkeys(calls, 0))
    assert run_cli(["sweep-time", *args]) == 0
    assert calls == {"PreparedStateParams": 0, "prob_e_two_cavity": 0,
                     "prob_e_single_cavity_resonant": 3 * points,
                     "prob_e_single_cavity_detuned": 3 * points}
    capsys.readouterr()


def test_a_long_simulated_time_sweep_keeps_its_detuned_windows_for_every_r(capsys, cold,
                                                                        monkeypatch):
    # 400 windows of nonzero length per r for 3 r, plus 400 detuned ones that
    # every r shares: the detuned generator's plan keeps all of them
    calls = []
    expm_dense = crosscav.integrator._expm_dense
    monkeypatch.setattr(crosscav.integrator, "_expm_dense",
                        lambda *args: calls.append(args) or expm_dense(*args))
    assert run_cli(["sweep-time", "--engine", "simulated", "--points", "401"]) == 0
    capsys.readouterr()
    assert len(calls) == 1600


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


@pytest.mark.parametrize("count", [3.9, 4.5, 2.000001, True, False])
def test_non_integral_sweep_count_is_refused(tmp_path, capsys, count):
    # int() would run 3.9 as 3 points and true as 1
    cfg = write_config(tmp_path, {"sweep": {"count": count}})
    assert run_cli(["sweep-phi", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "config field 'sweep.count'" in captured.err


@pytest.mark.parametrize("count", [4, 4.0])
def test_integral_sweep_count_runs_that_many_points(tmp_path, capsys, count):
    cfg = write_config(tmp_path, {"sweep": {"count": count, "r_list": [1000.0]}})
    assert run_cli(["sweep-phi", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out.split("\n")[2:-1]) == 4


@pytest.mark.parametrize("field", [
    "decay.k", "decay.r", "decay.gamma", "decay.omega", "protocol.G", "protocol.theta",
    "protocol.phi", "protocol.T", "protocol.Omega", "protocol.delta", "sweep.start",
    "sweep.stop", "sweep.r_list", "sweep.count",
])
def test_boolean_numeric_config_field_is_refused(tmp_path, capsys, field):
    # float() and int() would read true as 1
    section, key = field.split(".")
    value = [True, 500.0] if key == "r_list" else True
    cfg = write_config(tmp_path, {section: {key: value}})
    command = "sweep-phi" if section == "sweep" else "simulate"
    assert run_cli([command, "--config", cfg, "--engine", "analytic"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert f"config field '{field}'" in captured.err and "got True" in captured.err


def test_sweep_too_large_to_allocate_exit_1_one_line(capsys):
    # the 7.3 TiB grid is refused at once, so nothing is allocated
    assert run_cli(["sweep-phi", "--points", "1000000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)


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


# frequencies whose pulse or dispersive-wait Hamiltonian overflows a float,
# and decay rates whose generator assembly does: each printed
# RuntimeWarnings and then a misleading message
@pytest.mark.parametrize("cfg, frame", [
    ({"protocol": {"Omega": 1e308, "T": 1e-4}}, ["--frame", "lab"]),
    ({"protocol": {"Omega": 6e307, "delta": 1e308, "T": 1e-4}}, ["--frame", "lab"]),
    ({"decay": {"k": 1e308, "r": 1e308}, "protocol": {"T": 1e-4}}, []),
], ids=["pulse-frequency", "wait-frequency", "decay-rates"])
def test_overflowing_simulate_inputs_exit_1_one_line(tmp_path, capsys, cfg, frame):
    assert run_cli(["simulate", "--config", write_config(tmp_path, cfg)] + frame) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "overflow" in captured.err


def test_simulate_rejects_unknown_engine(tmp_path, capsys):
    path = write_config(tmp_path, {"protocol": {"engine": "foo", "T": 1e-4}})
    assert run_cli(["simulate", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "protocol.engine" in captured.err


@pytest.mark.parametrize("flag, field, expected", [
    ("simulated", "both", "simulated"),
    ("both", "simulated", "both"),
    ("analytic", None, "analytic"),
    (None, "simulated", "simulated"),
    (None, None, "both"),
])
def test_explicit_engine_wins_over_protocol_engine(tmp_path, capsys, flag, field, expected):
    # the order of --r-list and --points: the option, then the config
    # field, then the default
    protocol = {"T": 1e-4} if field is None else {"engine": field, "T": 1e-4}
    argv = ["simulate", "--config", write_config(tmp_path, {"protocol": protocol})]
    assert run_cli(argv + ([] if flag is None else ["--engine", flag])) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["config"]["engine"] == expected
    assert ("p_e_analytic" in result) == (expected == "both")


def test_explicit_engine_does_not_excuse_a_bad_protocol_engine(tmp_path, capsys):
    path = write_config(tmp_path, {"protocol": {"engine": "foo", "T": 1e-4}})
    assert run_cli(["simulate", "--engine", "simulated", "--config", path]) == 1
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


# at r = k the lab frame answers long windows only because each dense part
# takes its frame phase out of the squarings
def test_lab_frame_long_windows_match_the_rotating_frame(tmp_path, capsys):
    decay = {"k": 1000, "omega": 31415.9, "gamma": 0.9}
    path = write_config(tmp_path, {"decay": decay, "sweep": {"stop": 1000, "r_list": [1000]}})
    rows = {}
    for frame in ("rotating", "lab"):
        args = ["sweep-time", "--engine", "simulated", "--frame", frame, "--points", "3",
                "--config", path]
        assert run_cli(args) == 0, capsys.readouterr().err
        data = capsys.readouterr().out.strip().split("\n")[2:]
        rows[frame] = np.array([[float(x) for x in l.split(",")[:5]] for l in data])
    assert rows["lab"].shape == rows["rotating"].shape == (3, 5)
    np.testing.assert_allclose(rows["lab"], rows["rotating"], rtol=0, atol=1e-12)


def test_lab_frame_phase_overflow_exit_1_one_line(tmp_path, capsys):
    decay = {"k": 1000, "omega": 31415.9, "gamma": 0.9}
    path = write_config(tmp_path, {"decay": decay, "sweep": {"stop": 1e308, "r_list": [1000]}})
    args = ["sweep-time", "--engine", "simulated", "--points", "3", "--config", path]
    assert run_cli(args + ["--frame", "rotating"]) == 0
    capsys.readouterr()
    assert run_cli(args + ["--frame", "lab"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "overflows the frame phase" in captured.err


# a decayed state reads rounding residue as its probability: at r = 500 and
# T = 500 s the unclamped read-out printed p_e_r = -7.6e-60
@pytest.mark.parametrize("frame", ["rotating", "lab"])
def test_decayed_windows_print_no_negative_probability(tmp_path, capsys, frame):
    decay = {"k": 1000, "omega": 31415.9, "gamma": 0.9}
    path = write_config(tmp_path, {"decay": decay, "sweep": {"stop": 1000, "r_list": [500]}})
    args = ["sweep-time", "--engine", "simulated", "--frame", frame, "--points", "3",
            "--config", path]
    assert run_cli(args) == 0
    data = capsys.readouterr().out.strip().split("\n")[2:]
    probabilities = np.array([[float(x) for x in l.split(",")[2:4]] for l in data])
    assert probabilities.shape == (3, 2)
    assert (probabilities >= 0).all()


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
