"""Command-line front end: sweeps, single runs, validation.

All rates are in 1/s, times in seconds, angles in radians.  CSV goes to
stdout (or --out), diagnostics to stderr.  Output is deterministic:
fixed 15-significant-digit scientific notation, LF endings, stable row
order (engines, then the r list as given, then the swept value ascending).
Sweeps evaluate their points one after another in the calling thread;
--jobs is accepted for compatibility and has no effect.  A sweep works on
one (engine, r) block at a time: each engine gives a block function
(r, xs) -> value columns, and work that does not depend on r (the
analytic sweep-phi's PreparedStateParams) is done once per command.  The
swept values are formatted once per command, r and the engine once per
block, and each value column once per block, in one `%` pass per _CHUNK
values; a column bit-for-bit equal to the same column of the block
before (p_e_nr of an analytic sweep-time, which does not depend on r)
reuses that block's strings.  Rows are joined _CHUNK at a time, so no
block-sized list of row or value strings is held.  Nothing is written
until every block is done, so an error in any block leaves stdout empty
and creates no --out file.  An --out path whose directory is missing
fails before any work.

Exit codes: 0 success, 1 usage or configuration error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from itertools import repeat, zip_longest
from math import isfinite, pi
from operator import sub
from struct import pack

import numpy as np

from . import __version__
from .analytic import (
    PreparedStateParams,
    prob_e_single_cavity_detuned,
    prob_e_single_cavity_resonant,
    prob_e_two_cavity,
)
from .liouvillian import SymmetricDecayParameters
from .protocol import ProtocolConfig, run_single_cavity, run_two_cavity
from .validate import run_validation

_FMT = "%.14e"  # 15 significant digits
# sweep rows per output string: bounds the value strings split at once
_CHUNK = 1024


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return _FMT % float(x)


def _require(cond, field, message):
    if not cond:
        raise UsageError(f"config field {field!r}: {message}")


def _number(value, field, cast=float):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"config field {field!r}: must be a number ({exc})") from exc


def _section(cfg, name):
    sec = cfg.get(name, {})
    _require(isinstance(sec, dict), name, "must be an object")
    return sec


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config root must be a JSON object")
    return cfg


def _decay_from_config(cfg, r_override=None):
    sec = _section(cfg, "decay")
    k = _number(sec.get("k", 1000.0), "decay.k")
    r = _number(r_override if r_override is not None else sec.get("r", 0.0), "decay.r")
    gamma = _number(sec.get("gamma", pi / 2), "decay.gamma")
    omega = _number(sec.get("omega", 0.0), "decay.omega")
    _require(k >= 0, "decay.k", "must be non-negative")
    _require(0 <= r <= k, "decay.r", f"must satisfy 0 <= r <= k (k={k})")
    return SymmetricDecayParameters(k, r, gamma, omega)


def _protocol_from_config(cfg, decay):
    sec = _section(cfg, "protocol")
    G = _number(sec.get("G", 2 * pi * 25e3), "protocol.G")
    theta = _number(sec.get("theta", pi / 4), "protocol.theta")
    phi = _number(sec.get("phi", pi / 2), "protocol.phi")
    T = _number(sec.get("T", 500e-6), "protocol.T")
    _require(G > 0, "protocol.G", "must be positive")
    _require(T >= 0, "protocol.T", "must be non-negative")
    kwargs = {
        key: _number(sec[key], f"protocol.{key}")
        for key in ("Omega", "delta")
        if key in sec
    }
    return ProtocolConfig(G=G, decay=decay, theta=theta, phi=phi, T=T, **kwargs)


def _r_list(args, cfg, default, k):
    """Cross rates from --r-list or sweep.r_list, each within [0, k].

    An error names the source the rates came from.
    """
    if args.r_list:
        try:
            r_list = [float(v) for v in args.r_list.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise UsageError(f"bad --r-list: {exc}") from exc
        source = "--r-list"
    else:
        r_list = _section(cfg, "sweep").get("r_list", default)
        _require(isinstance(r_list, list), "sweep.r_list", "must be a list of numbers")
        r_list = [_number(r, "sweep.r_list") for r in r_list]
        source = "config field 'sweep.r_list'"
    if not r_list:
        raise UsageError(f"{source}: must hold at least one cross rate")
    for r in r_list:
        if not 0 <= r <= k:
            raise UsageError(f"{source}: must satisfy 0 <= r <= k (k={k})")
    return r_list


def _sweep_range(args, cfg, default_start, default_stop):
    sec = _section(cfg, "sweep")
    start = _number(sec.get("start", default_start), "sweep.start")
    stop = _number(sec.get("stop", default_stop), "sweep.stop")
    if args.points is not None:
        count = args.points
        if count < 2:
            raise UsageError(f"--points must be at least 2, got {count}")
    else:
        count = _number(sec.get("count", 201), "sweep.count", int)
        _require(count >= 2, "sweep.count", "must be at least 2")
    _require(isfinite(stop - start), "sweep.start", "the range must be finite")
    _require(start < stop, "sweep.start", "must be below sweep.stop")
    return np.linspace(start, stop, count)


def _format_chunks(values):
    """`values` as `%.14e` strings joined by "\n", one string per _CHUNK
    values, each made in one `%` pass."""
    parts = [values[i:i + _CHUNK] for i in range(0, len(values), _CHUNK)]
    return ["\n".join([_FMT] * len(part)) % tuple(part) for part in parts]


def _formatted(values, before):
    """(bits, formatted chunks) of a value column: those of `before`, the
    same column of the block before, when its floats are bit-for-bit these
    (bits, not ==, decide, so -0.0 never takes the strings of 0.0)."""
    bits = pack(f"{len(values)}d", *values)
    if before is not None and before[0] == bits:
        return before
    return bits, _format_chunks(values)


def _sweep_blocks(engine, blocks, r_list, grid):
    """CSV data rows in order: engine (in the order of `blocks`), then the
    r list as given, then the grid ascending, as strings of up to _CHUNK
    rows each.

    `blocks` maps each engine to a function (r, xs) -> value columns,
    called once per (engine, r) block with the grid as a list of floats.
    The grid column is formatted once and r once per block; each value
    column is formatted once per block unless `_formatted` reuses the
    strings of the block before.  Formatted columns are kept as one string
    per chunk and split only while that chunk's rows are joined.
    """
    engines = list(blocks) if engine == "both" else [engine]
    xs = grid.tolist()
    x_chunks = _format_chunks(xs)
    chunks = []
    previous = []  # (bits, formatted chunks) of each value column of the block before
    for e in engines:
        for r in r_list:
            previous = [_formatted(values, before)
                        for values, before in zip_longest(blocks[e](r, xs), previous)]
            r_text = _FMT % r
            for x_part, *parts in zip(x_chunks, *(c for _, c in previous)):
                rows = zip(x_part.split("\n"), repeat(r_text),
                           *(part.split("\n") for part in parts), repeat(e))
                chunks.append("\n".join(map(",".join, rows)))
    return chunks


def _check_out(path):
    """Fail before any work when --out names a directory or one that is missing."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise UsageError(f"cannot write --out {path}: no directory {directory}")
    if os.path.isdir(path):
        raise UsageError(f"cannot write --out {path}: it is a directory")


def _write(args, lines):
    """Write LF-terminated lines to --out, or to stdout."""
    if args.out:
        target = open(args.out, "w", encoding="utf-8", newline="\n")
    else:
        target = nullcontext(sys.stdout)
    with target as out:
        for line in lines:  # no line + "\n" copy of a run of sweep rows
            out.write(line)
            out.write("\n")


def _meta_line(command, params):
    fields = " ".join(f"{k}={v}" for k, v in params.items())
    return f"# crosscav-{__version__} {command} {fields}"


def cmd_sweep_phi(args):
    cfg = _load_config(args.config)
    phis = _sweep_range(args, cfg, 0.0, 2 * pi)
    base_decay = _decay_from_config(cfg, r_override=0.0)
    proto = _protocol_from_config(cfg, base_decay)
    k, gamma = base_decay.k, base_decay.gamma
    theta, T = proto.theta, proto.T
    r_list = _r_list(args, cfg, [500.0, 750.0, 1000.0], k)

    # per command, not per r; the simulated engine needs no params
    params = (
        [] if args.engine == "simulated"
        else [PreparedStateParams(theta, phi) for phi in phis.tolist()]
    )

    def analytic_block(r, xs):
        return ([prob_e_two_cavity(p, k, r, gamma, T) for p in params],)

    def simulated_block(r, xs):
        at_r = replace(proto, decay=replace(base_decay, r=r))
        return ([
            run_two_cavity(replace(at_r, phi=phi), readout="overlap",
                           frame=args.frame).p_e
            for phi in xs
        ],)

    meta = _meta_line(
        "sweep-phi",
        {
            "k": _fmt(k), "gamma": _fmt(gamma), "theta": _fmt(theta),
            "T": _fmt(T), "r_list": ",".join(_fmt(r) for r in r_list),
            "points": len(phis), "phi_start": _fmt(phis[0]),
            "phi_stop": _fmt(phis[-1]), "engine": args.engine,
            "frame": args.frame,
        },
    )
    blocks = {"analytic": analytic_block, "simulated": simulated_block}
    rows = _sweep_blocks(args.engine, blocks, r_list, phis)
    _write(args, [meta, "phi_rad,r_per_s,p_e,engine", *rows])
    return 0


def cmd_sweep_time(args):
    cfg = _load_config(args.config)
    times = _sweep_range(args, cfg, 0.0, 2e-3)
    base_decay = _decay_from_config(cfg, r_override=0.0)
    proto = _protocol_from_config(cfg, base_decay)
    k, gamma = base_decay.k, base_decay.gamma
    r_list = _r_list(args, cfg, [500.0, 900.0, 1000.0], k)

    def analytic_block(r, xs):
        p_r = [prob_e_single_cavity_resonant(k, r, gamma, T) for T in xs]
        p_nr = [prob_e_single_cavity_detuned(k, T) for T in xs]
        return p_r, p_nr, list(map(sub, p_r, p_nr))

    def simulated_block(r, xs):
        at_r = replace(proto, decay=replace(base_decay, r=r))
        p_r, p_nr = [], []
        for T in xs:
            c = replace(at_r, T=T)
            p_r.append(run_single_cavity(c, variant="resonant", frame=args.frame).p_e)
            p_nr.append(run_single_cavity(c, variant="detuned", frame=args.frame).p_e)
        return p_r, p_nr, list(map(sub, p_r, p_nr))

    meta = _meta_line(
        "sweep-time",
        {
            "k": _fmt(k), "gamma": _fmt(gamma),
            "r_list": ",".join(_fmt(r) for r in r_list),
            "points": len(times), "T_start": _fmt(times[0]),
            "T_stop": _fmt(times[-1]), "engine": args.engine,
            "frame": args.frame,
        },
    )
    blocks = {"analytic": analytic_block, "simulated": simulated_block}
    rows = _sweep_blocks(args.engine, blocks, r_list, times)
    _write(args, [meta, "T_s,r_per_s,p_e_r,p_e_nr,D,engine", *rows])
    return 0


def cmd_simulate(args):
    if args.config is None:
        raise UsageError("simulate requires --config")
    cfg = _load_config(args.config)
    decay = _decay_from_config(cfg)
    proto = _protocol_from_config(cfg, decay)
    sec = cfg.get("protocol", {})
    kind = sec.get("kind", "two_cavity")
    engine = sec.get("engine", args.engine)
    _require(
        kind in ("two_cavity", "single_cavity"),
        "protocol.kind",
        "must be 'two_cavity' or 'single_cavity'",
    )
    _require(
        engine in ("analytic", "simulated", "both"),
        "protocol.engine",
        "must be 'analytic', 'simulated' or 'both'",
    )
    k, r, gamma, T = decay.k, decay.r, decay.gamma, proto.T
    if kind == "two_cavity":
        readout = sec.get("readout", "overlap")
        _require(
            readout in ("overlap", "explicit"),
            "protocol.readout",
            "must be 'overlap' or 'explicit'",
        )
        record = run_two_cavity(proto, readout=readout, frame=args.frame)
        params = PreparedStateParams(proto.theta, proto.phi)
        closed_form = partial(prob_e_two_cavity, params, k, r, gamma, T)
    else:
        variant = sec.get("variant", "resonant")
        _require(
            variant in ("resonant", "detuned"),
            "protocol.variant",
            "must be 'resonant' or 'detuned'",
        )
        record = run_single_cavity(proto, variant=variant, frame=args.frame)
        if variant == "resonant":
            closed_form = partial(prob_e_single_cavity_resonant, k, r, gamma, T)
        else:
            closed_form = partial(prob_e_single_cavity_detuned, k, T)

    result = record.summary()
    # the simulation runs for every engine; only the closed form is optional
    if engine != "simulated":
        result["p_e" if engine == "analytic" else "p_e_analytic"] = closed_form()
    result["config"] = {
        "decay": {"k": decay.k, "r": decay.r, "gamma": decay.gamma,
                  "omega": decay.omega},
        "protocol": {"G": proto.G, "theta": proto.theta, "phi": proto.phi,
                     "T": proto.T, "kind": kind},
        "frame": args.frame,
        "engine": engine,
    }
    _write(args, [json.dumps(result, indent=2, sort_keys=True)])
    return 0


def cmd_validate(args):
    t0 = time.time()
    report = run_validation(args.profile)
    report["elapsed_s"] = round(time.time() - t0, 3)
    _write(args, [json.dumps(report, indent=2, sort_keys=True)])
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(
            f"[{status}] {check['name']}: max deviation "
            f"{check['max_deviation']:.3e} (tolerance {check['tolerance']:.1e})",
            file=sys.stderr,
        )
    return 0 if report["passed"] else 2


def build_parser():
    parser = _Parser(
        prog="crosscav",
        description="Two dissipative cavity modes with cross decay rates: "
        "sweeps, protocol simulation, and validation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, engine_default="analytic"):
        p.add_argument("--config", help="JSON config with decay/protocol/sweep sections")
        p.add_argument(
            "--engine", choices=["analytic", "simulated", "both"],
            default=engine_default,
        )
        p.add_argument("--frame", choices=["lab", "rotating"], default="rotating")
        p.add_argument("--out", help="write output to this file instead of stdout")

    for name, text, func in (
        ("sweep-phi", "detection probability versus phi", cmd_sweep_phi),
        ("sweep-time", "discriminator D versus the window T", cmd_sweep_time),
    ):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--points", type=int, default=None)
        p.add_argument("--r-list", help="comma-separated cross rates in 1/s")
        p.add_argument(
            "--jobs", type=int,
            help="accepted for compatibility; has no effect (sweeps run serially)",
        )
        p.set_defaults(func=func)

    p = sub.add_parser("simulate", help="run one protocol from a config file")
    common(p, engine_default="both")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="run the cross-validation suite")
    p.add_argument("--profile", choices=["default", "zero-dissipation"],
                   default="default")
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except (UsageError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        # OSError: e.g. an --out path that cannot be opened for writing;
        # MemoryError: e.g. a sweep grid too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # e.g. a closed form overflowing a float
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
