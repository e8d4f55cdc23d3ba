"""Command-line front end: sweeps, single runs, validation.

All rates are in 1/s, times in seconds, angles in radians.  CSV goes to
stdout (or --out), diagnostics to stderr.  Output is deterministic:
fixed 15-significant-digit scientific notation, LF endings, stable row
order (engines, then the r list as given, then the swept value ascending).

Exit codes: 0 success, 1 usage or configuration error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from math import pi

import numpy as np

from . import __version__
from .analytic import (
    PreparedStateParams,
    discriminator_D,
    prob_e_single_cavity_detuned,
    prob_e_single_cavity_resonant,
    prob_e_two_cavity,
)
from .liouvillian import SymmetricDecayParameters
from .protocol import ProtocolConfig, run_single_cavity, run_two_cavity
from .validate import run_validation

_FMT = "%.14e"  # 15 significant digits


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
    sec = cfg.get("decay", {})
    _require(isinstance(sec, dict), "decay", "must be an object")
    k = float(sec.get("k", 1000.0))
    r = float(r_override if r_override is not None else sec.get("r", 0.0))
    gamma = float(sec.get("gamma", pi / 2))
    omega = float(sec.get("omega", 0.0))
    _require(k >= 0, "decay.k", "must be non-negative")
    _require(0 <= r <= k, "decay.r", f"must satisfy 0 <= r <= k (k={k})")
    return SymmetricDecayParameters(k, r, gamma, omega)


def _protocol_from_config(cfg, decay):
    sec = cfg.get("protocol", {})
    _require(isinstance(sec, dict), "protocol", "must be an object")
    G = float(sec.get("G", 2 * pi * 25e3))
    theta = float(sec.get("theta", pi / 4))
    phi = float(sec.get("phi", pi / 2))
    T = float(sec.get("T", 500e-6))
    _require(G > 0, "protocol.G", "must be positive")
    _require(T >= 0, "protocol.T", "must be non-negative")
    kwargs = {}
    if "Omega" in sec:
        kwargs["Omega"] = float(sec["Omega"])
    if "delta" in sec:
        kwargs["delta"] = float(sec["delta"])
    return ProtocolConfig(G=G, decay=decay, theta=theta, phi=phi, T=T, **kwargs)


def _parse_r_list(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad --r-list: {exc}") from exc
    if not values:
        raise UsageError("--r-list must contain at least one value")
    return values


def _sweep_range(args, cfg, default_start, default_stop):
    sec = cfg.get("sweep", {})
    start = float(sec.get("start", default_start))
    stop = float(sec.get("stop", default_stop))
    count = int(args.points if args.points is not None else sec.get("count", 201))
    _require(count >= 2, "sweep.count", "must be at least 2")
    _require(start < stop, "sweep.start", "must be below sweep.stop")
    return np.linspace(start, stop, count)


def _open_out(args):
    if args.out:
        return open(args.out, "w", encoding="utf-8", newline="\n")
    return sys.stdout


def _emit(out, lines):
    for line in lines:
        out.write(line + "\n")


def _engines(engine):
    if engine == "both":
        return ["analytic", "simulated"]
    return [engine]


def _meta_line(command, params):
    fields = " ".join(f"{k}={v}" for k, v in params.items())
    return f"# crosscav-{__version__} {command} {fields}"


def cmd_sweep_phi(args):
    cfg = _load_config(args.config)
    r_list = _parse_r_list(args.r_list) if args.r_list else list(
        cfg.get("sweep", {}).get("r_list", [500.0, 750.0, 1000.0])
    )
    phis = _sweep_range(args, cfg, 0.0, 2 * pi)
    base_decay = _decay_from_config(cfg, r_override=0.0)
    proto = _protocol_from_config(cfg, base_decay)
    k, gamma = base_decay.k, base_decay.gamma
    theta, T = proto.theta, proto.T

    def analytic_point(r, phi):
        return prob_e_two_cavity(PreparedStateParams(theta, phi), k, r, gamma, T)

    def simulated_point(r, phi):
        dec = SymmetricDecayParameters(k, r, gamma, base_decay.omega)
        c = ProtocolConfig(
            G=proto.G, decay=dec, theta=theta, phi=phi, T=T,
            Omega=proto.Omega, delta=proto.delta,
        )
        return run_two_cavity(c, readout="overlap", frame=args.frame).p_e

    lines = [
        _meta_line(
            "sweep-phi",
            {
                "k": _fmt(k), "gamma": _fmt(gamma), "theta": _fmt(theta),
                "T": _fmt(T), "r_list": ",".join(_fmt(r) for r in r_list),
                "points": len(phis), "phi_start": _fmt(phis[0]),
                "phi_stop": _fmt(phis[-1]), "engine": args.engine,
                "frame": args.frame,
            },
        ),
        "phi_rad,r_per_s,p_e,engine",
    ]
    for engine in _engines(args.engine):
        point = analytic_point if engine == "analytic" else simulated_point
        for r in r_list:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                values = list(pool.map(lambda p: point(r, p), phis))
            for phi, p_e in zip(phis, values):
                lines.append(f"{_fmt(phi)},{_fmt(r)},{_fmt(p_e)},{engine}")
    out = _open_out(args)
    try:
        _emit(out, lines)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_sweep_time(args):
    cfg = _load_config(args.config)
    r_list = _parse_r_list(args.r_list) if args.r_list else list(
        cfg.get("sweep", {}).get("r_list", [500.0, 900.0, 1000.0])
    )
    times = _sweep_range(args, cfg, 0.0, 2e-3)
    base_decay = _decay_from_config(cfg, r_override=0.0)
    proto = _protocol_from_config(cfg, base_decay)
    k, gamma = base_decay.k, base_decay.gamma

    def analytic_point(r, T):
        return (
            prob_e_single_cavity_resonant(k, r, gamma, T),
            prob_e_single_cavity_detuned(k, T),
        )

    def simulated_point(r, T):
        dec = SymmetricDecayParameters(k, r, gamma, base_decay.omega)
        c = ProtocolConfig(
            G=proto.G, decay=dec, theta=proto.theta, phi=proto.phi, T=T,
            Omega=proto.Omega, delta=proto.delta,
        )
        return (
            run_single_cavity(c, variant="resonant", frame=args.frame).p_e,
            run_single_cavity(c, variant="detuned", frame=args.frame).p_e,
        )

    lines = [
        _meta_line(
            "sweep-time",
            {
                "k": _fmt(k), "gamma": _fmt(gamma),
                "r_list": ",".join(_fmt(r) for r in r_list),
                "points": len(times), "T_start": _fmt(times[0]),
                "T_stop": _fmt(times[-1]), "engine": args.engine,
                "frame": args.frame,
            },
        ),
        "T_s,r_per_s,p_e_r,p_e_nr,D,engine",
    ]
    for engine in _engines(args.engine):
        point = analytic_point if engine == "analytic" else simulated_point
        for r in r_list:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                values = list(pool.map(lambda t: point(r, t), times))
            for T, (p_r, p_nr) in zip(times, values):
                lines.append(
                    f"{_fmt(T)},{_fmt(r)},{_fmt(p_r)},{_fmt(p_nr)},"
                    f"{_fmt(p_r - p_nr)},{engine}"
                )
    out = _open_out(args)
    try:
        _emit(out, lines)
    finally:
        if out is not sys.stdout:
            out.close()
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
    if kind == "two_cavity":
        readout = sec.get("readout", "overlap")
        _require(
            readout in ("overlap", "explicit"),
            "protocol.readout",
            "must be 'overlap' or 'explicit'",
        )
        record = run_two_cavity(proto, readout=readout, frame=args.frame)
    else:
        variant = sec.get("variant", "resonant")
        _require(
            variant in ("resonant", "detuned"),
            "protocol.variant",
            "must be 'resonant' or 'detuned'",
        )
        record = run_single_cavity(proto, variant=variant, frame=args.frame)

    result = record.summary()
    result["config"] = {
        "decay": {"k": decay.k, "r": decay.r, "gamma": decay.gamma,
                  "omega": decay.omega},
        "protocol": {"G": proto.G, "theta": proto.theta, "phi": proto.phi,
                     "T": proto.T, "kind": kind},
        "frame": args.frame,
        "engine": engine,
    }
    if engine == "analytic":
        result["p_e"] = result.pop("p_e_analytic")
    elif engine == "simulated":
        result.pop("p_e_analytic")
    # engine 'both' keeps both fields
    text = json.dumps(result, indent=2, sort_keys=True)
    out = _open_out(args)
    try:
        out.write(text + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_validate(args):
    t0 = time.time()
    report = run_validation(args.profile)
    report["elapsed_s"] = round(time.time() - t0, 3)
    text = json.dumps(report, indent=2, sort_keys=True)
    out = _open_out(args)
    try:
        out.write(text + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
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

    p = sub.add_parser("sweep-phi", help="detection probability versus phi")
    common(p)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--r-list", help="comma-separated cross rates in 1/s")
    p.add_argument("--jobs", type=int, default=4)
    p.set_defaults(func=cmd_sweep_phi)

    p = sub.add_parser("sweep-time", help="discriminator D versus the window T")
    common(p)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--r-list", help="comma-separated cross rates in 1/s")
    p.add_argument("--jobs", type=int, default=4)
    p.set_defaults(func=cmd_sweep_time)

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
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # e.g. a closed form overflowing a float
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
