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
block, and each value column once per block, into a byte matrix of
"%22.14e" rows: by an exact numpy kernel for a column of at least
_KERNEL_MIN values, by one `%` pass for a shorter one (`_column_rows`).
A column bit-for-bit equal to the same column of the block before (p_e_nr
of an analytic sweep-time, which does not depend on r) reuses that
block's rows.  Rows are built _CHUNK at a time as one byte matrix of the
columns, commas, r and the engine, whose text drops the padding spaces.
A non-finite value is an error naming its engine, column, r and swept
value.  Nothing is written until every block is done, so an error in any
block leaves stdout empty and creates no --out file.  An --out path whose
directory is missing fails before any work.

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
from functools import cache, partial
from itertools import zip_longest
from math import isfinite, ldexp, log10, pi
from operator import sub

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
_FMT22 = "%22.14e"  # the same, right-aligned in _WIDTH bytes
_WIDTH = 22
# sweep rows per output string.  Each chunk passes through three transient
# buffers of its size (matrix, bytes, text), and larger ones leave larger
# holes in the heap: sweep-analytic's peak RSS was 0.4 MB higher at 1024
# rows than at 256, at the same speed
_CHUNK = 256
# columns at least this long are formatted by the numpy kernel of
# _column_rows, shorter ones by `%` (measured crossover, see there)
_KERNEL_MIN = 128
# the kernel's tables cover 10^k and exponents e for |k|, |e| <= _E_TABLE
_E_TABLE = 300
_LOG10_2 = log10(2)
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's factor: splits a double into 26-bit halves
# one kernel output row: padding and sign, "d.dd" and three "dddd", "e+dd"
_ROW = np.dtype({"names": ["pad", "mantissa", "exponent"],
                 "formats": ["u2", ("u4", 4), "u4"],
                 "offsets": [0, 2, 18], "itemsize": _WIDTH})


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
        count = sec.get("count", 201)
        # int() would truncate 3.9 to 3 and read true as 1
        _require(not isinstance(count, bool)
                 and not (isinstance(count, float) and not count.is_integer()),
                 "sweep.count", f"must be a whole number, got {count!r}")
        count = _number(count, "sweep.count", int)
        _require(count >= 2, "sweep.count", "must be at least 2")
    _require(isfinite(stop - start), "sweep.start", "the range must be finite")
    _require(start < stop, "sweep.start", "must be below sweep.stop")
    return np.linspace(start, stop, count)


def _percent_rows(values):
    """`"%22.14e"` of each float of a list, as an (n, _WIDTH) uint8 matrix."""
    text = (_FMT22 * len(values)) % tuple(values)
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(values), _WIDTH)


@cache
def _pow10():
    """Columns (H, H_hi, H_lo, L) for 10^k, k = -_E_TABLE.._E_TABLE at row
    k + _E_TABLE: H is 10^k rounded, H + L is 10^k within 2^-103 10^k
    (where L is a normal float, |k| <= 290), and H_hi + H_lo = H split
    into 26-bit halves for Dekker's product."""
    table = np.empty((4, 2 * _E_TABLE + 1))
    for i, k in enumerate(range(-_E_TABLE, _E_TABLE + 1)):
        big = 10 ** abs(k)
        if k >= 0:
            h = float(big)  # int -> float and int / int are correctly rounded
            lo = float(big - int(h))
        else:
            h = 1 / big
            p, q = h.as_integer_ratio()  # q = 2^s
            lo = ldexp(float(q - p * big) / float(big), 1 - q.bit_length())
        c = _SPLIT * h
        hi = c - (c - h)
        table[:, i] = h, hi, h - hi, lo
    return table


@cache
def _digit_tables():
    """4-byte strings as uint32: "dddd" for 0..9999, "d.dd" for 0..999,
    and "e+dd"/"e-dd" (the tens and ones of |e|) for e = -_E_TABLE.._E_TABLE
    at e + _E_TABLE; and there the hundreds digit of |e| as a byte."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    four = np.empty((10, 10, 10, 10, 4), np.uint8)
    four[..., 0] = d[:, None, None, None]
    four[..., 1] = d[:, None, None]
    four[..., 2] = d[:, None]
    four[..., 3] = d
    dot = np.empty((10, 10, 10, 4), np.uint8)
    dot[..., 0] = d[:, None, None]
    dot[..., 1] = ord(".")
    dot[..., 2] = d[:, None]
    dot[..., 3] = d
    span = range(-_E_TABLE, _E_TABLE + 1)
    exponents = "".join("e%s%02d" % ("-" if e < 0 else "+", abs(e) % 100) for e in span)
    return (four.reshape(-1).view(np.uint32), dot.reshape(-1).view(np.uint32),
            np.frombuffer(exponents.encode("ascii"), np.uint32),
            np.frombuffer(bytes(ord("0") + abs(e) // 100 for e in span), np.uint8))


def _column_rows(v):
    """`"%22.14e" % x` for each x of a float64 array, as an (n, _WIDTH)
    uint8 matrix: the string right-aligned, left-padded with spaces.

    A column shorter than _KERNEL_MIN takes one `%` pass.  The numpy kernel
    below costs about 0.1 ms whatever the length, and `%` about 1 us a
    value, so the kernel pays from about 100 values on (measured on 2
    vCPUs).  The choice follows the column's length, a property of the
    input and not a setting: a simulated sweep's columns of tens of points
    keep `%`, an analytic sweep's thousands take the kernel.

    The kernel is exact.  For a = |x| it takes the decimal exponent e from
    frexp, corrected by comparing a with 10^(e+1), and forms
    y = a 10^(14-e) as a double-double: Dekker's TwoProduct of a and H
    plus a L, where H + L is 10^(14-e) split exactly with Python ints
    (`_pow10`).  For a in [1e-280, 1e280] every partial product is a
    normal float and the computed y is within 2^-50 of the exact one.  So
    rounding y to an integer N is decided correctly wherever y's fraction
    is more than 2^-20 from 1/2, and floor(y) can be wrong only within
    2^-50 of an integer, where either neighbour rounds to the same N.  N,
    15 digits, is cut into groups of 3, 4, 4 and 4 digits by exact float
    divisions and printed through 4-byte tables; N = 10^15 carries into
    the exponent.  A floor(y) outside [10^14, 10^15) means e was misjudged
    (a lay within rounding of a power of ten).  Every element the kernel
    cannot certify this way is redone by `%`: a fraction within 2^-20 of
    1/2 (ties included), floor(y) outside [10^14, 10^15), a outside
    [1e-280, 1e280], +-0, inf and nan.
    """
    n = len(v)
    if n < _KERNEL_MIN:
        return _percent_rows(v.tolist())
    H, H_hi, H_lo, L = _pow10()
    four, dot, exponents, hundreds = _digit_tables()
    a = np.abs(v)
    ok = a >= 1e-280
    ok &= a < 1e280
    a[~ok] = 1.0  # +-0, subnormals, the far ends, inf and nan: `%` redoes them
    e = np.frexp(a)[1] * _LOG10_2
    e -= _LOG10_2
    e = np.floor(e)
    e += a >= H[(e + (_E_TABLE + 1)).astype(np.intp)]
    k = ((_E_TABLE + 14) - e).astype(np.intp)
    y = a * H[k]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = np.subtract(a, a_hi, out=c)
    t = a_hi * H_hi[k]  # TwoProduct: y + t is a H exactly
    t -= y
    t += a_hi * H_lo[k]
    t += a_lo * H_hi[k]
    t += a_lo * H_lo[k]
    t += a * L[k]
    del a, a_hi, a_lo, c, k  # fewer live arrays: a sweep's peak memory is here
    f = np.floor(y)
    t += y - f
    del y
    c = np.floor(t)
    f += c  # floor(y)
    t -= c  # fraction of y
    ok &= f >= 1e14
    ok &= f < 1e15
    t -= 0.5
    f += t > 0
    ok &= np.abs(t) > 2.0 ** -20
    del c, t
    carry = np.flatnonzero(f == 1e15)
    f[carry] = 1e14
    e[carry] += 1
    rows = np.empty(n, _ROW)
    rows["pad"] = 0x2020
    mantissa = rows["mantissa"]
    g = np.floor(f / 1e12)  # d0 d1 d2
    f -= g * 1e12
    mantissa[:, 0] = dot.take(g.astype(np.intp), mode="clip")
    g = np.floor(f / 1e8)  # d3..d6
    f -= g * 1e8
    mantissa[:, 1] = four.take(g.astype(np.intp), mode="clip")
    g = np.floor(f / 1e4)  # d7..d10
    f -= g * 1e4
    mantissa[:, 2] = four.take(g.astype(np.intp), mode="clip")
    mantissa[:, 3] = four.take(f.astype(np.intp), mode="clip")  # d11..d14
    x = (e + _E_TABLE).astype(np.intp)
    rows["exponent"] = exponents[x]
    out = rows.view(np.uint8).reshape(n, _WIDTH)
    out[np.flatnonzero(v < 0), 1] = ord("-")
    wide = np.flatnonzero(np.abs(e) >= 100)  # three exponent digits
    out[wide, :19] = out[wide, 1:20]
    out[wide, 19] = hundreds[x[wide]]
    redo = np.flatnonzero(~ok)
    if redo.size:
        out[redo] = _percent_rows(v[redo].tolist())
    return out


def _formatted(column, before):
    """(bytes, rows) of a float64 value column: its bytes and its
    `_column_rows` matrix; those of `before`, the same column of the block
    before, when its floats are bit-for-bit these (bits, not ==, decide,
    so -0.0 never takes the strings of 0.0)."""
    bits = column.tobytes()
    if before is not None and before[0] == bits:
        return before
    return bits, _column_rows(column)


def _block_text(x_rows, r, columns, engine):
    """One block's CSV rows as strings of up to _CHUNK rows each.

    A chunk is one byte matrix: the swept values `x_rows`, r, the value
    `columns` (each an (n, _WIDTH) matrix of `_column_rows`) and the
    engine side by side with their commas, r and the engine broadcast.
    Its text drops the padding spaces.
    """
    n = len(x_rows)

    def constant(text):
        return np.broadcast_to(np.frombuffer(text, np.uint8), (n, len(text)))

    parts = [x_rows, constant((("," + _FMT22 + ",") % r).encode("ascii"))]
    for i, rows in enumerate(columns):
        parts += [constant(b","), rows] if i else [rows]
    parts.append(constant(f",{engine}\n".encode("ascii")))
    texts = []
    for start in range(0, n, _CHUNK):
        matrix = np.concatenate([p[start:start + _CHUNK] for p in parts], axis=1)
        matrix[-1, -1] = ord(" ")  # _write ends the chunk's last row
        texts.append(matrix.tobytes().translate(None, b" ").decode("ascii"))
    return texts


def _sweep_blocks(engine, blocks, r_list, grid, header):
    """CSV data rows in order: engine (in the order of `blocks`), then the
    r list as given, then the grid ascending, as strings of up to _CHUNK
    rows each.

    `blocks` maps each engine to a function (r, xs) -> value columns,
    called once per (engine, r) block with the grid as a list of floats.
    `header` names the CSV fields: the swept value, r, the value columns
    and the engine.  A non-finite value raises ValueError, naming the
    first such cell.  The grid column is formatted once and r once per
    block; each value column is formatted once per block unless
    `_formatted` reuses the rows of the block before, and `_block_text`
    joins a block's formatted columns into rows.
    """
    engines = list(blocks) if engine == "both" else [engine]
    names = header.split(",")
    xs = grid.tolist()
    x_rows = _column_rows(grid)
    chunks = []
    previous = []  # (bytes, rows) of each value column of the block before
    for e in engines:
        for r in r_list:
            # as arrays at once: a list of floats takes four times the memory
            columns = [np.array(values, np.float64) for values in blocks[e](r, xs)]
            previous = [_formatted(column, before)
                        for column, before in zip_longest(columns, previous)]
            # a "%22.14e" string ends in a digit unless its value is inf or nan
            bad = [(int(i[0]), col) for col, (_, rows) in enumerate(previous)
                   if (i := np.flatnonzero(rows[:, -1] > ord("9"))).size]
            if bad:
                i, col = min(bad)
                value = columns[col][i]
                raise ValueError(
                    f"{e} engine: non-finite {names[col + 2]} = {value} at "
                    f"{names[1]} = {r!r}, {names[0]} = {xs[i]!r}")
            del columns  # arrays of floats no longer needed: memory peaks below
            chunks += _block_text(x_rows, r, [rows for _, rows in previous], e)
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
    header = "phi_rad,r_per_s,p_e,engine"
    rows = _sweep_blocks(args.engine, blocks, r_list, phis, header)
    _write(args, [meta, header, *rows])
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
    header = "T_s,r_per_s,p_e_r,p_e_nr,D,engine"
    rows = _sweep_blocks(args.engine, blocks, r_list, times, header)
    _write(args, [meta, header, *rows])
    return 0


def cmd_simulate(args):
    if args.config is None:
        raise UsageError("simulate requires --config")
    cfg = _load_config(args.config)
    decay = _decay_from_config(cfg)
    proto = _protocol_from_config(cfg, decay)
    sec = cfg.get("protocol", {})
    kind = sec.get("kind", "two_cavity")
    engine = sec.get("engine", "both")
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
    # an explicit --engine wins, as --points does; a bad field still fails
    if args.engine is not None:
        engine = args.engine
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
    t0 = time.perf_counter()
    report = run_validation(args.profile)
    report["elapsed_s"] = round(time.perf_counter() - t0, 3)
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
    common(p, engine_default=None)
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
