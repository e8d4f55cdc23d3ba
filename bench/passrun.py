"""One workload pass in a fresh interpreter, started by run.py.

    python3 bench/passrun.py <spawn CLOCK_MONOTONIC> <pass spec JSON>

Imports crosscav.cli (setup_s ends there), runs each invocation through
crosscav.cli.main(argv) in-process with stdout and stderr captured,
checks the outputs, and prints one JSON record as its last stdout line.
A traced pass also writes its spans to spec["spans_path"] (gzipped JSON
lines) once the pass is over.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import check_output, digest  # noqa: E402


def run_invocation(cli, inv):
    """(exit code or None, stdout, stderr, seconds) of one CLI call.

    `cli.main` is looked up at call time so a tracer's binding is used.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(inv["argv"])
    except Exception as exc:  # an escaped exception is a failed invocation
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_pass(cli, invocations, traced=False):
    """Run and check every invocation; returns the pass record.

    A traced record also carries "layers" (per-layer metrics), "bindings"
    (the names the tracer rebound) and "spans" (raw span tuples).
    """
    tracer = Tracer() if traced else None
    runs = []
    start_ns = time.perf_counter_ns()
    with tracer or nullcontext():
        bindings = tracer.bindings() if tracer else []
        for inv in invocations:
            runs.append(run_invocation(cli, inv))
    wall_s = (time.perf_counter_ns() - start_ns) / 1e9
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = []
    for inv, (rc, out, err, seconds) in zip(invocations, runs):
        if rc == 0:
            error = check_output(inv, out)
        else:
            error = f"exit code {rc}: {err.strip()[-300:]}"
        results.append({"command": inv["command"], "check": inv["check"],
                        "wall_s": seconds, "digest": digest(out), "error": error})
    record = {"traced": traced, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "invocations": results}
    if tracer:
        record["layers"] = layer_metrics(tracer.spans, wall_s)
        record["bindings"] = bindings
        record["spans"] = tracer.spans
        record["start_ns"] = start_ns
    return record


def write_spans(path, spans, pass_id, start_ns):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for sid, parent, group, name, t0, t1, _ in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "layer": group,
                                 "start_ns": t0 - start_ns, "end_ns": t1 - start_ns,
                                 "pass": pass_id}) + "\n")


def main():
    t_spawn = float(sys.argv[1])
    import crosscav.cli as cli

    setup_s = time.monotonic() - t_spawn
    spec = json.loads(sys.argv[2])
    expected = os.path.realpath(os.path.join(spec["src"], "crosscav"))
    if os.path.realpath(os.path.dirname(cli.__file__)) != expected:
        print(f"crosscav imported from {cli.__file__}, not from {expected}", file=sys.stderr)
        return 3
    record = run_pass(cli, spec["invocations"], spec["traced"])
    record["setup_s"] = setup_s
    spans = record.pop("spans", None)
    if spans is not None:
        write_spans(spec["spans_path"], spans, spec["pass_id"], record.pop("start_ns"))
    if spec.get("stamp"):
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
