"""crosscav benchmark runner.

    python3 bench/run.py --workload sweep-analytic --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each pass runs in its own fresh
interpreter (bench/passrun.py), one at a time, with PYTHONPATH=src.  An
unmeasured warm-up interpreter first compiles the sources, then a few
interpreters that only import crosscav.cli add setup_s samples.  Passes
repeat while the next one should end within --seconds.  --trace 0 reports
the end-to-end metrics, --trace 1 alternates untraced and traced passes
and reports the per-layer metrics.  A summary goes to stderr; the last
stdout line is the JSON result.  The full result, with the environment
stamp and every pass, is written to
.bench_out/<workload>-seed<seed>-trace<trace>/result.json.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS, build_pass  # noqa: E402

# stay well inside the 180 s a run may take
RUN_LIMIT_S = 150.0
# interpreters that only import crosscav.cli, for more setup_s samples in
# runs whose passes are few and long
SETUP_PROBES = 4
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def git_commit(root):
    """Commit id of the checkout, or None when it is not a git repository."""
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root):
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "crosscav")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment_stamp():
    """What must match for two results to be compared."""
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def spawn(root, env, spec, deadline):
    """Run one pass interpreter and return its record."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "passrun.py")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("no time left for another pass")
    try:
        proc = subprocess.run(cmd + [repr(time.monotonic()), json.dumps(spec)],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"pass did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"pass interpreter exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def count_failures(passes):
    """(attempted, failures) over every invocation of every pass.

    Besides its own check, each CSV output must be byte-identical to the
    same command's output in the first pass, so a traced pass that
    changes the CSV fails.
    """
    first = {}
    attempted, failures = 0, []
    for k, rec in enumerate(passes):
        for inv in rec["invocations"]:
            attempted += 1
            error = inv["error"]
            if error is None and inv["check"] != "validate":
                ref = first.setdefault(inv["command"], inv["digest"])
                if inv["digest"] != ref:
                    kind = "traced" if rec["traced"] else "untraced"
                    error = f"{kind} output differs from the first pass"
            if error:
                failures.append(f"pass {k} {inv['command']}: {error}")
    return attempted, failures


def median(values):
    if not values:
        return 0.0
    # counts repeat exactly from pass to pass; keep them whole numbers
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure(workload, seed, seconds, trace, root=ROOT, points=None, profile="default"):
    """Run one workload for `seconds`; returns the full result dict."""
    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    outdir = os.path.join(root, ".bench_out", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    invocations = build_pass(workload, seed, outdir, points=points, profile=profile)

    def spec(pass_id, traced, invs):
        return {"src": src, "invocations": invs, "traced": traced, "pass_id": pass_id,
                "spans_path": os.path.join(outdir, f"spans-pass{pass_id}.jsonl.gz"),
                "stamp": pass_id < 0}

    warm = spawn(root, env, spec(-1, False, []), deadline)
    probes = [spawn(root, env, spec(-1, False, []), deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes = []
    t_start = time.monotonic()
    # start another pass only if it should end within `seconds`, so a run
    # lasts about `seconds` whatever a pass costs
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append(spawn(root, env, spec(len(passes), traced, invocations), deadline))
        now = time.monotonic()
        per_pass = (now - t_start) / len(passes)
        enough = len(passes) >= (2 if trace else 1)
        if enough and (now + per_pass - t_start > seconds or now + per_pass > deadline):
            break

    attempted, failures = count_failures(passes)
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    samples = {
        "setup_s": probes + [p["setup_s"] for p in passes],
        "wall_s": [p["wall_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    if trace:
        names = traced_passes[0]["layers"].keys()
        metrics = {n: median([p["layers"][n] for p in traced_passes]) for n in names}
        metrics["trace.overhead_s"] = (median([p["wall_s"] for p in traced_passes])
                                       - median(samples["wall_s"]))
    else:
        metrics = {n: median(v) for n, v in samples.items()}
    stamp = environment_stamp()
    stamp["blas"] = warm.get("blas")
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(root), "source_sha256": source_digest(root),
        "environment": stamp,
        "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures, "metrics": metrics, "samples": samples,
        "bindings": traced_passes[0]["bindings"] if traced_passes else [],
        "passes": passes, "elapsed_s": time.monotonic() - t_begin,
    }
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def summary(result):
    lines = [f"{result['workload']}  seed {result['seed']}  trace {result['trace']}  "
             f"passes {len(result['passes'])}  commit {result['commit']}"]
    n = {k: len(v) for k, v in result["samples"].items()}
    for name, value in result["metrics"].items():
        count = f"  (median of {n[name]})" if name in n else ""
        lines.append(f"  {name:<36} {value:>14.6g} {unit_of(name)}{count}")
    lines.append(f"  {'error_rate':<36} {result['error_rate']:>14.6g} fraction  "
                 f"({result['failed']}/{result['attempted']} invocations)")
    lines.extend(f"  FAILED {f}" for f in result["failures"][:10])
    return "\n".join(lines)


def result_line(results):
    """The JSON line the benchmark contract asks for."""
    single = len(results) == 1
    metrics = {}
    for r in results:
        for name, value in r["metrics"].items():
            key = name if single else f"{r['workload']}.{name}"
            metrics[key] = {"value": value, "unit": unit_of(name)}
    return json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crosscav", "cli.py")):
        print(f"error: no crosscav sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds, args.trace))
            print(summary(results[-1]), file=sys.stderr)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
