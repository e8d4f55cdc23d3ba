"""Compare benchmark results of two commits.

    python3 bench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a result.json written by bench/run.py for the same workload
and trace setting, one per run; list the runs of both sides in the order
they were made, so that pairs line up.  Per metric it prints both medians
over the files, the change, and a verdict against the bound in
BENCHMARK.json.  When the environment stamps differ, every verdict is
replaced by a flag: such a difference is not reported as a gain or a
regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    return results


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(base, new, spec):
    """Verdict on one metric from the per-run values of both sides.

    A gain needs at least ten pairs, the new median to beat the base by
    more than the base's quartile spread, and the new runs to win nine
    tenths of the pairs.
    Where the base's spread is wider than the bound, the metric is
    unresolved unless every new run beats every base run.
    """
    if spec is None:
        return ""
    sign = -1 if spec["better"] == "higher" else 1
    b, n = statistics.median(base), statistics.median(new)
    if b == 0:
        return "same" if n == 0 else "changed"
    worse = sign * (n - b) / abs(b)
    q = statistics.quantiles(base, n=4) if len(base) > 1 else [b, b, b]
    spread = (q[2] - q[0]) / abs(b)
    pairs = list(zip(base, new))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    all_better = max(sign * y for y in new) < min(sign * x for x in base)
    bound = spec.get("bound")
    if bound is not None and worse > bound:
        return f"REGRESSION (bound {bound:.0%})"
    if len(pairs) >= 10 and worse < 0 and -worse > spread and wins >= 0.9 * len(pairs):
        return "better"
    if bound is not None and spread > bound and not all_better:
        return "unresolved (spread wider than bound)"
    return "within bound" if bound is not None else "no clear change"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    results = base + new
    keys = {(r["workload"], r["trace"]) for r in results}
    if len(keys) != 1:
        print(f"error: results mix workloads or trace settings: {sorted(keys)}",
              file=sys.stderr)
        return 2
    stamps = {json.dumps(r["environment"], sort_keys=True) for r in results}
    flagged = len(stamps) > 1
    if flagged:
        print("FLAGGED: environment stamps differ; no gain or regression is reported")
        for r in results:
            print(f"  {r['commit']}: {json.dumps(r['environment'], sort_keys=True)}")
    specs = bounds()
    print(f"{'metric':<36} {'base':>12} {'new':>12} {'change':>8}  verdict")
    names = [n for n in base[0]["metrics"] if all(n in r["metrics"] for r in results)]
    missing = sorted(set().union(*(r["metrics"] for r in results)) - set(names))
    if missing:
        print(f"not in every result, not compared: {', '.join(missing)}")
    for name in names:
        base_vals = [r["metrics"][name] for r in base]
        new_vals = [r["metrics"][name] for r in new]
        b, n = statistics.median(base_vals), statistics.median(new_vals)
        change = f"{(n - b) / abs(b):+.1%}" if b else "n/a"
        note = "flagged" if flagged else verdict(base_vals, new_vals, specs.get(name))
        print(f"{name:<36} {b:>12.6g} {n:>12.6g} {change:>8}  {note}")
    for side, results in (("base", base), ("new", new)):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{side}: {failed}/{attempted} invocations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
