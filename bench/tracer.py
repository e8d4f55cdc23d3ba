"""Span tracer that wraps crosscav's layer boundaries from outside the package.

`cli`, `protocol` and `validate` import their callees by name, so a
wrapper must replace the name in every module that holds it: the tracer
rebinds each target function wherever a crosscav module binds it (for
example `crosscav.protocol.evolve_master` and `crosscav.cli.run_two_cavity`,
and `crosscav.liouvillian.build_general_liouvillian` for the call nested
in `build_symmetric_liouvillian`), plus `DensityMatrix.__post_init__`.
`Tracer.restore` puts every original binding back.

Spans are kept in memory as tuples (id, parent, group, function, start_ns,
end_ns, extra) and turned into per-layer metrics by `layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

# target functions per defining module -> span group; groups are the
# per-layer metric prefixes
_TARGETS = {
    "crosscav.cli": {"main": "cli"},
    "crosscav.protocol": {"run_two_cavity": "protocol", "run_single_cavity": "protocol"},
    "crosscav.liouvillian": {
        "build_symmetric_liouvillian": "liouvillian",
        "build_general_liouvillian": "liouvillian",
        "decompose_symmetric": "liouvillian",
    },
    "crosscav.integrator": {
        "evolve_master": "integrator.evolve",
        "unitary_propagator": "integrator.unitary",
    },
}
# every public function of the analytic module is an analytic call
_ANALYTIC = "crosscav.analytic"
_VALIDATE = "crosscav.validate"

# groups whose outer spans are counted, with the metric name of the count;
# a group listed in COUNTED_FUNCTION counts that function's spans only
COUNTS = {
    "analytic": "analytic.calls",
    "protocol": "protocol.runs",
    "liouvillian": "liouvillian.builds",
    "integrator.evolve": "integrator.evolve.calls",
    "integrator.unitary": "integrator.unitary.calls",
    "tensor.density": "tensor.density.calls",
}
COUNTED_FUNCTION = {"liouvillian": "crosscav.liouvillian.build_symmetric_liouvillian"}
SELF_TIMES = ("cli", "analytic", "protocol", "liouvillian", "integrator.evolve",
              "integrator.unitary", "tensor.density")
VALIDATE_CHECKS = ("oracle_probabilities", "propagator_cross_factor",
                   "builder_consistency", "decomposition_identity",
                   "dfs_preservation", "zero_dissipation")


def _matrix_dim(obj) -> int:
    m = getattr(obj, "matrix", None)
    shape = getattr(m, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 0


def _evolve_extra(args, kwargs, result):
    # the generator is the argument with the largest matrix (D^2 vs D)
    return max((_matrix_dim(a) for a in (*args, *kwargs.values())), default=0)


def _generator_extra(args, kwargs, result):
    m = result.matrix
    count = getattr(m, "nnz", None)
    if count is None:  # dense generator
        import numpy as np

        count = np.count_nonzero(m)
    return _matrix_dim(result), int(count)


# per-span detail, recorded for the functions whose metrics need it
_EXTRA = {
    "crosscav.liouvillian.build_symmetric_liouvillian": _generator_extra,
    "crosscav.integrator.evolve_master": _evolve_extra,
}


class Tracer:
    """Record spans at crosscav's module boundaries while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._saved = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------
    def _wrap(self, fn, group):
        name = f"{fn.__module__}.{fn.__qualname__}"
        extra_of = _EXTRA.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            # spans opened on worker threads hang off the open CLI span
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            if group == "cli":
                tracer._root = sid
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if group == "cli":
                    tracer._root = None
                extra = extra_of(args, kwargs, result) if extra_of and result is not None else None
                tracer.spans.append((sid, parent, group, name, t0, t1, extra))

        return traced

    # -- installation ------------------------------------------------------
    def _targets(self):
        """(original function, group) for every target that exists."""
        found = {}
        for modname, names in _TARGETS.items():
            mod = sys.modules.get(modname)
            for name, group in names.items():
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn):
                    found[fn] = group
        analytic = sys.modules.get(_ANALYTIC)
        if analytic is not None:
            for name, fn in vars(analytic).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == _ANALYTIC):
                    found[fn] = "analytic"
        validate = sys.modules.get(_VALIDATE)
        if validate is not None:
            for check in VALIDATE_CHECKS:
                fn = getattr(validate, "check_" + check, None)
                if inspect.isfunction(fn):
                    found[fn] = "validate." + check
        return found

    def install(self):
        """Rebind every target in every loaded crosscav module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {fn: self._wrap(fn, group) for fn, group in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "crosscav" or modname.startswith("crosscav.")):
                continue
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, wrappers[value])
        tensor = sys.modules.get("crosscav.tensor")
        cls = getattr(tensor, "DensityMatrix", None)
        if cls is not None and "__post_init__" in vars(cls):
            original = vars(cls)["__post_init__"]
            self._saved.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(original, "tensor.density")

    def restore(self):
        """Put back every binding `install` replaced, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def bindings(self):
        """Names currently rebound, as 'module.attribute' strings."""
        return sorted(f"{getattr(o, '__name__', o)}.{n}" for o, n, _ in self._saved)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer counts and times of one traced pass.

    A span's self time is its duration minus the union of its children's
    intervals.  With --jobs 2 the sweep points run on two threads, so a
    layer's self_s sums thread time and may exceed wall time.  A count
    (and max_dim2 / nnz_total) takes only outer spans: those whose parent
    is not in the same group.  liouvillian.builds, max_dim2 and nnz_total
    take only build_symmetric_liouvillian spans.
    """
    group_of = {s[0]: s[2] for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    out = {name: 0 for name in COUNTS.values()}
    out.update({f"{g}.self_s": 0.0 for g in SELF_TIMES})
    out.update({f"validate.{c}.s": 0.0 for c in VALIDATE_CHECKS})
    out["liouvillian.max_dim2"] = 0
    out["liouvillian.nnz_total"] = 0
    out["integrator.evolve.max_dim2"] = 0
    root_ns = 0
    for sid, parent, group, name, t0, t1, extra in spans:
        inner = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        self_ns = (t1 - t0) - _covered(inner)
        if group in SELF_TIMES:
            out[f"{group}.self_s"] += self_ns / 1e9
        if parent is None:
            root_ns += t1 - t0
        if group_of.get(parent) == group or COUNTED_FUNCTION.get(group, name) != name:
            continue
        if group in COUNTS:
            out[COUNTS[group]] += 1
        if group.startswith("validate."):
            out[f"{group}.s"] += (t1 - t0) / 1e9
        if group == "liouvillian" and extra:
            out["liouvillian.max_dim2"] = max(out["liouvillian.max_dim2"], extra[0])
            out["liouvillian.nnz_total"] += extra[1]
        elif group == "integrator.evolve" and extra:
            out["integrator.evolve.max_dim2"] = max(out["integrator.evolve.max_dim2"], extra)
    out["trace.unattributed_s"] = wall_s - root_ns / 1e9
    return out
