"""Outside-in tracing of l1concave's layers.

The tracer replaces the module attributes that callers look up (for example
``simulate.fit_path`` or ``scalar_prox.make_prox``) with wrappers, and puts
the originals back when removed. No package file changes. A wrapper sits
where one layer calls another, so work that crosses no such boundary stays
invisible: the sweeps of the fits inside ``cv_select``, for one.

Spans are kept in memory as (id, name, start, end, parent, run id) tuples and
exported with the process id. Functions called hundreds of thousands of times
per replicate (the scalar prox, ``penalty_value``) get a counter and a timer
instead of a span. Pool workers started with ``fork`` inherit the installed
wrappers; each worker task writes its spans and counter deltas to a file in
the trace directory, and the parent merges them when ``run_study`` returns.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import itertools
import json
import os
import resource
import sys
import time
from collections import Counter

PACKAGE = "l1concave"
LAYERS = ("penalty", "scalar_prox", "solver", "tuning", "metrics", "simulate", "cli")
MARK = "__perfbench_wrapper__"

# hot leaves: qualified name -> (count key, time key)
LEAVES = {
    "penalty.penalty_value": ("penalty.value_calls", "penalty.s"),
    "scalar_prox.zero_threshold": ("scalar_prox.zero_threshold.calls", "scalar_prox.s"),
    "scalar_prox.level_for_threshold": ("scalar_prox.level_for_threshold.calls", "scalar_prox.s"),
}
PROX_KINDS = ("l1", "hard", "scad", "mcp", "sica")


def package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def wrapped_attributes() -> list[str]:
    """Names of package attributes that are still tracing wrappers."""
    return [f"{m.__name__}.{name}" for m in package_modules()
            for name, value in vars(m).items() if getattr(value, MARK, False)]


def assert_clean():
    """Raise if any tracing wrapper is still installed in the package."""
    left = wrapped_attributes()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {', '.join(left)}")


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans and counters for one benchmark process (and its forked workers)."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.child_spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.prox = {kind: [0, 0.0] for kind in PROX_KINDS}
        self.run_id = None
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # ---- installation -------------------------------------------------

    def install(self):
        assert_clean()
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        modules = package_modules()
        for layer, mod in layers.items():
            for name, fn in list(vars(mod).items()):
                wrapper = self._wrapper_for(layer, name, fn)
                if wrapper is None:
                    continue
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def remove(self):
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def _wrapper_for(self, layer, name, fn):
        qual = f"{layer}.{name}"
        if qual == "scalar_prox.make_prox":
            return self._make_prox(fn)
        if qual == "simulate._worker":
            return self._worker(fn)
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != f"{PACKAGE}.{layer}":
            return None
        if qual in LEAVES:
            return self._leaf(fn, *LEAVES[qual])
        before, after = HOOKS.get(qual, (None, None))
        return self._span(qual, fn, before, after)

    # ---- wrappers -----------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(self, args, kwargs) if before is not None else None
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.run_id))
            if after is not None:
                after(self, args, kwargs, result, token, t1 - t0)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _leaf(self, fn, count_key, time_key):
        counts, perf = self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[time_key] += perf() - t0
                counts[count_key] += 1

        setattr(wrapper, MARK, True)
        return wrapper

    def _make_prox(self, fn):
        # one make_prox call per coordinate-descent fit; the returned scalar
        # prox is counted and timed per call, by penalty kind
        counts, cells, perf = self.counts, self.prox, time.perf_counter

        @functools.wraps(fn)
        def make_prox(p):
            prox = fn(p)
            counts["solver.fits"] += 1
            cell = cells[p.kind]

            def counted(z):
                t0 = perf()
                b = prox(z)
                cell[1] += perf() - t0
                cell[0] += 1
                return b

            return counted

        setattr(make_prox, MARK, True)
        return make_prox

    def _worker(self, fn):
        # the pool's task entry point; pickled by name, so a forked worker
        # resolves it to this wrapper
        perf = time.perf_counter

        @functools.wraps(fn)
        def worker(args):
            pid = os.getpid()
            if pid == self.pid:
                return fn(args)
            if getattr(self, "_child_pid", None) != pid:
                self._child_pid = pid
                self._ids = itertools.count(pid << 32)
            n0, c0 = len(self.spans), self.counters()
            sid = next(self._ids)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = perf()
            try:
                return fn(args)
            finally:
                t1 = perf()
                self.stack.pop()
                self.spans.append((sid, "simulate.replicate", t0, t1, parent, self.run_id))
                c1 = self.counters()
                payload = {"pid": pid, "spans": self.spans[n0:],
                           "counts": {k: c1[k] - c0.get(k, 0) for k in c1}}
                path = os.path.join(self.trace_dir, f"child-{pid}-{sid}.json")
                with open(path + ".tmp", "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
                os.replace(path + ".tmp", path)

        setattr(worker, MARK, True)
        return worker

    # ---- data -----------------------------------------------------------

    def counters(self) -> dict:
        out = dict(self.counts)
        for kind, (calls, secs) in self.prox.items():
            key = f"scalar_prox.calls.{kind}"
            out[key] = out.get(key, 0) + calls
            out["scalar_prox.s"] = out.get("scalar_prox.s", 0.0) + secs
        return out

    def merge_children(self):
        """Fold the files written by pool workers into this tracer."""
        for path in sorted(glob.glob(os.path.join(self.trace_dir, "child-*.json"))):
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            os.remove(path)
            for s in payload["spans"]:
                self.child_spans.append(_span_dict(s, payload["pid"]))
            for k, v in payload["counts"].items():
                self.counts[k] += v

    def open_root(self, run_id) -> tuple:
        """Start the span that stands for one benchmark operation."""
        self.run_id = run_id
        sid = next(self._ids)
        self.stack.append(sid)
        return sid, time.perf_counter()

    def close_root(self, token):
        sid, t0 = token
        self.stack.pop()
        self.spans.append((sid, "bench.op", t0, time.perf_counter(), None, self.run_id))
        self.run_id = None

    def export(self) -> list[dict]:
        return [_span_dict(s, self.pid) for s in self.spans] + self.child_spans


def _span_dict(s, pid) -> dict:
    sid, name, start, end, parent, run = s
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "run": run, "pid": pid}


# ---- hooks: counters read from arguments and results ----------------------

def _fits(tracer, args, kwargs, result, token, dt):
    fits = result.fits if hasattr(result, "fits") else [result]
    c = tracer.counts
    c["solver.sweeps"] += sum(f.iterations for f in fits)
    c["solver.nonconverged"] += sum(not f.converged for f in fits)
    c["solver.uncertified"] += sum(not f.coordinatewise_global for f in fits)


def _fit_count(tracer, args, kwargs):
    return tracer.counts["solver.fits"]


def _cv_after(tracer, args, kwargs, result, token, dt):
    tracer.counts["tuning.cv_select.calls"] += 1
    tracer.counts["tuning.cv_fits"] += tracer.counts["solver.fits"] - token


def _svd_after(tracer, args, kwargs, result, token, dt):
    tracer.counts["metrics.svd_evaluated"] += result.evaluated


def _re_after(tracer, args, kwargs, result, token, dt):
    fn = sys.modules[f"{PACKAGE}.metrics"].restricted_eigenvalue_estimate
    bound = inspect.signature(inspect.unwrap(fn)).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counts["metrics.re_samples"] += bound.arguments["samples"]


def _read_after(tracer, args, kwargs, result, token, dt):
    path = args[0] if args else kwargs["path"]
    tracer.counts["cli.bytes_read"] += os.path.getsize(path)


def _study_before(tracer, args, kwargs):
    return _children_cpu()


def _study_after(tracer, args, kwargs, result, token, dt):
    cfg = args[0] if args else kwargs["cfg"]
    threads = args[1] if len(args) > 1 else kwargs.get("threads", 1)
    if threads is None or threads < 1:
        threads = os.cpu_count() or 1
    c = tracer.counts
    c["simulate.replicates"] += len({row["replicate"] for row in result.rows})
    if threads > 1 and cfg.reps > 1:
        c["simulate.workers_cpu_s"] += _children_cpu() - token
        c["simulate.pool_capacity_s"] += min(threads, cfg.reps) * dt
    tracer.merge_children()


HOOKS = {
    "solver.fit_path": (None, _fits),
    "solver.fit_lasso": (None, _fits),
    "solver.fit_combined": (None, _fits),
    "tuning.cv_select": (_fit_count, _cv_after),
    "metrics.sparse_eigenvalue": (None, _svd_after),
    "metrics.restricted_eigenvalue_estimate": (None, _re_after),
    "cli.read_matrix_csv": (None, _read_after),
    "simulate.run_study": (_study_before, _study_after),
}


# ---- aggregation ------------------------------------------------------------


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    kids: dict = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        a, b = s["start"], s["end"]
        covered = _union_length([(max(a, c["start"]), min(b, c["end"]))
                                 for c in kids.get(s["id"], ()) if c["end"] > a and c["start"] < b])
        out[s["id"]] = (b - a) - covered
    return out


def layer_metrics(spans: list[dict], counts: dict, ops: int) -> dict:
    """Per-layer metrics per operation, from the spans and counters of `ops` operations."""
    by_id = {s["id"]: s for s in spans}
    selft = self_times(spans)

    def outermost(s) -> bool:
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] == s["name"]:
                return False
            p = by_id.get(p["parent"])
        return True

    inclusive: Counter = Counter()
    layer_self: Counter = Counter()
    layer_calls: Counter = Counter()
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        layer_self[layer] += selft[s["id"]]
        layer_calls[layer] += 1
        if outermost(s):
            inclusive[s["name"]] += s["end"] - s["start"]

    c = Counter(counts)
    capacity = c["simulate.pool_capacity_s"]
    workers_cpu = c["simulate.workers_cpu_s"]
    m = {
        **{f"scalar_prox.calls.{k}": c[f"scalar_prox.calls.{k}"] for k in ("l1", "hard", "scad", "sica")},
        "scalar_prox.s": c["scalar_prox.s"],
        "penalty.value_calls": c["penalty.value_calls"],
        "penalty.s": c["penalty.s"],
        "solver.fits": c["solver.fits"],
        "solver.sweeps": c["solver.sweeps"],
        "solver.nonconverged": c["solver.nonconverged"],
        "solver.uncertified": c["solver.uncertified"],
        "solver.fit_path_s": inclusive["solver.fit_path"],
        "solver.fit_lasso_s": inclusive["solver.fit_lasso"],
        "solver.refit_ls_s": inclusive["solver.refit_ls"],
        "tuning.cv_select_s": inclusive["tuning.cv_select"],
        "tuning.cv_select.calls": c["tuning.cv_select.calls"],
        "tuning.cv_fits": c["tuning.cv_fits"],
        "tuning.bic_select_s": inclusive["tuning.bic_select"],
        "metrics.s": layer_self["metrics"],
        "metrics.calls": layer_calls["metrics"],
        "metrics.svd_evaluated": c["metrics.svd_evaluated"],
        "metrics.re_samples": c["metrics.re_samples"],
        "cli.read_s": inclusive["cli.read_matrix_csv"],
        "cli.self_s": layer_self["cli"],
        "cli.bytes_read": c["cli.bytes_read"],
        "cli.bytes_written": c["cli.bytes_written"],
        "simulate.replicates": c["simulate.replicates"],
        "simulate.gen_s": inclusive["simulate.gen_design"] + inclusive["simulate.gen_response"],
        "simulate.self_s": layer_self["simulate"],
        "simulate.workers_cpu_s": workers_cpu,
        "simulate.pool_idle_s": capacity - workers_cpu,
        "simulate.pool_efficiency": workers_cpu / capacity if capacity > 0 else 0.0,
    }
    # per operation; the efficiency is a ratio already
    return {k: (v if k == "simulate.pool_efficiency" else v / ops) for k, v in m.items()}
