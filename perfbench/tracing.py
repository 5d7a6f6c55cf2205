"""In-process tracer for the benchmark's traced runs.

The tracer replaces module attributes that the package looks up at call
time (for example ``stefansim.spde.step_reflected``) with timing
wrappers, so the package itself is not edited.  Two kinds of wrapper:

* a *span* records one interval per call: name, start, end, parent span
  and thread id.  Layer entry points (a path run, a noise draw, a table
  build, a CSV write) are spans.
* a *count* wrapper is for calls made once per time step or per row,
  over a million of them on the ensemble workload.  It keeps only a call
  count, a total and a self time, summed under the enclosing span.

Nesting is tracked per thread because ``holder`` fans paths out over a
thread pool; the first span a worker thread opens is parented to the
innermost span open on the main thread.  A span's self time is its
duration minus the part covered by its children; children on other
threads are merged as intervals, since they overlap each other.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import threading
import time

SPAN = "span"
COUNT = "count"


def _file_bytes(index):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(args[index])}


def _rows_and_bytes(rows, index):
    def post(args, kwargs, result):
        return {"rows": int(rows(args)), "bytes": os.path.getsize(args[index])}
    return post


def _noise_bytes(args, kwargs, result):
    return {"bytes": int(result.xi.nbytes)}


def _snapshot_bytes(args, kwargs, result):
    snaps = (result.v1_snapshots, result.v2_snapshots)
    return {"snapshot_bytes": int(sum(s.nbytes for s in snaps if s is not None))}


def _table_bytes(args, kwargs, result):
    return {"bytes": int(result.init.nbytes + result.mid_val.nbytes
                         + result.mid_der.nbytes)}


def _increments(args, kwargs, result):
    """Increments pooled by one structure-function call, from array shapes."""
    from stefansim.regularity import TIME, WINDOW_MARGIN
    path, axis, lags = args[0], args[1], args[2]
    shape = getattr(path, "values", path).shape
    rows, cols = (shape[0], 1) if len(shape) == 1 else shape
    rows, cols = (n - 2 * math.floor(WINDOW_MARGIN * n) for n in (rows, cols))
    if axis == TIME:
        return {"increments": sum((rows - int(l)) * cols for l in lags)}
    return {"increments": sum(rows * (cols - int(l)) for l in lags)}


def _events(args, kwargs, result):
    return {"events": int(result.n_events)}


def _picard_iters(args, kwargs, result):
    from stefansim.picard import CONVERGENCE_TOL
    hits = [n for n, d in enumerate(result.d, start=1) if d <= CONVERGENCE_TOL]
    return {"iters_to_tol": hits[0] if hits else len(result.d) + 1}


#: (module, attribute, span name, kind, post hook computing counters)
WRAPS = [
    ("stefansim.spde", "sample_white_noise", "noise.draw", SPAN, _noise_bytes),
    ("stefansim.spde", "step_reflected", "spde.step", COUNT, None),
    ("stefansim.spde", "eval_h", "boundary.eval_h", COUNT, None),
    ("stefansim.spde", "laplacian", "fd.stencil", COUNT, None),
    ("stefansim.spde", "upwind_gradient", "fd.stencil", COUNT, None),
    ("stefansim.spde", "cap_profile", "spde.cap", COUNT, None),
    ("stefansim.spde", "profile_norm", "spde.norm", COUNT, None),
    ("stefansim.picard", "build_kernel_tables", "picard.tables", SPAN, _table_bytes),
    ("stefansim.picard", "mild_solve_w", "picard.mild_solve", SPAN, None),
    ("stefansim.picard", "eval_h", "boundary.eval_h", COUNT, None),
    ("stefansim.picard", "cap_profile", "spde.cap", COUNT, None),
    ("stefansim.picard", "solve_projected", "obstacle.solve", SPAN, None),
    ("stefansim.picard", "run_relative_frame", "spde.run", SPAN, _snapshot_bytes),
    ("stefansim.regularity", "structure_function", "regularity.structure", SPAN,
     _increments),
    ("stefansim.kernels", "deriv_y", "kernels.integrand", COUNT, None),
    ("stefansim.lob", "run_relative_frame", "spde.run", SPAN, _snapshot_bytes),
    ("stefansim.cli", "run_relative_frame", "spde.run", SPAN, _snapshot_bytes),
    ("stefansim.cli", "sample_white_noise", "noise.draw", SPAN, _noise_bytes),
    ("stefansim.cli", "picard_iterate", "picard.iterate", SPAN, _picard_iters),
    ("stefansim.cli", "estimate_holder_ensemble", "regularity.estimate", SPAN, None),
    ("stefansim.cli", "boundary_holder_ensemble", "regularity.estimate", SPAN, None),
    ("stefansim.cli", "verify_kernel_bounds", "kernels.sweep", SPAN, None),
    ("stefansim.cli", "parse_events", "lob.parse", SPAN, _events),
    ("stefansim.cli", "fit_coefficients", "lob.fit", SPAN, None),
    ("stefansim.cli", "simulate_price", "lob.simulate_price", SPAN, None),
    ("stefansim.cli", "solve_projected", "obstacle.solve", SPAN, None),
    ("stefansim.cli", "solve_penalized", "obstacle.solve", SPAN, None),
    # CSV and JSON writers; row counts are computed from the written arrays
    ("stefansim.cli", "dump_csv", "io.write", SPAN,
     _rows_and_bytes(lambda a: a[0].z.values.size, 2)),
    ("stefansim.cli", "price_series_to_csv", "io.write", SPAN,
     _rows_and_bytes(lambda a: len(a[0].times), 1)),
    ("stefansim.cli", "_write_json", "io.write", SPAN, _file_bytes(0)),
    ("stefansim.spde", "Trajectory.to_csv", "io.write", SPAN,
     _rows_and_bytes(lambda a: len(a[0].times), 1)),
    ("stefansim.spde", "Trajectory.profiles_to_csv", "io.write", SPAN,
     _rows_and_bytes(lambda a: a[0].v1_snapshots.shape[0] * a[0].v1_snapshots.shape[1], 1)),
    ("stefansim.lob", "FitResult.to_csv", "io.write", SPAN,
     _rows_and_bytes(lambda a: a[0].n_bins, 1)),
]


class Tracer:
    """Span and count recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_tid = threading.get_ident()
        self._main_stack = self._stack()
        self._counts = []           # one dict per thread: (owner, name) -> [n, total, self]
        self._lock = threading.Lock()
        self._patches = []

    # --- per-thread state -------------------------------------------------
    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _thread_counts(self):
        try:
            return self._local.counts
        except AttributeError:
            counts = self._local.counts = {}
            with self._lock:
                self._counts.append(counts)
            return counts

    def _owner(self, stack):
        """Id of the innermost open span, looking across to the main thread."""
        if stack:
            return stack[-1][1]
        if self._main_stack and self._main_stack is not stack:
            return self._main_stack[-1][1]
        return None

    # --- recording --------------------------------------------------------
    def span(self, name, fn, post=None):
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._owner(stack)
            sid = next(tracer._ids)
            frame = [0.0, sid]          # same-thread child time, owning span id
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
            attrs = post(args, kwargs, result) if post is not None else {}
            tracer.spans.append({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "tid": threading.get_ident(),
                                 "child_s": frame[0], "attrs": attrs})
            return result
        return wrapper

    def count(self, name, fn):
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0, tracer._owner(stack)]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                counts = tracer._thread_counts()
                key = (frame[1], name)
                entry = counts.get(key)
                if entry is None:
                    entry = counts[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
        return wrapper

    def timed(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span opened by the benchmark itself."""
        return self.span(name, fn)(*args, **kwargs)

    def install(self):
        for module_name, attr, name, kind, post in WRAPS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = (self.span(name, original, post) if kind == SPAN
                       else self.count(name, original))
            setattr(owner, leaf, wrapped)
            self._patches.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    # --- results ----------------------------------------------------------
    def counts(self):
        """Merged per-thread counts: list of dicts with owner, name and sums."""
        merged = {}
        for counts in self._counts:
            for key, (n, total, self_s) in counts.items():
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += n
                entry[1] += total
                entry[2] += self_s
        return [{"owner": owner, "name": name, "count": n, "total_s": total, "self_s": s}
                for (owner, name), (n, total, s) in merged.items()]

    def finish(self):
        """Fill in every span's self time; return (spans, counts)."""
        by_parent = {}
        for s in self.spans:
            by_parent.setdefault(s["parent"], []).append(s)
        for s in self.spans:
            foreign = sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                             for c in by_parent.get(s["id"], ()) if c["tid"] != s["tid"])
            covered, reach = 0.0, s["start"]
            for lo, hi in foreign:
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            s["self_s"] = max(0.0, s["end"] - s["start"] - s["child_s"] - covered)
        return self.spans, self.counts()

    def dump(self, path):
        """Write spans and counts to ``path`` as JSON and return them."""
        spans, counts = self.finish()
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)
        return spans, counts


SUBCOMMANDS = ("simulate", "obstacle", "picard-check", "holder", "kernel-check",
               "fit-lob", "simulate-price")
ROOT_SPAN = "workload"


def layer_metrics(spans, counts) -> dict:
    """Per-module metrics of one traced run, named as in BENCHMARK.json."""
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    calls = {}
    for c in counts:
        entry = calls.setdefault(c["name"], [0, 0.0, 0.0])
        entry[0] += c["count"]
        entry[1] += c["total_s"]
        entry[2] += c["self_s"]

    def n_calls(name):
        return calls.get(name, [0])[0]

    def per_call_us(name, self_time=False):
        n, total, self_s = calls.get(name, (0, 0.0, 0.0))
        return 1e6 * (self_s if self_time else total) / n if n else 0.0

    direct = [s for s in named("spde.run")
              if by_id.get(s["parent"], {}).get("name") == "picard.iterate"]
    root = named(ROOT_SPAN)[0]
    # time inside the CLI calls that no layer span covers: config loading,
    # argument parsing, result assembly, thread-pool start
    glue_s = root["self_s"] + sum(s["self_s"] for s in spans if s["name"].startswith("cli."))
    m = {
        "noise.draw_s": busy("noise.draw"),
        "noise.draws": len(named("noise.draw")),
        "noise.bytes": attr("noise.draw", "bytes"),
        "spde.run_s": busy("spde.run"),
        "spde.runs": len(named("spde.run")),
        "spde.steps": n_calls("spde.step"),
        "spde.step_us": per_call_us("spde.step"),
        "spde.step_self_us": per_call_us("spde.step", self_time=True),
        "spde.norm_us": per_call_us("spde.norm"),
        "spde.cap_us": per_call_us("spde.cap"),
        "spde.snapshot_bytes": attr("spde.run", "snapshot_bytes"),
        "fd.stencil_calls": n_calls("fd.stencil"),
        "fd.stencil_us": per_call_us("fd.stencil"),
        "boundary.eval_h_calls": n_calls("boundary.eval_h"),
        "boundary.eval_h_us": per_call_us("boundary.eval_h"),
        "picard.tables_s": busy("picard.tables"),
        "picard.tables_bytes": attr("picard.tables", "bytes"),
        "picard.mild_solve_s": busy("picard.mild_solve"),
        "picard.mild_solves": len(named("picard.mild_solve")),
        "picard.iters_to_tol": attr("picard.iterate", "iters_to_tol"),
        "picard.direct_run_s": sum(s["end"] - s["start"] for s in direct),
        "obstacle.solve_s": busy("obstacle.solve"),
        "obstacle.solves": len(named("obstacle.solve")),
        "regularity.structure_s": busy("regularity.structure"),
        "regularity.structure_calls": len(named("regularity.structure")),
        "regularity.increments": attr("regularity.structure", "increments"),
        "kernels.sweep_s": busy("kernels.sweep"),
        "kernels.integrand_calls": n_calls("kernels.integrand"),
        "lob.parse_s": busy("lob.parse"),
        "lob.events": attr("lob.parse", "events"),
        "lob.fit_s": busy("lob.fit"),
        "lob.simulate_price_s": busy("lob.simulate_price"),
        "io.write_s": busy("io.write"),
        "io.rows_written": attr("io.write", "rows"),
        "io.bytes_written": attr("io.write", "bytes"),
        "trace.unattributed_frac": glue_s / (root["end"] - root["start"]),
    }
    for sub in SUBCOMMANDS:
        m[f"cli.{sub.replace('-', '_')}_s"] = busy(f"cli.{sub}")
    return m


def self_time_by_layer(spans, counts) -> dict:
    """Self seconds per layer (the name before the first dot), all threads."""
    out = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + s["self_s"]
    for c in counts:
        layer = c["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + c["self_s"]
    return out
