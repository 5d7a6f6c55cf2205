"""One repetition of one workload, in a fresh process.

Started by ``run.py``; prints one JSON line with the repetition's
timings, checks, digest and (when traced) per-module metrics.  The timed
region starts at the first CLI call and ends when the last returns;
everything before it, from process start, is set-up.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the timed region would start; report setup_s only")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from stefansim import cli
    import workloads

    wl = workloads.WORKLOADS[args.workload](ROOT, Path(args.out), args.seed)
    tracer = None
    if args.trace:
        from tracing import ROOT_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
    wl.setup()

    def timed_region():
        codes = {}
        for sub, sub_argv in wl.commands():
            if tracer is None:
                codes[sub] = cli.main(sub_argv)
            else:
                codes[sub] = tracer.timed(f"cli.{sub}", cli.main, sub_argv)
        return codes

    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_s": t_first - args.spawned}))
        return 0
    if tracer is None:
        exit_codes = timed_region()
    else:
        exit_codes = tracer.timed(ROOT_SPAN, timed_region)
    t_end = time.monotonic()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
    checks = wl.check(exit_codes)
    result = {
        "wall_s": t_end - t_first,
        "setup_s": t_first - args.spawned,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "path_steps": wl.path_steps,
        "checks": checks,
        "reported": wl.reported,
        "digest": wl.digest(),
    }
    if tracer is not None:
        from tracing import layer_metrics, self_time_by_layer
        spans, counts = tracer.dump(args.trace_file)
        result["layers"] = layer_metrics(spans, counts)
        result["self_s"] = self_time_by_layer(spans, counts)
    import numpy
    import scipy
    result["machine"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "blas_threads": blas_threads(),
                         "nproc": os.cpu_count(),
                         "affinity": len(os.sched_getaffinity(0))}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
