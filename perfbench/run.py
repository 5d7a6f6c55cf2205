"""Benchmark entry point for stefansim.

    python3 perfbench/run.py --workload {ensemble,mild,pipeline} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  One closed-loop client, one
operation at a time: each repetition runs the whole workload through the
``stefansim`` CLI in a fresh process with a fresh output directory under
``.perfbench_out/``, and repetitions continue while another one still
fits in ``--seconds``.  Set-up-only processes, one per repetition and
more in the time left, add samples of ``setup_s``.  With ``--trace 0``
each timing metric is the mean of its samples and ``peak_rss_mb`` is
the median; README.md gives the measurements behind that choice.  With
``--trace 1`` untraced and traced repetitions alternate; the per-module
metrics are medians over the traced ones and ``trace.overhead_frac``
compares the mean wall time of each kind.  Span files of traced
repetitions are kept in ``.perfbench_out/trace/``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without a ``src/stefansim`` tree next to ``perfbench/`` the benchmark
exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import compileall
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: the whole run, repetitions included, must end well inside this many seconds
HARD_LIMIT_S = 170.0
#: set-up-only processes per run, at the least
MIN_SETUP_PROBES = 6


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_rep(workload: str, seed: int, traced: bool, index: int, deadline: float,
            setup_only: bool = False) -> dict:
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    trace_file = OUT / "trace" / f"{workload}-seed{seed}-rep{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out),
           "--trace-file", str(trace_file)] + (["--setup-only"] if setup_only else [])
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
        elapsed = time.monotonic() - spawned
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {index} passed the {HARD_LIMIT_S:.0f} s limit") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = traced
    rep["elapsed_s"] = elapsed
    return rep


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Repeat the workload while one more cycle still fits in ``seconds``.

    A cycle is a set-up-only probe and one repetition, or with tracing an
    untraced and a traced one.  Further probes fill the time left, with at
    least ``MIN_SETUP_PROBES`` in all, so that ``setup_s`` is sampled often
    and across the whole run.  Returns the repetitions and the
    ``setup_s`` samples of every untraced process.
    """
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    kinds = (False, True) if trace else (False,)
    reps, setups, longest = [], [], 0.0

    def probe():
        index = len(reps) + len(setups)
        setups.append(run_rep(workload, seed, False, index, deadline, setup_only=True)["setup_s"])

    while True:
        cycle_start = time.monotonic()
        probe()
        for traced in kinds:
            reps.append(run_rep(workload, seed, traced, len(reps), deadline))
        now = time.monotonic()
        longest = max(longest, now - cycle_start)
        if now + longest - start > seconds or now + longest > deadline:
            break
    probes, longest = len(setups), 0.0
    while probes < MIN_SETUP_PROBES or time.monotonic() + longest - start <= seconds:
        probe_start = time.monotonic()
        probe()
        probes += 1
        longest = max(longest, time.monotonic() - probe_start)
    setups += [r["setup_s"] for r in reps if not r["traced"]]
    return reps, setups


def _proc_field(path: str, key: str):
    """First ``key: value`` entry of a /proc text file, or None."""
    try:
        with open(path) as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


def machine_record(rep: dict) -> dict:
    record = dict(rep["machine"])
    record["platform"] = platform.platform()
    record["cpu"] = _proc_field("/proc/cpuinfo", "model name")
    mem_kib = _proc_field("/proc/meminfo", "MemTotal")
    record["mem_total_gb"] = round(int(mem_kib.split()[0]) * 1024 / 1e9, 2) if mem_kib else None
    record["counters_from_array_sizes"] = ["noise.bytes", "spde.snapshot_bytes",
                                           "picard.tables_bytes", "io.rows_written"]
    return record


def end_to_end(reps: list, setups: list) -> dict:
    return {
        "wall_s": statistics.fmean(r["wall_s"] for r in reps),
        "setup_s": statistics.fmean(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "path_steps_per_s": (sum(r["path_steps"] for r in reps)
                             / sum(r["wall_s"] for r in reps)),
    }


def per_layer(reps: list) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_frac"] = (statistics.fmean(r["wall_s"] for r in traced)
                                      / statistics.fmean(r["wall_s"] for r in plain) - 1.0)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "stefansim" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        raise BenchError(f"no stefansim source tree (src/, configs/) under {ROOT}")
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        raise BenchError("compiling src/ failed")
    (OUT / "trace").mkdir(parents=True, exist_ok=True)

    reps, setups = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    checks = [c for r in reps for c in r["checks"]]
    digests = sorted({r["digest"] for r in reps})
    checks.append({"name": "digest_same_across_repetitions", "value": len(digests),
                   "limit": 1, "passed": len(digests) == 1, "ratio": None})
    failed = sum(not c["passed"] for c in checks)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = per_layer(reps) if args.trace else end_to_end(reps, setups)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} ({sum(r['traced'] for r in reps)} traced), "
          f"setup_s samples={len(setups)}")
    print("machine " + json.dumps(machine_record(reps[0]), sort_keys=True))
    print("digest " + " ".join(digests))
    for c in reps[0]["checks"]:
        ratio = "" if c["ratio"] is None else f" error/tolerance={c['ratio']:.4g}"
        print(f"check {c['name']} value={c['value']} limit={c['limit']}"
              f"{ratio} {'pass' if c['passed'] else 'FAIL'}")
    for key, value in reps[0]["reported"].items():
        print(f"reported {key} {value:.6g}")
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        wall = statistics.median(r["wall_s"] for r in traced)
        total = statistics.median(sum(r["self_s"].values()) for r in traced)
        for layer in sorted(traced[0]["self_s"]):
            s = statistics.median(r["self_s"].get(layer, 0.0) for r in traced)
            print(f"self_time {layer:<12} {s:10.4f} s  {s / wall:7.2%} of traced wall_s"
                  f"  {s / total:7.2%} of the sum")
        print(f"self_time {'sum':<12} {total:10.4f} s  traced wall_s {wall:.4f} s"
              + ("; threads overlap, so the sum is thread time" if total > 1.01 * wall else ""))
    # Both are printed but left out of the JSON metrics: failed_frac is 0 on a
    # correct run (it is the JSON's failed / attempted), and tol_use is fixed
    # by the seed, so its spread across seeds is sampling error, not timing.
    ratios = [c["ratio"] for c in checks if c["ratio"] is not None]
    print(f"metric failed_frac {failed / len(checks):.6g} ratio "
          f"({failed} of {len(checks)} checks failed)")
    print(f"metric tol_use {max(ratios, default=0.0):.6g} ratio "
          "(largest measured error / tolerance over the checks)")
    for m in wanted:
        samples = setups if m["name"] == "setup_s" else [r[m["name"]] for r in reps
                                                          if m["name"] in r]
        per_rep = " ".join(f"{v:.4g}" for v in samples)
        print(f"metric {m['name']} {measured[m['name']]:.6g} {m['unit']}"
              + (f"  (from: {per_rep})" if per_rep else ""))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
