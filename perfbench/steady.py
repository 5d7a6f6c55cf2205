"""Steadiness and determinism check for the benchmark.

    python3 perfbench/steady.py

Runs ``run.py --trace 0`` on every workload in BENCHMARK.json with seeds
1-10 and the spec's ``run_seconds``, in two sets.  For every end-to-end
metric it reports each set's median over seeds and quartile spread
(Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives them, and
marks a spread above a third of the metric's bound.  It fails when any
spread exceeds the metric's bound, when the second set's median is worse
than the first set's by more than the bound, when a run is incorrect, or
when two runs of one workload and seed give different output digests.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[1:] for line in lines if line.startswith("digest "))
    result["elapsed_s"] = time.monotonic() - start
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {}       # (set, workload, seed) -> result
    for k in range(SETS):
        for workload in workloads:
            for seed in SEEDS:
                res = run_once(workload, seed, spec["run_seconds"])
                runs[k, workload, seed] = res
                print(f"set {k} {workload} seed {seed} correct={res['correct']} "
                      f"elapsed_s={res['elapsed_s']:.1f} "
                      + " ".join(f"{n}={m['value']:.5g}" for n, m in res["metrics"].items()),
                      flush=True)

    problems = []
    report = {"seeds": list(SEEDS), "sets": SETS, "workloads": {}}
    for workload in workloads:
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for k in range(SETS):
                values = [runs[k, workload, s]["metrics"][name]["value"] for s in SEEDS]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            drift = worse_by(medians[0], medians[1], metric["better"])
            rows[name] = {"medians": medians, "spreads": spreads, "worse_by": drift,
                          "bound": bound}
            marks = []
            if max(spreads) > bound:
                problems.append(f"{workload} {name}: spread {max(spreads):.3f} > bound {bound}")
                marks.append("SPREAD OVER BOUND")
            elif max(spreads) > bound / 3:
                marks.append("spread over bound/3")
            if drift > bound:
                problems.append(f"{workload} {name}: second set worse by {drift:.3f} > {bound}")
                marks.append("MEDIAN DRIFT OVER BOUND")
            print(f"{workload:<9} {name:<17} medians "
                  + " ".join(f"{m:.5g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:.3f}" for s in spreads)
                  + f"  worse_by {drift:+.3f}  bound {bound}  " + "; ".join(marks))
        for seed in SEEDS:
            results = [runs[k, workload, seed] for k in range(SETS)]
            if not all(r["correct"] for r in results):
                problems.append(f"{workload} seed {seed}: incorrect run")
            if len({tuple(r["digest"]) for r in results}) != 1 or len(results[0]["digest"]) != 1:
                problems.append(f"{workload} seed {seed}: output digests differ")
        report["workloads"][workload] = rows
    out = ROOT / ".perfbench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    for p in problems:
        print("PROBLEM " + p)
    print("steady: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
