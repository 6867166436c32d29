"""Run the benchmark on every workload and summarise it.

    python3 perfbench/suite.py [--workloads a,b] [--seeds 1-10]
                               [--trace-seed N] [--baseline FILE]

Runs ``run.py`` once per workload and seed, one process after another,
for BENCHMARK.json's ``run_seconds``. For each workload it prints every
end-to-end metric by name and unit, as the median over the seeds with
its quartiles and the spread (quartile distance over median), plus the
failed ratio and the host probe's range. ``--trace-seed`` adds one
traced run per workload and prints its per-module metrics.
``--baseline`` writes all of it, with the host and commit, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process: its result line and its host line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stderr[-2000:]}")
    host = next(json.loads(line[5:]) for line in lines
                if line.startswith("host "))
    return json.loads(lines[-1]), host


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report: dict = {"seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run(workload, seed, 0) for seed in args.seeds]
        attempted = sum(r["attempted"] for r, _ in results)
        failed = sum(r["failed"] for r, _ in results)
        entry = {
            "failed_ratio": failed / attempted, "attempted": attempted,
            "correct": all(r["correct"] for r, _ in results),
            "host_calib_ms": summarise([h["calib_ms"] for _, h in results]),
            "end_to_end": {
                name: {"unit": results[0][0]["metrics"][name]["unit"],
                       **summarise([r["metrics"][name]["value"]
                                    for r, _ in results])}
                for name in bounds}}
        print(f"{workload}: {len(results)} runs, {attempted} jobs, "
              f"failed_ratio {entry['failed_ratio']:.4f}, host calib_ms "
              f"{min(entry['host_calib_ms']['values']):.1f}-"
              f"{max(entry['host_calib_ms']['values']):.1f}")
        for name, s in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] \
                else "  SPREAD ABOVE BOUND"
            print(f"  {name:14s} {s['median']:12.4f} {s['unit']:4s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                  f"spread {s['spread']:.3f} bound {bounds[name]}{flag}")
        if args.trace_seed is not None:
            traced, host = run(workload, args.trace_seed, 1)
            entry["traced"] = {"seed": args.trace_seed,
                               "metrics": traced["metrics"]}
            entry["correct"] = entry["correct"] and traced["correct"]
            print(f"  traced run, seed {args.trace_seed}:")
            for name, m in traced["metrics"].items():
                print(f"    {name:44s} {m['value']:12.4f} {m['unit']}")
        report["workloads"][workload] = entry
        report["host"] = results[-1][1]
        sys.stdout.flush()
    if args.baseline is not None:
        args.baseline.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(w["correct"] for w in report["workloads"].values()) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
