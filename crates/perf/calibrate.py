#!/usr/bin/env python3
"""Calibration: run the benchmark N times per workload, each with another
seed, and report every end-to-end metric's quartile spread
((Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4)) beside
its bound in BENCHMARK.json. A spread above a third of its bound means the
metric is not steady enough to judge a change with. The printed but
unbounded timing figures in UNBOUNDED are recorded the same way, so the
README can say why they carry no bound.

    python3 crates/perf/calibrate.py [--runs 10] [--first-seed 100] [--out FILE] [--note TEXT]

Run from the repository root. Writes the raw runs, their medians, the quartile
spreads and the (max - min) / median ranges as JSON (default
crates/perf/out/calibration.json); a PR's trajectory entry
crates/perf/results/BENCH_<pr>.json is this file.
"""
import argparse
import json
import statistics
import subprocess
import sys

UNBOUNDED = ["cpu_us_per_op", "latency_p95_us", "whole_window_rps", "whole_window_cpu_us_per_op"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", default="crates/perf/out/calibration.json")
    ap.add_argument("--note", default="", help="free text stored with the runs")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in workloads}
    # Workloads interleave, so slow drift of the machine lands on all of
    # them instead of on whichever ran last.
    for i in range(args.runs):
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {args.first_seed + i}: {result}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            # The metric lines are "workload name value unit".
            for line in out.splitlines():
                parts = line.split()
                if len(parts) == 4 and parts[0] == w and parts[1] in UNBOUNDED:
                    values[parts[1]] = float(parts[2])
            runs[w].append(values)
            print(w, args.first_seed + i, runs[w][-1], flush=True)

    report = {
        "note": args.note,
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "seeds": [args.first_seed + i for i in range(args.runs)],
        "bound": bounds,
        "median": {},
        "spread": {},
        "range": {},
        "runs": runs,
    }
    worst = 0.0
    for w in workloads:
        report["spread"][w], report["median"][w], report["range"][w] = {}, {}, {}
        for name, bound in list(bounds.items()) + [(u, None) for u in UNBOUNDED]:
            values = [r[name] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            report["spread"][w][name] = spread
            report["median"][w][name] = med
            report["range"][w][name] = (max(values) - min(values)) / med
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "" if spread / bound < 1 / 3 else "  <-- above bound/3"
            print(f"{w:16} {name:26} median {med:14.4f} spread {spread:7.4f} bound {bound}{flag}")
    print(f"worst spread/bound (setup_s aside): {worst:.3f}")
    json.dump(report, open(args.out, "w"), indent=1)


if __name__ == "__main__":
    main()
