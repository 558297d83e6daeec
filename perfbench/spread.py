#!/usr/bin/env python3
"""Run the benchmark over several seeds and report, for each workload
and end-to-end metric, the median, the quartiles and the quartile
spread as a share of the median, against a third of the metric's bound
in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads stream_burst --seeds 1-5 --bin .bench_build/release/perfbench
    python3 perfbench/spread.py --seeds 1-10 --save a.json
    python3 perfbench/spread.py --seeds 11-20 --against a.json   # medians within each bound
    python3 perfbench/spread.py --seeds 1-10 --holdout 9001      # one unseen seed within bounds

Without --bin it runs the command from BENCHMARK.json. It exits 1 if a
run fails or reports incorrect output, or if a spread, comparison or
held-out check misses.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{p.stdout[-4000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, base, value):
    """How much worse `value` is than `base`, as a share of `base`."""
    change = (value - base) / base
    return -change if metric["better"] == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--bin", help="benchmark executable to run instead of the BENCHMARK.json command")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--save", help="write the medians to this file")
    ap.add_argument("--against", help="compare medians with a file written by --save")
    ap.add_argument("--holdout", type=int, help="a seed not used while tuning")
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cmd = [a.bin] if a.bin else bench["command"]
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    previous = json.load(open(a.against)) if a.against else {}
    medians, ok = {}, True

    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in parse_seeds(a.seeds):
            got = run(cmd, w, seed, seconds)
            for name in values:
                values[name].append(got[name])
        medians[w] = {}
        print(f"\n{w}")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            medians[w][m["name"]] = med
            steady = spread < m["bound"] / 3 or m["name"] == "setup_s"
            line = (f"  {m['name']:<24} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g}"
                    f" spread {spread:7.4f} (bound/3 {m['bound'] / 3:.4f}) {'ok' if steady else 'WIDE'}")
            if w in previous:
                drift = worse_by(m, previous[w][m["name"]], med)
                line += f" | vs saved {drift:+.4f} {'ok' if drift <= m['bound'] else 'WORSE'}"
                ok &= drift <= m["bound"]
            print(line)
            print("    " + " ".join(f"{x:.6g}" for x in v))
            ok &= steady
        if a.holdout is not None:
            got = run(cmd, w, a.holdout, seconds)
            for m in metrics:
                drift = worse_by(m, medians[w][m["name"]], got[m["name"]])
                within = drift <= m["bound"]
                print(f"  holdout seed {a.holdout}: {m['name']:<24} {got[m['name']]:<14.6g}"
                      f" worse by {drift:+.4f} {'ok' if within else 'OUTSIDE'}")
                ok &= within

    if a.save:
        json.dump(medians, open(a.save, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
