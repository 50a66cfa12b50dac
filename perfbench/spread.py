"""Run the benchmark over several seeds and report each metric's spread.

From the root of a checkout:

    python3 perfbench/spread.py --runs 10 --seconds 30 [--workload NAME ...] [--json out.json]

For every workload and end-to-end metric it prints the median of the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the bound BENCHMARK.json gives the metric. Seeds run 1..N. Every run
must exit 0 and report correct; a run that does not stops the script.
With --json it also runs each workload once traced (first seed) and
writes the host facts, every run's readings, the spreads and the
per-layer readings to the file: the format of BASELINE.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    rep = json.loads(lines[-1])
    if not rep["correct"] or rep["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {rep['failed']} of {rep['attempted']} failed")
    host = next((l[len("host: "):] for l in proc.stderr.splitlines() if l.startswith("host: ")), "")
    return rep, host


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    result = {}
    host = ""
    for w in names:
        values = {}
        for seed in range(1, args.runs + 1):
            rep, host = run_once(w, seed, args.seconds, 0)
            for k, m in rep["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in sorted(rep["metrics"].items())), flush=True)
        result[w] = {}
        for k in sorted(values):
            s = spread(values[k])
            med = statistics.median(values[k])
            result[w][k] = {"median": med, "spread": s, "bound": bounds[k], "values": values[k]}
            flag = "" if s <= bounds[k] / 3 else ("  > bound/3" if s <= bounds[k] else "  > BOUND")
            print(f"  {w:14s} {k:16s} median {med:14.6g} spread {s:7.4f} bound {bounds[k]:.2f}{flag}",
                  flush=True)
    if args.json:
        layers = {}
        for w in names:
            rep, _ = run_once(w, 1, args.seconds, 1)
            layers[w] = {k: m["value"] for k, m in sorted(rep["metrics"].items())}
            print(f"{w} traced: " + " ".join(f"{k}={v:.6g}" for k, v in layers[w].items()), flush=True)
        with open(args.json, "w") as f:
            json.dump({"host": host, "run_seconds": args.seconds, "seeds": [1, args.runs],
                       "end_to_end": result, "per_layer_first_seed": layers}, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
