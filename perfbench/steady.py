#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload repeatedly, untraced, in two sets separated by a
pause, alternating the workloads within each set (forward order on
even rounds, reverse on odd ones). Each round uses a new seed. For
each workload and end-to-end metric it prints, per set, the median,
the quartiles and the spread (inter-quartile distance over the
median), then the drift of the second median against the first in
the metric's worse direction, and compares both with the bound in
BENCHMARK.json. The bounds there are set from this script's output.

    python3 perfbench/steady.py

Run from the repository root. Each set makes 10 rounds, the sets are
60 s apart, run r of set s (both counted from 0) uses seed
1000 + 10 * s + r, and every run lasts run_seconds of
BENCHMARK.json. Every end-to-end metric is held to its bound,
setup_s too, although setup_s is a single cold sample per run. A
summary is also written as JSON under .bench_steady/ (ignored by
git).
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 2
RUNS = 10
GAP_S = 60
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return result, wall


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        if s:
            print(f"pausing {GAP_S:.0f} s between sets", flush=True)
            time.sleep(GAP_S)
        for i in range(RUNS):
            seed = SEED_BASE + s * RUNS + i
            order = workloads if i % 2 == 0 else workloads[::-1]
            for w in order:
                result, wall = run_once(w, seed, seconds)
                results[w][s].append(result)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      f"{wall:.1f} s wall", flush=True)

    report = {}
    ok = True
    for w in workloads:
        report[w] = {}
        shares = [{r["failed"] / r["attempted"] for r in results[w][s]}
                  for s in range(SETS)]
        if any(len(x) != 1 for x in shares) or len(set().union(*shares)) != 1:
            print(f"{w}: failed share differs between runs: {shares}")
            ok = False
        for name, spec in metrics.items():
            sets = [summary([r["metrics"][name]["value"]
                             for r in results[w][s]])
                    for s in range(SETS)]
            entry = {"sets": sets, "bound": spec["bound"]}
            line = f"{w:7s} {name:20s}"
            for st in sets:
                line += (f" | med {st['median']:.6g} q1 {st['q1']:.6g} "
                         f"q3 {st['q3']:.6g} spread {st['spread']:.3f}")
            first, second = sets[0]["median"], sets[1]["median"]
            drift = (second - first) / first
            if spec["better"] == "higher":
                drift = -drift
            entry["drift"] = drift
            line += f" | drift {drift:+.3f}"
            worst_spread = max(st["spread"] for st in sets)
            flags = []
            if worst_spread > spec["bound"]:
                flags.append("SPREAD>BOUND")
                ok = False
            elif worst_spread > spec["bound"] / 3:
                flags.append("spread>bound/3")
            if drift > spec["bound"]:
                flags.append("DRIFT>BOUND")
                ok = False
            line += f" | bound {spec['bound']} {' '.join(flags) or 'ok'}"
            print(line)
            report[w][name] = entry

    os.makedirs(".bench_steady", exist_ok=True)
    out = os.path.join(".bench_steady",
                       time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(out, "w") as f:
        json.dump({"seconds": seconds, "runs": RUNS,
                   "results": results, "report": report}, f, indent=1)
    print(f"wrote {out}; {'all within bounds' if ok else 'OUT OF BOUNDS'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
