#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, compared against
the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --log .perfbench-out/steady.jsonl

Each set makes ten `run.py --trace 0` runs of every workload in
BENCHMARK.json, each in its own process with its own seed (set s, run i
uses seed 3000 + 10 s + i); workloads take turns within a set.  Per
workload and end-to-end metric it prints each set's median and quartile
spread (Q3 - Q1 over the median, quartiles as statistics.quantiles(n=4)
gives them), the signed change of the median, and whether

  - the spread of each set is within the metric's bound,
  - the two medians differ by no more than the bound, either way,
  - the share of failed operations is the same in both sets.

Exits 1 if any of these fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10
FIRST_SEED = 3000


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def one_run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--log", help="append every run's result here as JSON")
    args = ap.parse_args()

    if args.log:
        Path(args.log).parent.mkdir(parents=True, exist_ok=True)
    results = {(s, w): [] for s in range(SETS) for w in names}
    for s in range(SETS):
        for i in range(RUNS):
            seed = FIRST_SEED + s * RUNS + i
            for w in names:
                res = one_run(w, seed, bench["run_seconds"])
                results[(s, w)].append(res)
                line = {"set": s, "workload": w, "seed": seed, **res}
                print(json.dumps(line), file=sys.stderr)
                if args.log:
                    with open(args.log, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(line) + "\n")

    ok = True
    for w in names:
        shares = [sum(r["failed"] for r in results[(s, w)]) /
                  sum(r["attempted"] for r in results[(s, w)])
                  for s in range(SETS)]
        same = len(set(shares)) == 1
        ok &= same and all(r["correct"] for s in range(SETS)
                           for r in results[(s, w)])
        print(f"{w}: failed share per set {shares} "
              f"({'same' if same else 'DIFFERENT'})")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in results[(s, w)]]
                    for s in range(SETS)]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            change = (meds[1] - meds[0]) / meds[0]
            good = all(x <= bound for x in spreads) and abs(change) <= bound
            ok &= good
            print(f"  {name:12s} bound {bound:.2f}  medians "
                  + "  ".join(f"{x:.4g}" for x in meds)
                  + f"  change {change:+.1%}  spreads "
                  + "  ".join(f"{x:.3f}" for x in spreads)
                  + ("  ok" if good else "  OUT OF BOUND"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
