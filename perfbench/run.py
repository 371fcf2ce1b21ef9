#!/usr/bin/env python3
"""h1loc benchmark: one workload, one process, closed loop, one client.

    python3 perfbench/run.py --workload twist-criteria --seed 0 \\
        --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  Operations go through `h1loc.cli.run(argv)` in-process, one at a
time.  A run times whole rounds of the workload's operation list until
`--seconds` have passed (at least one round), then checks every output
apart from the program (checks.py; not timed).  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics: wall_s (median round time),
op_p50_s and op_p90_s (per-operation percentiles, Harrell-Davis
estimates), setup_s (the median of five set-ups, each importing
h1loc.cli in a fresh interpreter, writing the inputs and running one
warm-up op) and peak_rss_mb (high-water mark at the end of the first
round).  The times are seconds at the reference speed of the box
(speed.py): each op's wall time scaled by the box's speed while it ran,
as a fixed probe measures it ten times a second.  --trace 1 ignores
--seconds: it times exactly one round with spans around each layer's
public functions (tracer.py) and reports the per-layer metrics instead,
so that they are the program's work per round however fast a round is.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORT_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:]
from speed import SpeedProbe
with SpeedProbe() as speed:
    t0 = time.perf_counter()
    import h1loc.cli
    t1 = time.perf_counter()
print(speed.reference_seconds(t0, t1))
"""


def import_program():
    """Import h1loc.cli from this checkout's src/."""
    if not (SRC / "h1loc" / "cli.py").is_file():
        raise SystemExit(f"error: no h1loc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import h1loc.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "h1loc":
        raise SystemExit(f"error: imported h1loc from {cli.__file__}")
    return cli


def import_seconds():
    """Reference seconds to import h1loc.cli (numpy with it) in a fresh
    interpreter, timed and scaled inside it.  This process imports only
    once, so each set-up times the import in a child of its own."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC),
                           str(HERE)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout)


def execute(cli, argv):
    """Run one operation; returns (stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.run(argv)
    except (Exception, SystemExit) as exc:
        return out.getvalue(), f"{type(exc).__name__}: {exc}"
    return out.getvalue(), None


def run_round(cli, ops):
    """[(op start, op end, stdout, error)] for one pass, in perf_counter.

    Garbage left by one op is collected before the next starts, untimed, as
    if each op were its own process (which is how the CLI is used)."""
    results = []
    clock = time.perf_counter
    for op in ops:
        gc.collect()
        t0 = clock()
        stdout, error = execute(cli, op.argv)
        results.append((t0, clock(), stdout, error))
    return results


def problems_of(op, stdout, error):
    if error is not None:
        return [f"raised {error}"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["missing or unparsable JSON output"]
    try:
        return op.check(out)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"malformed output: {exc!r}"]


def hd_quantile(values, p, steps=100):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density over their
    ranks.  The op times of twist-criteria cluster by group size with gaps
    between the clusters; a single order statistic jumps across a gap when
    two ops swap places, while these weights spread over the ranks nearby."""
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    x = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(w @ v / w.sum())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli = import_program()
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    make = WORKLOADS[args.workload]
    # The traced run reports no times, so it takes no speed probes.
    speed = SpeedProbe()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        with contextlib.nullcontext() if args.trace else speed:
            setups = []       # (import seconds, in-process start, end)
            for rep in range(SETUP_REPEATS):
                imported = import_seconds()
                t0 = time.perf_counter()
                workdir = Path(tmp) / f"setup{rep}"
                workdir.mkdir()
                workload = make(args.seed, workdir)
                _, error = execute(cli, workload.warmup)
                if error is not None:
                    raise SystemExit(f"error: warm-up op failed: {error}")
                setups.append((imported, t0, time.perf_counter()))
            ops = workload.ops

            tracer = Tracer() if args.trace else contextlib.nullcontext()
            with tracer:
                start = time.perf_counter()
                rounds = [run_round(cli, ops)]
                # Read after the first round: a second gsp4-enumerate round
                # raised the mark from 287 to 321 MB, so a program fast
                # enough for more rounds per run would read worse.
                peak_rss_mb = (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024)
                while (not args.trace
                       and time.perf_counter() - start < args.seconds):
                    rounds.append(run_round(cli, ops))

        attempted = failed = 0
        correct = True
        for results in rounds:
            for op, (_, _, stdout, error) in zip(ops, results):
                attempted += 1
                problems = problems_of(op, stdout, error)
                if problems:
                    failed += 1
                    correct &= op.known_fault
                    print(f"FAILED {op.label}: {'; '.join(problems)}",
                          file=sys.stderr)

    if args.trace:
        metrics = tracer.layer_metrics()
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        ref = [[speed.reference_seconds(t0, t1) for t0, t1, _, _ in results]
               for results in rounds]
        print("rounds, wall s: "
              + " ".join(f"{sum(t1 - t0 for t0, t1, _, _ in r):.3f}"
                       for r in rounds)
              + "; at reference speed: "
              + " ".join(f"{sum(r):.3f}" for r in ref), file=sys.stderr)
        # one time per op (its median over the rounds), so the percentiles
        # weigh every op once however many rounds fit in --seconds
        op_times = [statistics.median(r[i] for r in ref)
                    for i in range(len(ops))]
        setup_s = statistics.median(imported
                                    + speed.reference_seconds(t0, t1)
                                    for imported, t0, t1 in setups)
        metrics = {
            "wall_s": {"value": statistics.median(sum(r) for r in ref),
                       "unit": "s"},
            "op_p50_s": {"value": hd_quantile(op_times, 0.5), "unit": "s"},
            "op_p90_s": {"value": hd_quantile(op_times, 0.9), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
