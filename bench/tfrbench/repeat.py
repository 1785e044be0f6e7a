#!/usr/bin/env python3
"""Repeat the benchmark and report how steady each end-to-end metric is.

    python3 bench/tfrbench/repeat.py [--runs 10] [--sets 2] [--workloads a,b]

Run from the root of a checkout. Makes `--sets` sets of `--runs` runs of
every workload, each run with its own seed, the workloads interleaved within
each round. For each metric and workload it prints, per set, the median and
the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median. It flags a spread above
the metric's bound in BENCHMARK.json ("SPREAD"), or above a third of it
("wide"), and a later set whose median is worse than the first set's by more
than the bound ("DRIFT"). A run that fails, is not correct or reports
failures has the tail of its stderr printed. Exits 1 if any run failed or
anything is flagged SPREAD or DRIFT.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def run_once(spec, workload, seed):
    """The run's JSON result; with the tail of its stderr when it did not pass."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n"
              + "\n".join(proc.stderr.splitlines()[-12:]), file=sys.stderr)
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    if not first:
        return float("inf")
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", help="comma-separated; default all")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    failed = {w: [] for w in workloads}  # (set, seed) of runs that did not pass
    seed = 0
    for s in range(args.sets):
        for r in range(args.runs):
            order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
            for w in order:
                seed += 1
                result = run_once(spec, w, seed)
                passed = bool(result and result["correct"] and not result["failed"])
                print(f"set {s} run {r} {w} seed {seed}: {'ok' if passed else 'FAILED'}",
                      file=sys.stderr, flush=True)
                if result:
                    results[w][s].append({"seed": seed, **result})
                if not passed:
                    failed[w].append((s, seed))

    flagged = False
    for w in workloads:
        print(f"\n{w}")
        if failed[w]:
            flagged = True
            print(f"  runs that did not pass (set, seed): {failed[w]}")
        for m in metrics:
            cells, notes = [], []
            medians = []
            for s in range(args.sets):
                values = [x["metrics"][m["name"]]["value"] for x in results[w][s]
                          if m["name"] in x["metrics"]]
                if len(values) < 2:
                    cells.append("   (too few runs)")
                    medians.append(None)
                    continue
                med, sp = statistics.median(values), spread(values)
                medians.append(med)
                cells.append(f"{med:12.5g} {sp:7.1%}")
                bound = m.get("bound")
                if bound is not None and sp > bound:
                    notes.append(f"SPREAD(set {s})")
                elif bound is not None and sp > bound / 3:
                    notes.append(f"wide(set {s})")
            bound = m.get("bound")
            if bound is not None and medians[0] is not None:
                for s in range(1, args.sets):
                    if medians[s] is not None and worse_by(m, medians[0], medians[s]) > bound:
                        notes.append(f"DRIFT(set {s})")
            flagged = flagged or any(n.startswith(("SPREAD", "DRIFT")) for n in notes)
            bound_text = f"bound {bound:.0%}" if bound is not None else ""
            print(f"  {m['name']:34s} {' | '.join(cells)}  {bound_text:10s} {' '.join(notes)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
