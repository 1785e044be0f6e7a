#!/usr/bin/env python3
"""Build tfrbench from this checkout and run it once.

    python3 bench/tfrbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/tfrbench/run.py --smoke

Run from the root of a checkout. The first run configures the repository's
own CMake project with the tfrbench target hooked in (tfrbench.cmake), so
the benchmark compiles with exactly the root's flags, and builds it in
build-bench; later runs rebuild only what changed. Build output goes to
stderr: the last line on stdout is the benchmark's JSON result. A traced run
also writes its spans to build-bench/tfrbench-trace-<workload>.json.

--smoke runs every workload for 3 s with one trial, untraced and traced,
and checks that each prints every metric BENCHMARK.json names and that its
audit passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, "build-bench")
HOOK = os.path.join(ROOT, "bench", "tfrbench", "tfrbench.cmake")
BINARY = os.path.join(BUILD, "tfrbench")


def build():
    """Configure once, then build the tfrbench target; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", ROOT, "-B", BUILD, *generator,
                      f"-DCMAKE_PROJECT_INCLUDE={HOOK}"])
    steps.append(["cmake", "--build", BUILD, "--target", "tfrbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print(f"run.py: {' '.join(cmd[:2])} failed", file=sys.stderr)
            return False
    return True


def bench_command(workload, seed, seconds, trace, trials=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trials is not None:
        cmd += ["--trials", str(trials)]
    return cmd


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(bench_command(workload, 1, 3, trace, trials=1),
                                  stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            missing = [m["name"] for m in spec[key] if m["name"] not in result.get("metrics", {})]
            audited = bool(result.get("correct")) and result.get("failed") == 0
            passed = audited and not missing
            print(f"smoke {workload} trace={trace}: {'ok' if passed else 'FAILED'}"
                  + (f" missing {missing}" if missing else "")
                  + ("" if audited else " (audit or run failed)"))
            ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    return subprocess.run(bench_command(args.workload, args.seed, args.seconds, args.trace,
                                        args.trials)).returncode


if __name__ == "__main__":
    sys.exit(main())
