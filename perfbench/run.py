#!/usr/bin/env python3
"""Build and run the whole-study benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --steadiness <k>

The first form builds the `perfbench` crate (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build` under the current directory)
and runs one measurement; the last stdout line is the result JSON. The
second form runs the untraced measurement k times with seeds n .. n+k-1
and prints, per end-to-end metric, the median, the quartiles, the
interquartile range and (max - min), both as shares of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within this many seconds beyond its measuring time.
GRACE_S = 150


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Compiler temporaries stay inside the target directory too.
    tmp = os.path.join(target_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir, TMPDIR=tmp)
    # Cargo's output goes to stderr so stdout carries only the result.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed (the repository's crates must sit beside perfbench/)")
    return os.path.join(target_dir, "release", "perfbench")


def run_once(binary, work_dir, workload, seed, seconds, trace, echo):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    if echo:
        sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.exit(f"perfbench: run exited with {done.returncode}")
    return done.stdout


def steadiness(binary, work_dir, args):
    values = {}
    for i in range(args.steadiness):
        out = run_once(binary, work_dir, args.workload, args.seed + i,
                       args.seconds, 0, echo=False)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        print(lines[-2], flush=True)
        print(f"seed {args.seed + i}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    print(f"{args.workload}: {args.steadiness} runs of {args.seconds} s")
    print(f"{'metric':<16}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>10}{'range/med':>11}")
    for name, (xs, unit) in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        print(f"{name:<16}{unit:>6}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{(q3 - q1) / med:>10.4f}{(max(xs) - min(xs)) / med:>11.4f}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="K",
                   help="run the untraced measurement K times and summarise its spread")
    args = p.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    work_dir = os.path.join(target_dir, "perfbench-work")
    if args.steadiness:
        steadiness(binary, work_dir, args)
    else:
        run_once(binary, work_dir, args.workload, args.seed, args.seconds, args.trace, echo=True)


if __name__ == "__main__":
    main()
