#!/usr/bin/env python3
"""Builds and runs the repository benchmark (the `perfbench` package).

One run, as the benchmark contract defines it (run from the repository root):

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

prints the benchmark's report; its last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit status is the
benchmark's: 0 when every check passed, 1 for a wrong verdict, a counter
mismatch or an invalid run, 2 or more when it could not run at all.

Repeat mode runs one workload N times with seeds K, K+1, ... and prints each
metric's median, quartiles and quartile spread (as a share of the median):

    python3 perfbench/run.py --repeat 10 --workload doc-edit --seconds 20 --trace 0

The benchmark is built from the sources in the repository with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`).
"""

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve-mix", "design-loop", "doc-edit")
# Linux `personality` flag that turns address-space randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000
# glibc malloc serves blocks of up to 32 MiB from its heap instead of fresh
# mappings and keeps freed memory instead of returning it to the kernel, so
# repeated opens and cold parses reuse pages instead of faulting them in
# again (page faults in a virtual machine cost what the host makes them
# cost: without this, doc-edit's open_doc_p50_us spread 0.3 over ten runs).
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}


def fixed_layout():
    """Runs in the benchmark's process before it starts: turns address-space
    randomisation off. With it on, where the heap and stacks land changes
    every timing by up to 1.5x from one run to the next."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def fail(message, code=3):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, target_dir):
    """Builds the benchmark and returns the path of its executable."""
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} is missing: run from the root of a repository checkout")
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        built = subprocess.run(command, env=env, timeout=BUILD_TIMEOUT_S,
                               stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail("the build timed out")
    except FileNotFoundError:
        fail("cargo is not installed")
    if built.returncode != 0:
        fail("the build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run_once(binary, target_dir, workload, seed, seconds, trace, echo):
    """Runs the benchmark once; returns (exit status, parsed result line)."""
    command = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--trace-out", os.path.join(target_dir, "perfbench-traces"),
    ]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, **MALLOC_ENV),
                              timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s", 4)
    lines = done.stdout.splitlines()
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def repeat(binary, target_dir, args):
    """Runs one workload `args.repeat` times and summarises every metric."""
    values = {}
    units = {}
    failures = 0
    for i in range(args.repeat):
        seed = args.seed + i
        status, result = run_once(binary, target_dir, args.workload, seed,
                                  args.seconds, args.trace, echo=False)
        if status != 0 or result is None or not result.get("correct"):
            failures += 1
            print(f"seed {seed}: exit status {status}, result {result}", flush=True)
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
            flush=True)
    print(f"\n{args.workload}, {args.repeat} runs of {args.seconds} s, trace {args.trace}, "
          f"{failures} failed")
    print(f"{'metric':<36} {'unit':<12} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8}")
    for name, vals in values.items():
        if len(vals) >= 2:
            q1, median, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = median = q3 = vals[0]
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:<36} {units[name]:<12} {q1:>14.6g} {median:>14.6g} {q3:>14.6g} "
              f"{spread:>8.3f}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times with seeds seed, seed+1, ... and summarise")
    args = parser.parse_args()
    root = os.getcwd()
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, target_dir)
    if args.repeat > 0:
        sys.exit(repeat(binary, target_dir, args))
    status, _ = run_once(binary, target_dir, args.workload, args.seed, args.seconds,
                         args.trace, echo=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
