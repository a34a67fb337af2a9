#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Builds `perfbench/` (its own Cargo
package, depending on the library by path) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the binary in a
process of its own, so its peak resident memory is the workload's. The
binary prints a header, one line per metric, and as its last line the JSON
result. Traced runs write their spans to
`$CARGO_TARGET_DIR/perfbench-trace/<workload>-<seed>.tsv`.

Exits non-zero without a result if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-engine", "fanout-classed", "filtered-async")
RUN_TIMEOUT_S = 170


def first_line(cmd):
    """First line of a command's output, or "unknown" if it fails."""
    try:
        out = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (out.strip().splitlines() or ["unknown"])[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env["PERFBENCH_RUSTC"] = first_line(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = first_line(["git", "rev-parse", "HEAD"])
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        trace_file = os.path.join(
            target, "perfbench-trace", f"{args.workload}-{args.seed}.tsv"
        )
        cmd += ["--trace-file", trace_file]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
