#!/usr/bin/env python3
"""Builds and runs the rumor workspace benchmark.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds `perfbench/` (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the named workload, and
prints the benchmark's lines followed, as the last line, by one JSON object
{"correct", "attempted", "failed", "metrics"} holding exactly the metrics
BENCHMARK.json lists: its `end_to_end` metrics with `--trace 0`, its
`per_layer` metrics with `--trace 1`. Exits non-zero, without a result
line, when the build or the run cannot produce one; exits non-zero after
the result line when an output check failed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else "0"
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "rumor-perfbench")
    try:
        run = subprocess.run([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run did not finish: {e}")
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"no result line (exit code {run.returncode})")

    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail(f"result lacks metrics {missing}")
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
