#!/usr/bin/env python3
"""Build oocq-serve and the benchmark binary, then run one benchmark pass.

Run from the repository root:

    python3 perfbench/run.py --workload hot_repeat --seed 1 --seconds 10 --trace 0

Build output goes to stderr; the last line of stdout is the result JSON.
Cargo honours CARGO_TARGET_DIR; without it both builds share ./target.
Inherited OOCQ_* variables are dropped: the benchmark sets every daemon knob.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("OOCQ_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, "target"))
    env["CARGO_TARGET_DIR"] = target
    cargo = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    builds = [
        cargo + [os.path.join(root, "Cargo.toml"), "--bin", "oocq-serve"],
        cargo + [os.path.join(bench, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench_bin = [
        os.path.join(release, "oocq-perfbench"),
        "--server",
        os.path.join(release, "oocq-serve"),
    ]
    return subprocess.run(bench_bin + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
