#!/usr/bin/env python3
"""Build ee-serve and the benchmark from this checkout, then run one workload.

    python3 perfbench/run.py --workload browse|ingest|routed --seed N --seconds S --trace 0|1

Run from the repository root. Both builds are release builds, offline,
into $CARGO_TARGET_DIR (default .bench_build). Build output goes to
stderr; the benchmark's last stdout line is its JSON result. Scratch
files (server logs, data directories, spans, reports) go to
.bench_build/perfbench-work.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args, env):
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                          cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo {' '.join(args)}")


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found; run from a full checkout", file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(["-p", "ee-serve", "--bin", "ee-serve"], env)
    build(["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")], env)
    env["EE_PERFBENCH_SERVE"] = os.path.join(target, "release", "ee-serve")
    env["EE_PERFBENCH_WORK"] = os.path.join(ROOT, ".bench_build", "perfbench-work")
    bench = os.path.join(target, "release", "ee-perfbench")
    return subprocess.run([bench] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
