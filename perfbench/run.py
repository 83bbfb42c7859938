#!/usr/bin/env python3
"""Build and run the simulator's steady-state speed benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload swim-1c-ap --seed 42 --seconds 10 --trace 0

Builds the benchmark package (`perfbench/Cargo.toml`, release profile,
offline) into `$CARGO_TARGET_DIR`, or `.bench_build` when that is unset,
with Cargo's home directory inside it, then runs it with the stored
reference digests. Cargo's output goes to
stderr; the benchmark's last stdout line is the result object. Every
argument is passed through (see `perfbench/README.md`).

`--write-reference` regenerates the stored digests after a deliberate
change of simulated outputs:

    python3 perfbench/run.py --write-reference --seeds 0-99
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
# Generous: the longest run (--seconds 60 plus set-up and probes) ends
# well inside it; a hung simulation is killed and reported.
RUN_TIMEOUT_S = 170


def main(argv):
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Cargo's own bookkeeping (its global cache tracker) goes next to the
    # build output, so a run writes nothing outside the checkout. The
    # build needs no registry: every dependency is a path.
    env["CARGO_HOME"] = os.path.abspath(os.path.join(target, "cargo-home"))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "fbd-perfbench")
    if "--write-reference" in argv:
        args = [a for a in argv if a != "--write-reference"]
        cmd = [exe, "--write-reference", REFERENCE] + args
        return subprocess.run(cmd, env=env).returncode
    try:
        proc = subprocess.run(
            [exe, "--reference", REFERENCE] + argv, env=env, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
