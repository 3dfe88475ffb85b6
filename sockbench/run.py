#!/usr/bin/env python3
"""Build eqsql-serve and the load generator, then run one benchmark run.

Run from the root of the repository:

    python3 sockbench/run.py --workload warm_equiv --seed 1 --seconds 8 --trace 0

Both binaries are release builds under $CARGO_TARGET_DIR (default
`.bench_build`). The load generator prints one line per metric and, as the
last line of standard output, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Exits non-zero, printing no result, if anything
cannot be built or run.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

# One run, after the build, must end within this many seconds.
RUN_LIMIT_S = 175
FIXTURE = os.path.join("crates", "service", "fixtures", "equiv_batch.req")
WORKLOADS = ("warm_equiv", "cold_cnb", "restart_disk")


def build(args):
    # Build output goes to stderr: standard output carries only results.
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                          stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if done.returncode != 0:
        sys.exit(f"run.py: cargo build {' '.join(args)} failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", FIXTURE, os.path.join("sockbench", "Cargo.toml")):
        if not os.path.isfile(needed):
            sys.exit(f"run.py: {needed} not found; run from the root of the repository")
    target = os.path.abspath(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build(["-p", "eqsql-net", "--bin", "eqsql-serve"])
    build(["--manifest-path", os.path.join("sockbench", "Cargo.toml")])
    started = time.monotonic()

    cmd = [os.path.join(target, "release", "sockbench"),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace),
           "--server", os.path.join(target, "release", "eqsql-serve"),
           "--fixture", FIXTURE,
           "--out", os.path.join("sockbench", "out")]
    # A process group of its own, so a timeout can stop the load generator and
    # the servers it started together.
    proc = subprocess.Popen(cmd, start_new_session=True, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: run exceeded {RUN_LIMIT_S}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
