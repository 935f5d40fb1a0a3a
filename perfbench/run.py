#!/usr/bin/env python3
"""Builds netd and the load generator from source, then runs one benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload warm|adhoc|write_mix --seed N \
        --seconds S --trace 0|1 [--validation-seed M]

Both programs are built in release mode under $CARGO_TARGET_DIR
(default .bench_build), each in its own subdirectory so the two Cargo
workspaces never rebuild each other's artifacts. Build output goes to
stderr; the load generator's last stdout line is the JSON result.

The load generator, and every netd it spawns, run pinned to one CPU.
Over one closed-loop connection the client and the server then hand
each request back and forth on that CPU, and no request waits for an
idle CPU to be woken: on a 2-vCPU virtual machine that wake-up, not
the program, set most of the run-to-run spread.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    builds = [
        (["cargo", "build", "--release", "--offline", "--quiet", "-p", "qarith-net",
          "--bin", "netd", "--manifest-path", os.path.join(root, "Cargo.toml")],
         os.path.join(target, "netd")),
        (["cargo", "build", "--release", "--offline", "--quiet",
          "--manifest-path", os.path.join(here, "Cargo.toml")],
         os.path.join(target, "perfbench")),
    ]
    for command, target_dir in builds:
        built = subprocess.run(command + ["--target-dir", target_dir], stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return 1
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    netd = os.path.join(target, "netd", "release", "netd")
    bench = os.path.join(target, "perfbench", "release", "perfbench")
    command = [bench, *sys.argv[1:], "--netd", netd,
               "--spans-dir", os.path.join(target, "spans")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
