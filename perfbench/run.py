#!/usr/bin/env python3
"""Builds the benchmark and `tridentd`, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload native_access --seed 1 --seconds 25 --trace 0

Both binaries go to the cargo target directory (`CARGO_TARGET_DIR`, else
`target`). The arguments pass through to the benchmark binary unchanged,
and its exit code is returned; a failed build exits 1 before any result
is printed. The benchmark, and the `tridentd` it spawns, run with the
malloc settings in `MALLOC`.
"""

import os
import subprocess
import sys

BUILD = ["cargo", "build", "--release", "--offline", "--quiet"]
# glibc malloc keeps freed memory in the process (allocations up to 32 MB
# come from the heap, which is never trimmed), so later cells reuse pages
# that are already mapped. Page faults on fresh memory cost what the
# host's memory pressure makes them cost, which swings by far more than
# the program's own work.
MALLOC = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}
TARGETS = [
    ["--manifest-path", "perfbench/Cargo.toml"],
    ["--manifest-path", "Cargo.toml", "-p", "trident-bench", "--bin", "tridentd"],
]


def main():
    # One target directory for both workspaces, so that the benchmark
    # finds `tridentd` beside itself.
    target_dir = os.environ.get("CARGO_TARGET_DIR", "target")
    for target in TARGETS:
        build = BUILD + ["--target-dir", target_dir] + target
        if subprocess.run(build, stdout=sys.stderr).returncode != 0:
            return 1
    binary = os.path.join(target_dir, "release", "trident-perfbench")
    env = dict(os.environ, **MALLOC)
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
