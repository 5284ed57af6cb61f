#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The driver binary is built with CMake under
$CARGO_TARGET_DIR (default .bench_build) on first use; later runs reuse
it. Build output goes to stderr, so the last line of stdout is the
driver's JSON result. Exits non-zero, without a result, when the build
or the run fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    source_dir = os.path.join(root, "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    tmp_dir = os.path.join(root, build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j4"],
        stdout=sys.stderr, env=env, check=True)
    result = subprocess.run(
        [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
         "--out-dir", os.path.join(root, build_root)],
        cwd=root, timeout=RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
