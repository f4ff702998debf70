#!/usr/bin/env python3
"""Build the VINESTALK benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload fleet|sweep|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The harness is configured with CMake from
perfbench/ (which builds the repository's src/ libraries) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset, and rebuilt incrementally on every call. Build output goes to
standard error; standard output carries only the harness's own output,
whose last line is the result as one JSON object. Exits non-zero, without a
result, when the sources are missing or the build fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally; returns the binary path."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The compiler's scratch files stay inside the build tree.
    env = dict(os.environ, TMPDIR=tmp)
    # One build at a time per build tree.
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, env=env, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                       stdout=sys.stderr, env=env, check=True)
    return os.path.join(out_dir, "vs_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet", "sweep", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no VINESTALK sources (src/CMakeLists.txt) in "
              + ROOT, file=sys.stderr)
        return 2
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print("run.py: build failed: %s" % err, file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
