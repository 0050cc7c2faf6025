#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload feed --seed 1 --seconds 30 --trace 0

The C++ benchmark program is configured and built into ``$CARGO_TARGET_DIR``
(default ``.bench_build``) under the current directory; an up-to-date
build costs one no-op ``cmake --build``. Build output goes to stderr,
so the last line of stdout is always the program's JSON result. A
failed build exits non-zero without printing a result.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)


def build(build_root):
    """Configure (once) and build the program; return its path."""
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # Serialise concurrent first builds in one checkout.
    with open(os.path.join(build_root, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode:
                shutil.rmtree(build_dir, ignore_errors=True)
                sys.exit("perfbench: cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode:
            sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    sys.stdout.flush()
    result = subprocess.run([binary] + sys.argv[1:])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
