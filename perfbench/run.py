#!/usr/bin/env python3
"""Builds and runs the autocat serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload cold-strata --seed 1 --record stream.txt
    python3 perfbench/run.py --replay stream.txt --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is built from the sources next to this directory into
$CARGO_TARGET_DIR (default: .bench_build) at the root of the checkout; all
other flags go to the benchmark binary, whose last line of standard output
is the result as one JSON object.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out: Path) -> Path:
    cmake_dir = out / "cmake"
    log = sys.stderr
    if not (cmake_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", str(cmake_dir), "--target", "autocat_perfbench",
         "-j", "4"],
        check=True, stdout=log, stderr=log)
    return cmake_dir / "autocat_perfbench"


def main() -> int:
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, FileNotFoundError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1
    scratch = out / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    args = [str(binary), "--scratch", str(scratch)] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
