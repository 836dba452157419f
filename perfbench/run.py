#!/usr/bin/env python3
"""Builds and runs the ShamirDB end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload olap_scan --seed 1 --seconds 10 --trace 0

Workloads: olap_scan, point_batched, oltp_durable (see perfbench/README.md).
Each run configures and builds perfbench/CMakeLists.txt (the library from
src/ plus the benchmark program) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; only the first run compiles from scratch. Build
output goes to stderr. The program's report goes to stdout, and its last
line is the result JSON. Each run also writes a capture with every metric to
.bench_build/captures/<workload>-seed<seed>-trace<0|1>.json, which
perfbench/compare.py reads.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build_root() -> Path:
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return out if out.is_absolute() else ROOT / out


def build(build_dir: Path) -> Path:
    """Configures and builds the benchmark; returns the binary path."""
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr, cwd=ROOT)
    return build_dir / "shamirdb_bench"


def commit_id() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            check=True, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_root()
    try:
        binary = build(out / "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    workdir = out / "run" / f"{args.workload}-{os.getpid()}"
    capture = (out / "captures" /
               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--capture", str(capture), "--commit", commit_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
