#!/usr/bin/env python3
"""Builds and runs the VoLUT benchmark.

    python3 perfbench/run.py --workload sr_stream --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (which includes the repository's own CMake project) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr, so the last stdout line
is the benchmark's JSON result. Each run also writes its volut-bench-v1 record
(and, traced, a Chrome trace and a metrics-registry dump) under
<build dir>/results/. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("sr_stream", "fleet_large", "fleet_faults", "all")


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench").resolve()


def build():
    """Configures (once) and builds volut_perfbench; its path, or None."""
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "volut_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    binary = out / "volut_perfbench"
    return binary if binary.exists() else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (self-check only)")
    args = parser.parse_args(argv)

    binary = build()
    if binary is None:
        return 1
    results = build_dir() / "results"
    results.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                    "-tiny" if args.tiny else "")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--json", str(results / (stem + ".json"))]
    if args.trace:
        cmd += ["--trace-out", str(results / (stem + ".trace.json")),
                "--metrics-out", str(results / (stem + ".metrics.json"))]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
