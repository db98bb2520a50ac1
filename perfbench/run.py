#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload table1|sweep|explore|soak \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark (perfbench/CMakeLists.txt)
builds the simulator libraries from src/ into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to standard error, so the
last line of standard output is the benchmark's result object. BENCHMARK.json
lists the workloads the benchmark gates on; soak runs but is not listed (see
GLOSSARY.md). --selftest builds and runs the benchmark's unit tests and checks
that BENCHMARK.json names exactly the metrics the binary reports.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "soak", "sweep", "explore")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src; run from a full checkout" % ROOT)
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        fail("build of %s failed" % target)
    return os.path.join(build_dir, target)


def selftest():
    tests = build("perfbench_tests")
    if subprocess.run([tests], stdout=sys.stderr, cwd=ROOT).returncode != 0:
        fail("unit tests failed")
    bench = build("slm_perfbench")
    listed = subprocess.run([bench, "--list-metrics"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    reported = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        reported[kind].append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for kind in reported:
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != reported[kind]:
            fail("BENCHMARK.json %s metrics differ from the binary's: %s vs %s"
                 % (kind, declared, reported[kind]))
    names = [w["name"] for w in spec["workloads"]]
    if not set(names) <= set(WORKLOADS):
        fail("BENCHMARK.json workloads %s, runnable are %s" % (names, list(WORKLOADS)))
    print("perfbench selftest: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")
    bench = build("slm_perfbench")
    sys.stdout.flush()
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
