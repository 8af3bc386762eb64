#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--trace-seed N]

Run from the repository root. Builds `o2o_serve` and the `perfbench`
load generator from source into the build directory (CARGO_TARGET_DIR if
set, else .bench_build), then runs one measurement. The last line of
stdout is the JSON result; the exit code is non-zero when the build
fails, an output is wrong, or a metric named in BENCHMARK.json is
missing. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        done = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout)
    if done.returncode != 0:
        with open(log) as out:
            sys.stderr.write(out.read()[-4000:])
        fail("command failed: " + " ".join(cmd))


def build(build_dir):
    """Configures once, then builds incrementally; returns the two binaries."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no repository sources next to perfbench/; run from a full checkout")
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, log, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", cmake_dir, "--target", "o2o_serve", "perfbench",
                "-j", "4"], log, BUILD_TIMEOUT_S)
    return (os.path.join(cmake_dir, "perfbench"),
            os.path.join(cmake_dir, "o2o", "examples", "o2o_serve"))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-seed", type=int,
                        help="replay another demand draw (the held-out claim check)")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bench, server = build(build_dir)
    expected = expected_metrics(args.trace)

    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", server, "--work-dir", os.path.join(build_dir, "work")]
    if args.trace_seed is not None:
        cmd += ["--trace-seed", str(args.trace_seed)]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)

    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line (exit code %d)" % child.returncode)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if child.returncode == 0 and got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    print(json.dumps(result))
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
