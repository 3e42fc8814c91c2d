#!/usr/bin/env python3
"""Builds the formad benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); each run's scratch space (the daemon's store
directory, the compiler's temporaries) lives under it and is removed
afterwards. A traced run leaves its Chrome trace in <build>/traces/.
The last line of stdout is the benchmark's JSON result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_cold", "serve_warm", "adjoint_run")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to "
                           "perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError("malformed result keys: %s" % sorted(result))
    if result["attempted"] < 1 or not result["metrics"]:
        raise RuntimeError("empty result")
    if not trace and result["metrics"].keys() != {
            "setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
            "cpu_ms_per_op", "peak_rss_mb"}:
        raise RuntimeError("unexpected end-to-end metric set")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR")
        or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)

    work = os.path.join(build_dir, "run-%d" % os.getpid())
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--golden-dir", os.path.join(HERE, "golden")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("benchmark exited with %d" % proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError("benchmark printed nothing")
        check_result(lines[-1], args.trace == 1)
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            name = "trace_%s.json" % args.workload
            shutil.move(os.path.join(work, name), os.path.join(traces, name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line, flush=True)


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as e:
        log("perfbench/run.py:", e)
        sys.exit(1)
