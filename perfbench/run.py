#!/usr/bin/env python3
"""Builds the program from source and runs one benchmark workload.

    python3 perfbench/run.py --workload steady_fanout|catchup_herd|tcp_paced \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), and the
benchmark's temporary files go to a per-run directory under it that is
removed at exit. The last line of stdout is the run's JSON result; see README.md.
A build failure exits non-zero without a result. A crash or a hang of the
benchmark is reported as a failed run (correct: false) and exits non-zero.
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
WORKLOADS = ("steady_fanout", "catchup_herd", "tcp_paced")
RUN_TIMEOUT_S = 170


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release", *generator],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(build_dir, "perfbench")


def failed_run(why):
    sys.stderr.write("perfbench: %s\n" % why)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        if exc.stdout:
            sys.stdout.write(exc.stdout if isinstance(exc.stdout, str) else exc.stdout.decode())
        failed_run("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if proc.returncode < 0:
        # A crash is a failed run, never a dropped one: keep what it printed.
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()
                                 if not line.startswith("{")))
        failed_run("%s crashed with signal %s" % (args.workload,
                                                  signal.Signals(-proc.returncode).name))
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
