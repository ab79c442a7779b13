#!/usr/bin/env python3
"""Serving benchmark of the sparsetir engine: build, run, report.

Run from the repository root:

    python3 perfbench/run.py --workload serve_warm --seed 1 \
        --seconds 10 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs one workload. With --trace 0 the last
stdout line is the end-to-end result; with --trace 1 it is the
per-layer breakdown. setup_s is the median of several set-ups, each
timed from process spawn to the process's READY line. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_warm", "serve_warm_native", "structure_churn")
# Set-ups timed per --trace 0 run: SETUP_SAMPLES - 1 set-up-only
# processes, half before and half after the serving process, plus the
# serving process itself, so the samples span the whole run.
SETUP_SAMPLES = 5
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def work_env(work_dir):
    """The C compilers (the build's and the native tier's) keep their
    temporaries in the work directory. (The benchmark binary drops
    every SPARSETIR_* variable itself.)"""
    env = dict(os.environ)
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build(build_dir, env):
    """Configure and build; returns the benchmark binary path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"] + generator,
        check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def spawn(cmd, env, deadline):
    """Run one benchmark process; returns (seconds from spawn to its
    READY line, stdout lines after READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            text=True)
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - start
                break
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("benchmark process timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError("benchmark process failed (exit %s)"
                           % proc.returncode)
    return ready, out.splitlines()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    work_dir = os.path.join(build_dir, "work")
    env = work_env(work_dir)
    try:
        binary = build(build_dir, env)
    except (subprocess.SubprocessError, OSError) as err:
        log("perfbench: build failed: %s" % err)
        return 1

    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--work-dir", work_dir]
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = []
        for _ in range(extra // 2):
            setups.append(spawn(base + ["--setup-only"], env, deadline)[0])
        ready, lines = spawn(
            base + ["--seconds", str(args.seconds),
                    "--trace", str(args.trace)], env, deadline)
        setups.append(ready)
        result = json.loads(lines[-1])
        for _ in range(extra - extra // 2):
            setups.append(spawn(base + ["--setup-only"], env, deadline)[0])
    except (RuntimeError, OSError, ValueError, IndexError) as err:
        log("perfbench: %s" % err)
        return 1

    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print("setup_s samples (spawn to ready): "
              + ", ".join("%.4f" % s for s in setups))
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
