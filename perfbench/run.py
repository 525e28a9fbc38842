#!/usr/bin/env python3
"""End-to-end benchmark of the dedukt k-mer counter and its serving tier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload count-supermer --seed 1 --seconds 10 --trace 0

Builds the program from ../src into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench), generates the workload's inputs from the seed
in a set-up process, runs the workload in a second process, checks its
outputs against the benchmark's own reference, and prints one JSON object as
the last line of standard output: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. Exits 1 if a check fails, 2 on a usage or
build error. `--selftest` runs the checks' own test instead.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("count-supermer", "ingest-ooc", "serve-zipf")
# Simulated ranks (2, fixed in src/main.cpp) plus these pool threads stay
# within the 4 cores the benchmark is sized for.
SIM_THREADS = "1"
# Every run must end within this many seconds after the build.
RUN_DEADLINE_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once and builds; serialized by a lock for parallel runs."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", bdir, "-j4"], check=True,
                       stdout=sys.stderr)
    return bdir


def child_env(trace):
    env = dict(os.environ)
    env.pop("DEDUKT_TRACE", None)
    env["DEDUKT_SIM_THREADS"] = SIM_THREADS
    if trace:
        env["DEDUKT_TRACE_CLOCK"] = "wall"
    return env


def run_child(argv, env, timeout):
    """Runs one perfbench process; returns (wall seconds, parsed last line)."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - start
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{argv[1]} exited with {proc.returncode}")
    return wall, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the test showing every check can fail")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources at {os.path.join(ROOT, 'src')}; run from a checkout")
        return 2
    try:
        bdir = build()
    except (subprocess.CalledProcessError, OSError) as exc:
        log(f"build failed: {exc}")
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "perfbench_checks_test")],
                              cwd=bdir).returncode

    deadline = time.monotonic() + RUN_DEADLINE_S
    exe = os.path.join(bdir, "perfbench")
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    env = child_env(args.trace)
    try:
        setup_wall, setup = run_child([exe, "setup"] + common, env,
                                      deadline - time.monotonic())
        t0 = time.monotonic()
        _, run = run_child(
            [exe, "run"] + common + ["--seconds", repr(args.seconds),
                                     "--t0", repr(t0),
                                     "--trace", str(args.trace)],
            env, deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        log(f"workload {args.workload} did not complete: {exc}")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = setup["errors"] + run["errors"]
    for err in errors:
        log(f"check failed: {err}")
    metrics = dict(run["metrics"])
    if args.trace:
        for name, metric in setup["metrics"].items():
            if metrics.get(name, {}).get("value", 0) == 0:
                metrics[name] = metric
    else:
        metrics["setup_s"] = {"value": setup_wall + run["setup_tail_s"],
                              "unit": "s"}
    result = {
        "correct": not errors,
        "attempted": setup["attempted"] + run["attempted"],
        "failed": setup["failed"] + run["failed"],
        "metrics": dict(sorted(metrics.items())),
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
