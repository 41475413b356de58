#!/usr/bin/env python3
"""End-to-end benchmark of the Cinder simulator.

Builds perfbench/ (cinder_perfbench and the library sources under src/) into
.bench_build/, runs one workload, checks its outputs against the reference
stored for the seed, and prints one JSON object as the last line:

  python3 perfbench/run.py --workload fleet_steady --seed 1 --seconds 40 --trace 0

--workload all runs every workload in turn. --repeat N runs the workload N
times with seeds seed..seed+N-1 and prints each metric's median, quartiles
and IQR / median. --record stores this run's checks as the reference for
the seed. Exits 1 when an output check fails, 2 when the build fails or the
arguments are bad.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "cinder_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("fleet_steady", "fleet_churn", "fleet_apps")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds cinder_perfbench; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "cinder_perfbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        except OSError as err:
            log(f"build failed: {err}")
            return False
        if proc.returncode != 0:
            log(f"build failed: {' '.join(cmd)} exited {proc.returncode}")
            return False
    return True


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def run_once(workload, seed, seconds, trace):
    """Runs cinder_perfbench; returns (result dict or None, checks dict, exit code)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, {}, 3
    lines = out.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    checks = {}
    for line in lines:
        print(line)
        if line.startswith("check "):
            _, name, value = line.split()
            checks[name] = value
    return result, checks, proc.returncode


def compare(workload, seed, checks, reference):
    """Mismatches against the stored reference; none when the seed has none."""
    want = reference.get(workload, {}).get(str(seed))
    if want is None:
        print(f"info no stored reference for {workload} seed {seed}")
        return []
    return [f"{name}: got {checks.get(name)} want {value}" for name, value in sorted(want.items())
            if checks.get(name) != value]


def run_checked(workload, seed, seconds, trace, record=False):
    """One checked run; returns (result dict or None, exit code)."""
    result, checks, code = run_once(workload, seed, seconds, trace)
    if result is None:
        log(f"{workload}: cinder_perfbench exited {code} without a result")
        return None, code or 1
    reference = load_reference()
    # Recording replaces the stored reference instead of checking against it.
    mismatches = [] if record else compare(workload, seed, checks, reference)
    for m in mismatches:
        log(f"REFERENCE MISMATCH {workload} seed {seed}: {m}")
    if mismatches:
        # Every simulation of the run computed the wrong result.
        result["correct"] = False
        result["failed"] = result["attempted"]
        code = code or 1
    if record and code == 0:
        reference.setdefault(workload, {})[str(seed)] = checks
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=2, sort_keys=True)
            f.write("\n")
        log(f"recorded the reference for {workload} seed {seed}")
    return result, code


def repeat(workload, seed, seconds, trace, n):
    """Repeat mode: n runs on seeds seed..seed+n-1, then the spread per metric."""
    values = {}
    units = {}
    worst = 0
    for k in range(n):
        result, code = run_checked(workload, seed + k, seconds, trace)
        worst = worst or code
        if result is None:
            continue
        print(f"repeat run seed {seed + k}: {json.dumps(result)}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"repeat {workload}: {n} runs, seeds {seed}..{seed + n - 1}")
    print(f"{'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/median':>10s}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:10.4f} {units[name]}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    if not build():
        return 2
    if args.repeat > 0:
        return repeat(args.workload, args.seed, args.seconds, args.trace, args.repeat)
    if args.workload == "all":
        worst = 0
        summary = {}
        for w in WORKLOADS:
            print(f"== {w}")
            result, code = run_checked(w, args.seed, args.seconds, args.trace, args.record)
            worst = worst or code
            summary[w] = result
        print(json.dumps(summary))
        return worst
    result, code = run_checked(args.workload, args.seed, args.seconds, args.trace, args.record)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
