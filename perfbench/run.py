#!/usr/bin/env python3
"""End-to-end benchmark of the cbi pipeline (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload live-triage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload, one table
    python3 perfbench/run.py --self-test                      # unit tests + a tiny run of each

Builds `bin/cbi.exe` and `perfbench/bench.exe` from source with dune, then
runs the benchmark binary.  In single-workload mode the last line of
standard output is the result JSON.  Exits non-zero when the build fails
or any answer check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["drilldown", "ingest-load", "live-triage", "collect-analyze"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
CBI = os.path.join("_build", "default", "bin", "cbi.exe")
WORK = os.path.join("perfbench", "_work")


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.exit("perfbench: not a source checkout (no dune-project or lib/)")
    cmd = ["dune", "build", "--root", ".", "./bin/cbi.exe", "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.exit("perfbench: build failed")


def run_bench(args, timeout):
    """Runs bench.exe in its own process group; returns (exit code, stdout)."""
    proc = subprocess.Popen([BENCH] + args, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: %s timed out" % " ".join(args[:3]))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out.decode(errors="replace")


def workload_args(workload, seed, seconds, trace, size="full"):
    return ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size, "--cbi", CBI, "--work", WORK]


def result_of(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def single(a):
    code, out = run_bench(workload_args(a.workload, a.seed, a.seconds, a.trace), timeout=170)
    res = result_of(out)
    if res is None:
        sys.stderr.write(out)
        sys.exit("perfbench: %s printed no result (exit %d)" % (a.workload, code))
    sys.stdout.write(out)
    sys.exit(code)


def every(a, size="full"):
    bad = []
    print("%-16s %-24s %16s  %s" % ("workload", "metric", "value", "unit"))
    for w in WORKLOADS:
        code, out = run_bench(workload_args(w, a.seed, a.seconds, a.trace, size), timeout=600)
        res = result_of(out)
        for line in out.strip().splitlines()[:-1]:
            if "tail_ms is" in line or "check failed" in line or "warning" in line:
                print("# " + line)
        if res is None or code != 0 or not res["correct"] or res["failed"] != 0:
            bad.append(w)
        if res is not None:
            for name, m in res["metrics"].items():
                print("%-16s %-24s %16.6g  %s" % (w, name, m["value"], m["unit"]))
            print("%-16s %-24s %16d  of %d attempted" % (w, "failed", res["failed"], res["attempted"]))
    if bad:
        sys.exit("perfbench: checks failed on " + ", ".join(bad))


def self_test():
    code, out = run_bench(["selftest", "--work", WORK], timeout=300)
    sys.stdout.write(out)
    if code != 0:
        sys.exit("perfbench: self-test failed")
    args = argparse.Namespace(seed=1, seconds=2, trace=0)
    every(args, size="tiny")
    args.trace = 1
    every(args, size="tiny")
    print("perfbench: self-test passed")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload and print one table")
    p.add_argument("--self-test", action="store_true", help="unit tests and a tiny run of every workload")
    a = p.parse_args()
    os.chdir(ROOT)
    build()
    if a.self_test:
        self_test()
    elif a.all:
        every(a)
    elif a.workload:
        single(a)
    else:
        p.error("give --workload, --all or --self-test")


if __name__ == "__main__":
    main()
