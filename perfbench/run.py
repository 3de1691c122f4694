#!/usr/bin/env python3
"""Builds and runs the two-clock benchmark (see perfbench/README.md).

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload n1_checkpoint --seed 1 --seconds 10 --trace 0

Self-test (observer effect and determinism across processes):

    python3 perfbench/run.py --selftest

The benchmark program is built from the repository's sources with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to
the repository root); build output goes to stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("n1_checkpoint", "restart_read", "create_storm")


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Configures (once) and builds the program; returns its path or None."""
    bdir = build_root() / "perfbench"
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release", *gen],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)  # retry the configure next time
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return bdir / "perfbench" if made.returncode == 0 else None


def spans_path(workload):
    """One span file per workload, overwritten by each traced run."""
    d = build_root() / "perfbench-spans"
    d.mkdir(parents=True, exist_ok=True)
    return d / f"{workload}.jsonl"


def run(binary, workload, seed, seconds, trace, capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(spans_path(workload))]
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True)


def selftest(binary, seconds):
    """Per workload, one seed: two untraced processes and one traced one
    must print bit-identical virtual metrics (each process also checks its
    own rounds, traced against untraced), pass their output checks, and
    report exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for w in WORKLOADS:
        virt = []
        for trace in (0, 0, 1):
            p = run(binary, w, 7, seconds, trace, capture=True)
            lines = p.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else {}
            virt.append([l for l in lines if l.startswith("virt ")])
            if p.returncode != 0 or not result.get("correct"):
                print(f"FAIL {w} trace={trace}: exit {p.returncode}, checks failed")
                ok = False
            if list(result.get("metrics", {})) != names[trace]:
                print(f"FAIL {w} trace={trace}: metrics differ from BENCHMARK.json")
                ok = False
        if not virt[0] or virt.count(virt[0]) != len(virt):
            print(f"FAIL {w}: virtual metrics differ between runs of one seed")
            ok = False
        else:
            print(f"ok   {w}: {len(virt[0])} virtual metrics bit-identical "
                  "across 2 untraced runs and 1 traced run")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return 0 if selftest(binary, min(args.seconds, 3)) else 1
    return run(binary, args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
