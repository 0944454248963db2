#!/usr/bin/env python3
"""kmu benchmark entry point.

Builds perfbench/ (the kmu library sources plus the kmu_perfbench
binary) with CMake in Release mode, then runs one workload:

    python3 perfbench/run.py --workload sim_prefetch --seed 1 \\
        --seconds 30 --trace 0

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it
describes the host. --trace 1 prints the per-layer metrics instead
and writes the run's spans under the build directory.

Other modes:
    --selftest            check the counting allocator, the span
                          self-time rule and the oracle (a perturbed
                          model must be caught)
    --repeat N            run N seeds per workload and print median,
                          quartiles and spread of every metric
    --record-oracle       print oracle.json entries for seeds 1 and 7

Run from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ["sim_prefetch", "sim_serve", "rt_ondemand", "rt_prefetch",
             "rt_swqueue"]
# Knobs that select another event kernel or executor, or make library
# code append to BENCH_sweep.json; every run clears them.
CLEARED_ENV = ["KMU_PARALLEL", "KMU_PARALLEL_THREADS", "KMU_EVENT_KERNEL",
               "KMU_JOBS", "KMU_BENCH_JSON"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def clean_env():
    env = dict(os.environ)
    for name in CLEARED_ENV:
        env.pop(name, None)
    return env


def build():
    """Configure once, then let CMake rebuild whatever changed."""
    if not (ROOT / "src" / "core" / "sim_system.hh").is_file():
        fail(f"kmu sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return out / "kmu_perfbench"


def run_binary(binary, args, capture):
    """Run kmu_perfbench; return (exit code, stdout text)."""
    try:
        proc = subprocess.run([str(binary)] + args, cwd=ROOT,
                              env=clean_env(), timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout or ""


def workload_args(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--oracle", str(BENCH_DIR / "oracle.json")]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    return args


def repeat(binary, workloads, runs, seconds, first_seed, trace):
    """Steadiness evidence: per metric median, quartiles and the
    quartile spread as a share of the median."""
    ok = True
    for w in workloads:
        values = {}
        units = {}
        for seed in range(first_seed, first_seed + runs):
            code, out = run_binary(
                binary, workload_args(w, seed, seconds, trace), True)
            result = json.loads(out.strip().splitlines()[-1])
            ok &= code == 0 and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"== {w}: {runs} runs, seeds {first_seed}.."
              f"{first_seed + runs - 1}, {seconds} s each")
        print(f"{'metric':40} {'unit':>6} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:40} {units[name]:>6} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.2%}")
        sys.stdout.flush()
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--repeat", type=int, metavar="N")
    p.add_argument("--workloads", default=",".join(WORKLOADS),
                   help="comma-separated workloads for --repeat")
    p.add_argument("--record-oracle", action="store_true")
    a = p.parse_args()

    if a.seed < 0:
        fail("--seed must be >= 0")
    binary = build()
    if a.selftest:
        code, _ = run_binary(binary, ["--selftest", "--oracle",
                                      str(BENCH_DIR / "oracle.json")], False)
        return code
    if a.record_oracle:
        for w in ("sim_prefetch", "sim_serve"):
            code, _ = run_binary(binary, ["--record-oracle", w,
                                          "--seeds", "1,7"], False)
            if code != 0:
                return code
        return 0
    if a.repeat:
        workloads = [w for w in a.workloads.split(",") if w]
        for w in workloads:
            if w not in WORKLOADS:
                fail(f"unknown workload {w}")
        return repeat(binary, workloads, a.repeat, a.seconds, a.seed,
                      a.trace)
    if a.workload is None:
        fail("--workload is required")
    code, _ = run_binary(binary, workload_args(a.workload, a.seed,
                                               a.seconds, a.trace), False)
    return code


if __name__ == "__main__":
    sys.exit(main())
