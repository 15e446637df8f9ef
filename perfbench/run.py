#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload solve|dist|serve|train \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the benchmark
(the mosaicflow library from the checkout's sources plus
perfbench/src) into .bench_build/perfbench; later calls rebuild only
what changed. The workload then runs in a child process with a pinned
environment: every inherited MF_*, OMP_*, GOMP_* and KMP_* variable is
dropped and the workload's own OpenMP team size and compute precision
are set, so a stray shell variable cannot change the program under test.

--trace 1 also writes a Chrome trace (open it at ui.perfetto.dev) to
.bench_build/perfbench/traces/<workload>-seed<N>.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# workload -> (OpenMP kernel threads, MF_PRECISION), the one place these
# are set; the benchmark program checks and records them. Each workload
# uses two compute threads: `solve` as one caller with a 2-thread OpenMP
# team, the others as two serial ranks or workers.
WORKLOADS = {
    "solve": (2, "f64"),
    "dist": (1, "f64"),
    "serve": (1, "f64"),
    "train": (1, "f32"),
}
CHILD_TIMEOUT_S = 170
DROPPED_ENV_PREFIXES = ("MF_", "OMP_", "GOMP_", "KMP_")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    # Compiler temporaries stay inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}", 3)
            if rc != 0:
                fail(f"build failed ({' '.join(cmd[:3])}); see {log_path}", 3)
    return build_dir / "perfbench"


def pinned_env(omp_threads, precision):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(DROPPED_ENV_PREFIXES)}
    env["OMP_NUM_THREADS"] = str(omp_threads)
    env["OMP_DYNAMIC"] = "false"
    env["MF_PRECISION"] = precision
    return env


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def expected_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                    help="self-test: corrupt one output after the window")
    args = ap.parse_args()

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    if not (root / "BENCHMARK.json").is_file():
        fail("run from the root of the checkout (BENCHMARK.json not found)", 2)
    build_dir = root / ".bench_build" / "perfbench"
    binary = build(bench_dir, build_dir)

    omp_threads, precision = WORKLOADS[args.workload]
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--zoo", str(bench_dir / "zoo"), "--corrupt", str(args.corrupt)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    ticks0 = cpu_ticks()
    try:
        proc = subprocess.run(cmd, env=pinned_env(omp_threads, precision),
                              stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {CHILD_TIMEOUT_S} s", 4)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}", 5)

    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("PERFBENCH_INFO "):
        fail("malformed benchmark output", 6)
    result = json.loads(lines[-1])
    want = expected_metrics(root, args.trace)
    if args.trace:
        # A layer the workload does not exercise reads 0.
        for name, unit in want.items():
            result["metrics"].setdefault(name, {"value": 0.0, "unit": unit})
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metric set differs from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}", 6)
    # Share of CPU time the hypervisor gave to other guests while the
    # workload ran: a run measured during a noisy-neighbour spell shows it.
    info = json.loads(lines[-2].split(" ", 1)[1])
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        info["host_steal_pct"] = round(
            100 * (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]), 2)
    print("PERFBENCH_INFO " + json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
