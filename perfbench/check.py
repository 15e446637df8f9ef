#!/usr/bin/env python3
"""Steadiness and self-test tools for the repository benchmark.

    python3 perfbench/check.py aa [--runs 10] [--workloads solve,dist]
    python3 perfbench/check.py selftest [--seconds 4]

`aa` runs two interleaved sets (A and B) of the same build: for each seed
1..runs and each workload it runs A then B (B then A on odd seeds), all
untraced. For every workload x end-to-end metric it prints each set's
median and quartiles, the spread (quartile distance over median), the
relative difference of B's median from A's, and a verdict against the
metric's bound in BENCHMARK.json:
  steady  - both spreads under a third of the bound and B within the bound
  ok      - spreads under the bound and B within it
  NOISY   - a spread over the bound
  DRIFT   - B's median worse than A's by more than the bound
Runs whose workload fingerprint (config_hash) differs from the first run
of that workload are a new series and are not compared; runs of one seed
must share their input_hash. The raw results are saved under
.bench_build/perfbench/. Exit status is 1 when any verdict is NOISY or
DRIFT, or any run failed its output checks.

`selftest` runs every workload once normally (ok_frac must be 1) and once
with one output corrupted after the timed window (ok_frac must drop
below 1), proving that each workload's output check can fail.

Run from the root of the checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = [sys.executable, "perfbench/run.py"]


def run_once(workload, seed, seconds, trace=0, corrupt=0):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--corrupt", str(corrupt)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"check: {' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].split(" ", 1)[1])
    return {"info": info, "result": json.loads(lines[-1])}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def aa(args, spec):
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {w: {"A": [], "B": []} for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            order = ("A", "B") if seed % 2 else ("B", "A")
            for side in order:
                rec = run_once(w, seed, seconds)
                rec["seed"] = seed
                runs[w][side].append(rec)
                m = rec["result"]["metrics"]
                print(f"  seed {seed:2d} {w:5s} {side}: " + "  ".join(
                    f"{k}={v['value']:.4g}" for k, v in sorted(m.items())) +
                    f"  steal={rec['info'].get('host_steal_pct', '?')}%",
                    flush=True)

    out_dir = Path(".bench_build/perfbench")
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = out_dir / f"aa-{time.strftime('%Y%m%d-%H%M%S')}.json"
    raw.write_text(json.dumps(runs, indent=1))

    bad = False
    print(f"\nA/A report: {args.runs} runs per set, {seconds} s each "
          f"(raw results: {raw})")
    print(f"{'workload':8s} {'metric':17s} {'bound':>5s} "
          f"{'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
          f"{'A spr':>6s} {'B spr':>6s} {'B-A':>7s}  verdict")
    for w in workloads:
        series = runs[w]["A"] + runs[w]["B"]
        base = series[0]["info"]["config_hash"]
        new_series = [r for r in series if r["info"]["config_hash"] != base]
        if new_series:
            print(f"{w}: {len(new_series)} runs have another workload "
                  f"fingerprint: new series, not compared")
            bad = True
            continue
        for ra, rb in zip(runs[w]["A"], runs[w]["B"]):
            if ra["info"]["input_hash"] != rb["info"]["input_hash"]:
                print(f"{w}: seed {ra['seed']} inputs differ between sets")
                bad = True
        if any(not r["result"]["correct"] for r in series):
            print(f"{w}: some runs failed their output checks")
            bad = True
        steal = {side: statistics.median(r["info"].get("host_steal_pct", 0)
                                         for r in runs[w][side])
                 for side in ("A", "B")}
        print(f"{w}: median host steal A {steal['A']:.1f}%, B {steal['B']:.1f}%")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["result"]["metrics"][name]["value"] for r in runs[w]["A"]]
            vb = [r["result"]["metrics"][name]["value"] for r in runs[w]["B"]]
            a1, am, a3, asp = spread(va)
            b1, bm, b3, bsp = spread(vb)
            diff = (bm - am) / am
            worse = diff if metric["better"] == "lower" else -diff
            if worse > bound:
                verdict = "DRIFT"
            elif max(asp, bsp) > bound:
                verdict = "NOISY"
            elif max(asp, bsp) < bound / 3:
                verdict = "steady"
            else:
                verdict = "ok"
            bad = bad or verdict in ("DRIFT", "NOISY")
            print(f"{w:8s} {name:17s} {bound:5.2f} "
                  f"{am:11.5g} [{a1:9.5g}, {a3:9.5g}] "
                  f"{bm:11.5g} [{b1:9.5g}, {b3:9.5g}] "
                  f"{asp:6.1%} {bsp:6.1%} {diff:+7.1%}  {verdict}")
    return 1 if bad else 0


def selftest(args, spec):
    bad = False
    for w in args.workloads.split(","):
        clean = run_once(w, 1, args.seconds)["result"]
        broken = run_once(w, 1, args.seconds, corrupt=1)["result"]
        ok_clean = clean["metrics"]["ok_frac"]["value"]
        ok_broken = broken["metrics"]["ok_frac"]["value"]
        passed = (clean["correct"] and ok_clean == 1.0 and
                  not broken["correct"] and ok_broken < 1.0)
        bad = bad or not passed
        print(f"{w:6s} clean ok_frac={ok_clean:.4f} ({clean['attempted']} ops)  "
              f"corrupted ok_frac={ok_broken:.4f} "
              f"(failed {broken['failed']} of {broken['attempted']})  "
              f"{'PASS' if passed else 'FAIL'}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description="benchmark steadiness tools")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("aa", help="A/A steadiness report")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--seconds", type=float, default=0,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p = sub.add_parser("selftest", help="corruption self-test")
    p.add_argument("--seconds", type=float, default=4)
    p.add_argument("--workloads", default="solve,dist,serve,train")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    sys.exit(aa(args, spec) if args.cmd == "aa" else selftest(args, spec))


if __name__ == "__main__":
    main()
