"""Reference figures: run every workload on several seeds and summarise.

    python3 perfbench/reference.py --seeds 1-10 [--trace] [--label A]

Runs perfbench/run.py once per workload of BENCHMARK.json and seed, one run
at a time and for the benchmark's `run_seconds`, and prints for every metric
its median, first and third quartile (`statistics.quantiles(values, n=4)`)
and the spread (Q3 - Q1) / median.  With --trace each workload also gets
one traced run on the first seed, and the tracing overhead
1 - traced / median untraced instances_per_s is printed.  Raw results go to
perfbench/out/reference-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(arg: str) -> list[int]:
    out = []
    for part in arg.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, s, spec["run_seconds"], 0) for s in seeds(args.seeds)]
        entry = {"runs": runs, "correct": all(r["correct"] for r in runs),
                 "failed_share": [r["failed"] / r["attempted"] for r in runs]}
        for name in runs[0]["metrics"]:
            entry[name] = summary([r["metrics"][name]["value"] for r in runs])
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n**{workload}**, seeds {args.seeds}: correct {entry['correct']}, "
              f"{failed} of {attempted} operations failed\n")
        print("| metric | median | Q1 | Q3 | spread |\n|---|---|---|---|---|")
        for name in runs[0]["metrics"]:
            m = entry[name]
            print(f"| `{name}` | {m['median']:.4g} | {m['q1']:.4g} | {m['q3']:.4g} "
                  f"| {m['spread']:.3f} |")
        if args.trace:
            seed = seeds(args.seeds)[0]
            traced = run(workload, seed, spec["run_seconds"], 1)
            entry["traced"] = traced
            traced_rate = traced["metrics"]["trace.instances_per_s"]["value"]
            plain = entry["instances_per_s"]["median"]
            entry["trace_overhead"] = 1 - traced_rate / plain
            print(f"\nTraced run, seed {seed}: overhead {entry['trace_overhead']:.1%} "
                  f"({traced_rate:.3f} instances/s against the untraced median {plain:.3f}); "
                  f"per round, metrics that read 0 left out:\n")
            print("| metric | value | unit |\n|---|---|---|")
            for name, m in traced["metrics"].items():
                if m["value"]:
                    print(f"| `{name}` | {m['value']:.6g} | {m['unit']} |")
        sys.stdout.flush()
        report[workload] = entry
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"reference-{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
