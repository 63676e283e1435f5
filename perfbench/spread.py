"""Run the benchmark over several seeds and report each metric's median and spread.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-5 --workloads coproduct --trace 1

Runs are sequential, one process at a time. For every workload and metric it
prints the median, the quartiles (statistics.quantiles with n=4), the
interquartile range as a share of the median next to the metric's bound in
BENCHMARK.json, and the share of failed operations. The raw values are
written to perfbench/out/spread-trace<0|1>.json. The reference figures in
perfbench/README.md come from this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,7'")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    raw = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        raw[workload] = runs
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"== {workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed share {shares}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or share < bound / 3 else "  <-- spread above bound/3"
            print(f"  {name:<28} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"iqr/median {share:7.4f}  bound {bound}{flag}")
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / f"spread-trace{args.trace}.json", "w") as fh:
        json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
