"""Benchmark for nlsl2: closed-loop passes over a fixed list of operations.

Usage (from the repository root):

    python3 perfbench/run.py --workload irrep_ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process and one caller: each operation is issued after the previous one
returns. The package is imported from src/ next to this directory. With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it runs
half its time untraced and half traced, and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles as orc
from tracing import Tracer
from workloads import WORKLOADS, Program, self_test

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 7


def package_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "nlsl2" or k.startswith("nlsl2.")}


def set_up(name: str, seed: int, out_file: Path):
    """Import nlsl2 afresh, generate the inputs and warm up; returns (seconds, program, workload)."""
    for mod in package_modules():
        del sys.modules[mod]
    t0 = perf_counter()
    nl = importlib.import_module("nlsl2")
    if Path(nl.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"nlsl2 was imported from {nl.__file__}, not from {SRC}")
    prog = Program(nl, importlib.import_module("nlsl2.cli"), str(out_file))
    workload = WORKLOADS[name](prog, random.Random(seed))
    a = np.ones((64, 64))
    float((a @ a).sum())  # BLAS threads
    nl.alpha_from_beta([1] * (workload.max_order + 1))  # Bernoulli / epsilon caches
    next(op for op in workload.ops if op.name == workload.smallest).run()
    return perf_counter() - t0, prog, workload


def rejects(op, out) -> bool:
    """Whether the op's oracles reject out."""
    try:
        op.check(out)
    except orc.Mismatch:
        return True
    except orc.FalseFail:
        pass
    return False


class Passes:
    """Whole passes over the workload's operations, timed around the program calls only."""

    def __init__(self, workload):
        self.workload = workload
        self.pass_times: list[float] = []
        self.op_times: dict[str, list[float]] = {op.name: [] for op in workload.ops}
        self.failures: Counter = Counter()
        self.examples: dict[str, str] = {}
        self.attempted = 0
        self.control_errors: list[str] = []

    def run(self, seconds: float, tracer: Tracer | None = None, controls: bool = False,
            between=None) -> list[float]:
        """Whole passes until `seconds` have elapsed; between(elapsed) runs after every operation."""
        times = []
        start = perf_counter()
        while True:
            times.append(self._one_pass(tracer, controls, between, start))
            controls = False
            if perf_counter() - start >= seconds:
                return times

    def _fail(self, reason: str, op, detail: str):
        self.failures[reason] += 1
        self.examples.setdefault(f"{reason}:{op.name}", detail)

    def _one_pass(self, tracer, controls, between, start) -> float:
        total = 0.0
        for op in self.workload.ops:
            self.attempted += 1
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # the program raised: record it, keep the pass going
                out = exc
            finally:
                elapsed = perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            self.op_times[op.name].append(elapsed)
            total += elapsed
            if isinstance(out, Exception):
                self._fail("raised", op, f"{type(out).__name__}: {out}")
                continue
            try:
                op.check(out)
            except orc.FalseFail as exc:
                self._fail("false_fail", op, f"program reported FAIL on a correct object: {exc}")
            except orc.Mismatch as exc:
                self._fail("wrong_output", op, str(exc))
            if controls and op.perturb is not None and not rejects(op, op.perturb(out)):
                self.control_errors.append(f"{op.name}: a 1e-9 relative error in J+ was not rejected")
            del out  # free it before the next op runs; the checks allocate no dense copies of it
            if between is not None:
                between(perf_counter() - start)
        self.pass_times.append(total)
        return total


def run_workload(args) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cli_out = OUT / f"{tag}-cli.json"
    seconds, prog, workload = set_up(args.workload, args.seed, cli_out)
    setups = [seconds]
    control_errors = self_test(prog)
    prog.prepare()
    # The oracles' expected values live as long as the run; keep the collector
    # from rescanning them inside the program's timed calls.
    gc.collect()
    gc.freeze()
    passes = Passes(workload)
    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    if args.trace:
        untraced = passes.run(args.seconds / 2, controls=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced = passes.run(args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        states = sum(op.states() if callable(op.states) else op.states for op in workload.ops)
        metrics = tracer.summary(len(traced), states)
        overhead = statistics.median(traced) - statistics.median(untraced)
        print(f"tracing overhead: {overhead:.6f} s per pass "
              f"(traced {statistics.median(traced):.6f} s over {len(traced)} passes, "
              f"untraced {statistics.median(untraced):.6f} s over {len(untraced)} passes)")
        for fn, incl, calls in tracer.top_functions(len(traced)):
            print(f"  {fn:<40} {incl:12.6f} s inclusive per pass, {calls:g} calls")
        raw.update(tracing_overhead_s=overhead, traced_pass_s=traced, untraced_pass_s=untraced)
        with open(OUT / f"{tag}-spans.json", "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": tracer.span_records()}, fh)
    else:
        def sample_set_up(elapsed):
            """Set-up samples spread over the run, between operations: host speed
            drifts over seconds. The passes keep their own package."""
            if len(setups) < SETUPS and elapsed >= len(setups) * args.seconds / SETUPS:
                loaded = package_modules()
                setups.append(set_up(args.workload, args.seed, cli_out)[0])
                for mod in package_modules():
                    del sys.modules[mod]
                sys.modules.update(loaded)
                gc.collect()  # the sample's copy of the package, before the next op runs

        passes.run(args.seconds, controls=True, between=sample_set_up)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += [set_up(args.workload, args.seed, cli_out)[0] for _ in range(SETUPS - len(setups))]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(passes.pass_times), "s"),
            "largest_op_s": (statistics.median(passes.op_times[workload.largest]), "s"),
            "smallest_op_s": (statistics.median(passes.op_times[workload.smallest]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    raw["setup_s"] = setups
    control_errors += passes.control_errors
    correct = not control_errors and passes.failures["wrong_output"] == 0
    failed = sum(passes.failures.values())
    raw.update(passes=len(passes.pass_times), pass_s=passes.pass_times,
               op_s=passes.op_times,
               failures=dict(passes.failures), failure_examples=passes.examples,
               control_errors=control_errors)
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(raw, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6f} {unit}")
    print(f"passes {len(passes.pass_times)}, operations attempted {passes.attempted}, failed {failed} "
          f"(raised {passes.failures['raised']}, wrong output {passes.failures['wrong_output']}, "
          f"false FAIL {passes.failures['false_fail']})")
    for key, detail in passes.examples.items():
        print(f"  {key}: {detail}")
    for err in control_errors:
        print(f"  negative control: {err}")
    return {"correct": correct, "attempted": passes.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nlsl2" / "__init__.py").is_file():
        print(f"error: the nlsl2 sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
