#!/usr/bin/env python3
"""Run one groundkit benchmark workload and print its metrics.

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from anywhere; the program is imported from `src/` next to this
directory.  One caller runs the operations in a closed loop on one thread:
the next operation starts when the previous one returns.  A run

1. generates the workload's inputs from the seed;
2. sets up 7 times (import groundkit afresh, build what the operations
   share) and reports the median as `setup_s`;
3. runs one untimed round, whose outputs are checked and kept for reference;
4. times whole rounds until `--seconds` have passed, comparing each output
   with the reference round;
5. checks the reference outputs, and prints one JSON object as its last line.

Reported times are scaled to a nominal processor speed by `speed.SpeedProbe`,
which samples the processor's speed on a timer throughout.

With `--trace 0` the JSON holds the end-to-end metrics; with `--trace 1`
spans are recorded around the program's module boundaries and it holds the
per-layer metrics.  `--workload all` runs every workload, each in a fresh
interpreter.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / ".out"
SETUP_REPEATS = 7
#: a traced run starts no new round once this many spans are held in memory
SPAN_BUDGET = 1_000_000
MODULES = ("sexpr", "terms", "designs", "interaction", "behaviours",
           "translate", "cli")


def import_groundkit():
    """Import groundkit from this checkout's src/, dropping any earlier copy
    so the import is timed in full."""
    for name in [n for n in sys.modules
                 if n == "groundkit" or n.startswith("groundkit.")]:
        del sys.modules[name]
    gk = importlib.import_module("groundkit")
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"groundkit.{m}") for m in MODULES},
        package=gk)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "groundkit" / "__init__.py").is_file():
        print(f"error: no groundkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer, UNITS, layer_metrics

    w = workloads.WORKLOADS[workload](seed, OUT / f"{workload}-{seed}")
    w.write_files()
    with SpeedProbe() as speed:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter_ns()
            gk = import_groundkit()
            shared = w.setup(gk)
            setups.append((t0, time.perf_counter_ns()))
        if not Path(gk.package.__file__).resolve().is_relative_to(SRC):
            print(f"error: groundkit was imported from "
                  f"{gk.package.__file__}", file=sys.stderr)
            return 2

        ops = w.operations(gk, shared)
        try:
            reference = [op() for op in ops]
        except Exception as e:
            print(f"error: the reference round failed: {type(e).__name__}: "
                  f"{e}", file=sys.stderr)
            return 1

        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
            w.setup(gk)                  # traced once, as operation 0
        spans: list[tuple[int, int]] = []
        attempted = failed = rounds = 0
        errors: list[str] = []
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            if tracer is not None and len(tracer) > SPAN_BUDGET:
                break
            for i, op in enumerate(ops):
                attempted += 1
                if tracer is not None:
                    tracer.begin_op()
                t0 = time.perf_counter_ns()
                try:
                    out = op()
                except Exception as e:   # counted, and the run goes on
                    failed += 1
                    errors.append(f"operation {i}: {type(e).__name__}: {e}")
                    continue
                finally:
                    spans.append((t0, time.perf_counter_ns()))
                if out != reference[i]:
                    failed += 1
                    errors.append(f"operation {i}: output differs from the "
                                  "reference round")
            rounds += 1
        batch_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    problems = w.check(gk, shared, reference)
    for msg in (errors[:5] + problems[:20]):
        print(f"problem: {msg}", file=sys.stderr)

    raw_ms = [(e - s) / 1e6 for s, e in spans]
    print(f"inputs: {json.dumps(w.make_up())}")
    print(f"{workload} seed {seed}: {rounds} rounds of {len(ops)} "
          f"operations in {batch_s:.2f} s; unscaled: "
          f"{1000 * len(raw_ms) / sum(raw_ms):.4f} ops/s, median "
          f"{statistics.median(raw_ms):.4f} ms, set-up "
          f"{statistics.median((e - s) / 1e9 for s, e in setups):.4f} s; "
          f"speed probe median {speed.median_ns() / 1e3:.1f} µs")
    if tracer is not None:
        values = layer_metrics(tracer, attempted)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        path = OUT / f"trace-{workload}-{seed}.json.gz"
        tracer.write(path)
        print(f"trace: {len(tracer)} spans written to "
              f"{path.relative_to(BENCH.parent)}")
    else:
        op_s = [speed.scaled(s, e) for s, e in spans]
        metrics = {
            "setup_s": {"value": statistics.median(
                speed.scaled(s, e) for s, e in setups), "unit": "s"},
            "ops_per_s": {"value": len(op_s) / sum(op_s), "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(op_s),
                          "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems and not errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["classify", "translate", "reduce", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.workload != "all":
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in ("classify", "translate", "reduce"):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], check=False)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
