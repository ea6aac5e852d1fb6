"""Self-test of the spine on miniature workloads (``--scale 0.01``).

Checks the benchmark, not the system: every metric ``BENCHMARK.json``
names is emitted with its unit, nothing fails the oracle on the working
seed or on the held-out one, spans nest and their self times add up to
the span they belong to, and a seed fixes the op sequence.  No timing is
asserted: below ``--scale 1`` a run does not gate its own timings either
(trace accounting, generator lateness), so eight runs sharing two CPUs
cannot fail on a deschedule.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spine.workloads import WORKLOADS, digest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SCALE = 0.01
SEED, HELD_OUT_SEED = 13, 29
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each workload once per mode, all at once: the working seed
    end-to-end, the held-out seed traced (with its spans kept)."""
    out = tmp_path_factory.mktemp("spine")
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    procs = {}
    for n, name in enumerate(WORKLOADS):
        for trace, seed in ((0, SEED), (1, HELD_OUT_SEED)):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", "0.4", "--trace", str(trace),
                "--scale", str(SCALE),
            ]
            if trace:
                cmd += ["--spans", str(out / f"{name}.json")]
            # A run pins itself to the highest CPU it may use; hand the
            # CPUs out in turn so the eight do not all share one.
            cpu = cpus[(2 * n + trace) % len(cpus)] if cpus else None
            procs[name, trace] = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                preexec_fn=(lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))
                if cpus else None,
            )
    results = {}
    for key, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stdout + stderr
        lines = stdout.splitlines()
        assert lines[-2].startswith("detail ")
        results[key] = {
            "result": json.loads(lines[-1]),
            "detail": json.loads(lines[-2][len("detail "):]),
            "lines": lines,
        }
    return results, out


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(runs, trace, kind):
    results, _out = runs
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(NAME.match(name) for name in declared)
    for name in WORKLOADS:
        run = results[name, trace]
        assert set(run["result"]) == {"correct", "attempted", "failed", "metrics"}
        emitted = {k: v["unit"] for k, v in run["result"]["metrics"].items()}
        assert emitted == declared
        for metric, unit in declared.items():
            assert any(
                line.startswith(f"{name} {metric} ") and line.endswith(f" {unit}")
                for line in run["lines"]
            ), metric
        if kind == "end_to_end":  # … and none of those is ever 0
            assert all(m["value"] > 0 for m in run["result"]["metrics"].values())


def test_nothing_fails_on_either_seed(runs):
    results, _out = runs
    for run in results.values():
        assert run["result"]["correct"] is True
        assert run["result"]["failed"] == 0
        assert run["result"]["attempted"] >= 1
        assert run["detail"]["fail_frac"] == 0


def test_a_seed_fixes_the_op_sequence(runs):
    results, _out = runs
    for name, workload in WORKLOADS.items():
        ours = digest(workload, SEED, SCALE)
        held_out = digest(workload, HELD_OUT_SEED, SCALE)
        assert ours != held_out
        # The runs computed theirs in other processes.
        assert results[name, 0]["detail"]["inputs"]["op_digest"] == ours
        assert results[name, 1]["detail"]["inputs"]["op_digest"] == held_out


def test_spans_nest_and_add_up(runs):
    results, out = runs
    for name in WORKLOADS:
        spans = json.loads((out / f"{name}.json").read_text())
        by_id = {s["id"]: s for s in spans}
        caused = {c for s in spans for c in s["children"]}

        def total(span):
            return span["self_us"] + span["codec_us"] + sum(
                total(by_id[c]) / by_id[c]["shared_by"] for c in span["children"]
            )

        roots = 0
        for span in spans:
            assert span["self_us"] >= -1e-3, span
            for child in map(by_id.__getitem__, span["children"]):
                assert span["start_us"] <= child["start_us"], (span, child)
                assert child["end_us"] <= span["end_us"], (span, child)
            if span["rid"] >= 0 and span["id"] not in caused:
                roots += 1
                duration = span["end_us"] - span["start_us"]
                assert total(span) == pytest.approx(duration, rel=1e-6, abs=1e-3)
        assert roots
