"""Ablation — LSM compaction laziness vs illegal-retention window.

The paper's §1 motivation: tombstone deletes in LSM engines physically
retain deleted values until compaction merges them away ([62]).  The sweep
varies the size-tiered threshold (laziness) and measures (a) simulated
completion time and (b) how long deleted personal data stayed on disk —
the compliance hazard a "deletion means physical removal" grounding must
bound.

The second test is the Figure-4(c)-style row for the two physical LSM
groundings: "delete" (tombstone + victim compaction — rewrite the runs
holding the victim) against "strong delete" (tombstone cascade + full
compaction — rewrite every run), simulated time per erase over growing
record counts.  Both leave no copy site; they differ in what they pay for.
"""

import random

from conftest import emit, once, scaled

from repro.lsm.engine import LSMEngine
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems.backends import LsmBackend
from repro.workloads.base import OpKind
from repro.workloads.gdprbench import erasure_study_workload

THRESHOLDS = (2, 4, 8)


def _run(tier_threshold: int, record_count: int, n_txns: int):
    clock = SimClock()
    cost = CostModel(clock, CostBook())
    # Memtable sized relative to the dataset so flushes/compactions happen
    # at any REPRO_SCALE.
    engine = LSMEngine(
        cost,
        payload_bytes=70,
        memtable_capacity=max(128, record_count // 64),
        tier_threshold=tier_threshold,
    )
    for key in range(record_count):
        engine.put(key, (key, "payload"))
    workload = erasure_study_workload(record_count, n_txns, seed=11)
    for op in workload:
        if op.kind is OpKind.DELETE:
            engine.delete(op.key)
        elif op.kind is OpKind.READ:
            engine.get(op.key)
        else:
            engine.put(op.key, (op.key, "created"))
    engine.flush()
    unpurged = len(engine.unpurged_deletions())
    windows = [r.window for r in engine.retention_records() if r.window is not None]
    mean_window = sum(windows) / len(windows) / 1e6 if windows else 0.0
    return {
        "seconds": clock.now_seconds,
        "unpurged": unpurged,
        "mean_retention_s": mean_window,
        "compactions": engine.compaction_count,
        "runs": engine.run_count,
    }


def test_lsm_compaction_vs_retention(once):
    record_count = scaled(20_000, minimum=8_000)
    n_txns = scaled(10_000, minimum=4_000)

    def sweep():
        return {t: _run(t, record_count, n_txns) for t in THRESHOLDS}

    results = once(sweep)
    lines = [
        "Ablation: LSM tier threshold vs illegal-retention window",
        f"{'threshold':>9} | {'seconds':>9} | {'unpurged':>9} | "
        f"{'mean retention (s)':>19} | {'compactions':>11} | {'runs':>5}",
    ]
    for t, row in results.items():
        lines.append(
            f"{t:>9} | {row['seconds']:>9.1f} | {row['unpurged']:>9} | "
            f"{row['mean_retention_s']:>19.1f} | {row['compactions']:>11} | "
            f"{row['runs']:>5}"
        )
    emit("ablation_lsm", "\n".join(lines))

    # Lazier compaction leaves more deleted values physically on disk.
    assert results[8]["unpurged"] >= results[2]["unpurged"]
    # Eager compaction does more merge work.
    assert results[2]["compactions"] > results[8]["compactions"]
    # The hazard is real at every setting: some deletions linger un-purged
    # (or took measurable time to purge).
    assert any(
        row["unpurged"] > 0 or row["mean_retention_s"] > 0
        for row in results.values()
    )


GROUNDINGS = ("delete", "strong delete")


def _erase_cost(grounding: str, record_count: int, n_erases: int):
    clock = SimClock()
    backend = LsmBackend(
        CostModel(clock, CostBook()),
        memtable_capacity=256,  # caps a leveled table, whatever the scale
        compaction="leveled",
    )
    for key in range(record_count):
        backend.insert(key, (key, "payload"))
    rng = random.Random(11)
    for key in rng.sample(range(record_count), record_count // 4):
        backend.update(key, (key, "updated"))  # shadowed versions to find
    engine = backend.engine
    rewrites_before = engine.compaction_count
    residue = 0
    t0 = clock.now
    for key in rng.sample(range(record_count), n_erases):
        backend.erase_many([key], strong=grounding == "strong delete")
        residue += len(backend.copy_sites(key)) + len(backend.copy_locations(key))
        residue += int(backend.physically_present(key))
    return {
        "erase_us": (clock.now - t0) / n_erases,
        "residue": residue,
        "tables": engine.run_count,
        "rewrites_per_erase": (engine.compaction_count - rewrites_before) / n_erases,
    }


def test_lsm_delete_vs_strong_delete(once):
    record_counts = tuple(
        scaled(n, minimum=2_000) for n in (20_000, 40_000, 60_000, 80_000, 100_000)
    )
    n_erases = 10

    def sweep():
        return {
            n: {g: _erase_cost(g, n, n_erases) for g in GROUNDINGS}
            for n in record_counts
        }

    results = once(sweep)
    lines = [
        "LSM erase groundings vs record count (simulated us per erase)",
        f"{'records':>8} | {'delete (victim)':>16} | {'strong (full)':>14} | "
        f"{'ratio':>6} | {'tables':>6} | {'rewritten/erase':>15}",
    ]
    for n, row in results.items():
        victim, full = row["delete"], row["strong delete"]
        lines.append(
            f"{n:>8} | {victim['erase_us']:>16.0f} | {full['erase_us']:>14.0f} | "
            f"{full['erase_us'] / victim['erase_us']:>6.1f} | "
            f"{victim['tables']:>6} | {victim['rewrites_per_erase']:>15.2f}"
        )
    emit("ablation_lsm_groundings", "\n".join(lines))

    for n, row in results.items():
        # Both groundings verify clean; the cheaper one pays for the
        # victim's runs only.
        assert row["delete"]["residue"] == row["strong delete"]["residue"] == 0
        assert row["delete"]["erase_us"] < row["strong delete"]["erase_us"], n
        assert row["delete"]["rewrites_per_erase"] < row["delete"]["tables"], n
    sizes = sorted(results)
    if sizes[-1] > sizes[0]:
        def growth(g):
            return results[sizes[-1]][g]["erase_us"] - results[sizes[0]][g]["erase_us"]

        # Full compaction scales with the shard; victim compaction with
        # the (capped) tables the victim sits in.
        assert growth("strong delete") > growth("delete")
