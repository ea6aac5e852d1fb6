"""From what a pass recorded to the numbers ``BENCHMARK.json`` names."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from spine import trace
from spine.check import COLLECT, ERASE, READ, UPDATE
from spine.harness import Run
from spine.loadgen import KIND_CODE, KINDS, Tally

#: Percentiles above the median need ten samples beyond them.
P99_MIN_SAMPLES = 1000
#: ``erase_growth`` compares medians of tenths; below this many erases a
#: tenth it reads 0.0 (not measured): the dozen erases ``http_mixed``'s
#: first tenth holds are the ones that replay each shard's backlog.
GROWTH_MIN_TENTH = 30

Metrics = Dict[str, Tuple[float, str]]  # name → (value, unit)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(fraction * len(sorted_values)))]


def _us(seconds: float) -> float:
    return seconds * 1e6


def latencies(
    tallies: Sequence[Tally], kinds: Sequence[str] = KINDS, since: float = 0.0
) -> List[float]:
    """Sorted speed-normalised latencies of the requests of ``kinds``
    that started at or after ``since``."""
    codes = {KIND_CODE[kind] for kind in kinds}
    return sorted(
        (done - start) * speed
        for t in tallies
        for kind, start, done, speed in zip(t.kind, t.start, t.done, t.speed)
        if kind in codes and start >= since
    )


def _p99(sample: Sequence[float]) -> float:
    """p99, or 0.0 (not measured) below ``P99_MIN_SAMPLES`` samples."""
    if len(sample) < P99_MIN_SAMPLES:
        return 0.0
    return _us(percentile(sample, 0.99))


def ops_per_s(run: Run) -> float:
    """Main-phase completions per second.  A closed loop's rate is the
    system's speed, so its clock is speed-normalised; an open loop's rate
    is its schedule's, so its clock is the wall's."""
    elapsed = 0.0
    for begin, end, speed in run.main_slices:
        if end > run.counted_from:
            wall = end - max(begin, run.counted_from)
            elapsed += wall if run.workload.rate else wall * speed
    return run.main_ops / elapsed


def sched_lag_p99_us(run: Run) -> float:
    """Open loop: how late the generator woke, at p99, for the requests it
    slept for (wall time); 0.0 on a closed loop."""
    return _us(percentile(sorted(lag for t in run.clients for lag in t.lags), 0.99))


def main_kinds(run: Run) -> Sequence[str]:
    """The op class most of the mix is: reads, or writes (collect + update).
    ``op_p50_us`` is that class's median.  Pooled with the rest, the median
    of ``erasure_study`` sits on the edge between its 0.1 ms reads and its
    10 ms erases, and moves 4× between the 40th and the 60th percentile."""
    weight = dict(run.workload.mix)
    writes = weight.get(UPDATE, 0.0) + weight.get(COLLECT, 0.0)
    return (READ,) if weight.get(READ, 0.0) >= writes else (UPDATE, COLLECT)


def end_to_end(run: Run) -> Metrics:
    """The gated metrics — what a caller of the system sees."""
    main = latencies(run.clients, main_kinds(run), run.counted_from)
    return {
        "setup_s": (run.setup_s, "s"),
        "ops_per_s": (ops_per_s(run), "1/s"),
        "op_p50_us": (_us(percentile(main, 0.5)), "us"),
        "erase_p50_us": (_us(percentile(latencies([run.tail]), 0.5)), "us"),
        "space_amp": (run.state["space_amp"], "ratio"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(
    untraced: Run, traced: Run, twin: Optional[Tuple[float, float]]
) -> Metrics:
    """The per-layer metrics: self times and call counts from the traced
    pass, op-type latencies and counters from the untraced one, and — where
    the twin-store pass ran — its ``(grounded, naive)`` median seconds."""
    groups = traced.trace["groups"]
    main_groups = [g for name, g in groups.items() if name.startswith("main:")]
    main_n = sum(g["requests"] for g in main_groups)

    def main_mean(table: str, slots: Sequence[Tuple[str, str]]) -> float:
        """Mean per main-phase request, over all op types."""
        return sum(
            g[table].get(slot, 0.0) * g["requests"]
            for g in main_groups for slot in slots
        ) / main_n

    def group_self(names: Sequence[str], layer: str, spans: Sequence[str]) -> float:
        """Mean self time per request of the named groups."""
        chosen = [groups[n] for n in names if n in groups]
        n = sum(g["requests"] for g in chosen)
        if not n:
            return 0.0
        return sum(
            g["self"].get((layer, s), 0.0) * g["requests"]
            for g in chosen for s in spans
        ) / n

    def layer_slots(layer: str) -> List[Tuple[str, str]]:
        return sorted({
            slot for g in groups.values() for slot in g["self"] if slot[0] == layer
        })

    reads, writes, erases = ("main:read",), ("main:update", "main:collect"), ("tail:erase",)
    tail = groups.get("tail:erase", {"requests": 0, "calls": {}})
    stats = untraced.service_stats
    u = untraced
    lat = {
        "op": latencies(u.clients, since=u.counted_from),
        "read": latencies(u.clients, (READ,), u.counted_from),
        "write": latencies(u.clients, (UPDATE, COLLECT), u.counted_from),
        "mix_erase": latencies(u.clients, (ERASE,), u.counted_from),
    }
    # Main-phase erases in time order: how much dearer the last tenth is
    # than the first.
    by_time = [
        latency for _start, latency in sorted(
            (start, (done - start) * speed)
            for t in u.clients
            for kind, start, done, speed in zip(t.kind, t.start, t.done, t.speed)
            if KINDS[kind] == ERASE and start >= u.counted_from
        )
    ]
    tenth = len(by_time) // 10
    growth = (
        statistics.median(by_time[-tenth:]) / statistics.median(by_time[:tenth])
        if tenth >= GROWTH_MIN_TENTH else 0.0
    )
    forensic = ("forensic_scan", "copy_sites", "copy_locations", "log_holds_value", "stats")
    grounded_s, naive_s = twin or (0.0, 0.0)
    out: Metrics = {
        "service.http.self_us": (_us(main_mean("self", [(trace.HTTP, "roundtrip")])), "us"),
        "service.http.connects_per_req": (
            traced.trace["connects"] / traced.sent, "ratio"),
        "service.http.sched_lag_p99_us": (sched_lag_p99_us(u), "us"),
        "service.server.queue_wait_us": (
            _us(main_mean("self", [(trace.SERVER, "queue_wait")])), "us"),
        "service.server.self_us": (
            _us(main_mean("self", [(trace.SERVER, "call"), (trace.SERVER, "submit")])), "us"),
        "service.server.erase_batch_mean": (
            stats.erased_keys / stats.erase_batches if stats.erase_batches else 0.0, "count"),
        "service.server.rejects": (
            sum(t.rejects for t in (*u.clients, u.tail)), "count"),
        "service.server.retries": (
            sum(t.retries for t in (*u.clients, u.tail)), "count"),
        "service.server.maint_ticks": (stats.maintenance_ticks, "count"),
        "service.server.repairs": (stats.repairs, "count"),
        "distributed.store.read_self_us": (_us(group_self(reads, trace.STORE, ["read"])), "us"),
        "distributed.store.write_self_us": (
            _us(group_self(writes, trace.STORE, ["put", "update"])), "us"),
        "distributed.store.erase_self_us": (
            _us(group_self(erases, trace.STORE, ["erase_many"])), "us"),
        "distributed.store.verify_us_per_erase": (
            _us(group_self(erases, trace.STORE, ["copies_of"])), "us"),
        "distributed.store.scrubbed_per_erase": (
            traced.trace["log_values_scrubbed"] / traced.service_stats.erased_keys
            if traced.service_stats.erased_keys else 0.0, "count"),
        "distributed.store.reclaims_per_erase": (
            tail["calls"].get((trace.BACKENDS, "reclaim"), 0.0), "count"),
        "distributed.store.erase_growth": (growth, "ratio"),
        "distributed.store.naive_delete_us": (_us(naive_s), "us"),
        "distributed.store.grounding_tax": (grounded_s / naive_s if twin else 0.0, "ratio"),
        "systems.backends.read_us": (_us(group_self(reads, trace.BACKENDS, ["read"])), "us"),
        "systems.backends.insert_us": (
            _us(group_self(("main:collect",), trace.BACKENDS, ["insert"])), "us"),
        "systems.backends.update_us": (
            _us(group_self(("main:update",), trace.BACKENDS, ["update"])), "us"),
        "systems.backends.delete_us": (
            _us(group_self(erases, trace.BACKENDS, ["delete"])), "us"),
        "systems.backends.reclaim_us_per_erase": (
            _us(group_self(erases, trace.BACKENDS, ["reclaim"])), "us"),
        "systems.backends.forensic_us_per_erase": (
            _us(group_self(erases, trace.BACKENDS, forensic)), "us"),
        "systems.backends.replay_us_per_erase": (
            _us(group_self(erases, trace.BACKENDS, ["insert", "update"])), "us"),
        "systems.backends.calls_per_op": (
            main_mean("calls", layer_slots(trace.BACKENDS)), "count"),
        "codec.encode_us": (_us(main_mean("self", [(trace.CODEC, "encode")])), "us"),
        "codec.decode_us": (_us(main_mean("self", [(trace.CODEC, "decode")])), "us"),
        "codec.calls_per_op": (main_mean("calls", layer_slots(trace.CODEC)), "count"),
        "op_p99_us": (_p99(lat["op"]), "us"),
        "read_p50_us": (_us(percentile(lat["read"], 0.5)), "us"),
        "read_p99_us": (_p99(lat["read"]), "us"),
        "write_p50_us": (_us(percentile(lat["write"], 0.5)), "us"),
        "write_p99_us": (_p99(lat["write"]), "us"),
        "mix_erase_p50_us": (_us(percentile(lat["mix_erase"], 0.5)), "us"),
        "mix_erase_p99_us": (_p99(lat["mix_erase"]), "us"),
        "trace.overhead_frac": (1 - ops_per_s(traced) / ops_per_s(u), "ratio"),
        "trace.spans": (len(traced.trace["spans"]), "count"),
    }
    for name in (
        "systems.backends.data_bytes", "systems.backends.index_bytes",
        "systems.backends.log_bytes",
    ):
        out[name] = (u.state[name], "B")
    for name in (
        "systems.backends.dead_entries_end", "lsm.flushes", "lsm.merges_run",
        "lsm.stall_events", "storage.pages", "crypto.shredded",
    ):
        out[name] = (u.state[name], "count")
    for name in ("lsm.cache_hit_rate", "lsm.write_amp", "storage.dead_fraction_end"):
        out[name] = (u.state[name], "ratio")
    for name in ("lsm.bytes_compacted", "crypto.residue_bytes", "codec.bytes_per_value"):
        out[name] = (u.state[name], "B")
    return out


def accounting(traced: Run) -> Dict[str, Dict[str, float]]:
    """Per request group: the mean latency the generator measured against
    the sum of the per-layer self times the trace attributes to it."""
    return {
        name: {
            "requests": g["requests"],
            "latency_us": _us(g["latency"]),
            "attributed_us": _us(sum(g["self"].values())),
        }
        for name, g in sorted(traced.trace["groups"].items())
    }
