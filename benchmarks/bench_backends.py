"""Backend comparison — erase latency/retention, LSM compaction policies.

For every Table-1 interpretation a backend can ground, this bench drives an
identical high-volume workload through the storage backends via the
facade's batch APIs: bulk-collect N units (every tenth unit gets an
identifying derived copy so strong delete has something to cascade over),
then batch-erase half of them.  Reported per (backend, interpretation):

* simulated erase-phase completion time and mean per-erase latency;
* how many erased units remain physically recoverable afterwards
  (the §1 retention hazard — by design N/2 for the reversible grounding,
  0 for the physical ones);
* the physical-retention window: simulated time between a unit's logical
  delete and the batch's reclamation pass (VACUUM / victim compaction /
  key shred).

The crypto-shred backend additionally runs the **permanently delete** row —
the cell Table 1 marks "Not supported" on the native engines.

A second comparison isolates the LSM block cache: the same read-heavy
workload with the cache disabled vs enabled, reporting simulated seconds
and hit rates (the read-amplification cost the cache removes).

A third comparison measures the **raw-speed program** of the profiling PR:

* codec throughput — ``repro.codec`` batch encode/decode against
  per-value pickle on a YCSB-style value mix (the codec must win on both
  time and bytes);
* shared vs split block cache — one pooled :class:`SharedBlockCache`
  budget across K tenant namespaces against the same budget split into K
  private slices, under a skewed multi-tenant read mix; the warm
  hot-read throughput is gated at ≥2x the committed pre-PR anchor;
* crypto-shred space & shred latency — Table-2's space factor against
  the PSQL heap (packed sector groups + shared key vault vs the legacy
  one-LUKS-volume-per-unit layout) and the amortization of batched key
  shreds and sector sanitizes.

All three are gated against ``benchmarks/baselines/backends.json``.

A **mid-operation erase** section opens a tracked encoded export batch,
warms caches, and then erases a unit *while the batch is in flight* —
asserting the shared cache, the packed sectors, and the open export all
show up in ``copy_locations`` first and are all gone after the erase.

``--profile`` wraps the whole run in :mod:`cProfile` and reports the
hot-path table (also embedded in the JSON artifact).

A further comparison isolates the LSM **compaction policy**: the same
Figure-4(c)-scale ingest (bulk load + overwrite churn) under size-tiered vs
leveled compaction, reporting bytes flushed vs bytes rewritten and the
resulting write amplification — leveled must beat size-tiered, and the
measured leveled WA is gated against the committed baseline in
``benchmarks/baselines/write_amplification.json``.  The same section then
erases a slice of the keyspace under each policy — directly on the backend
and through the sharded :class:`ReplicatedStore` — and asserts
``erase_all_copies`` leaves **zero** ``copies_of`` entries: erasure on LSM
stays provably clean whichever compaction policy is active.

``--json PATH`` writes every section's results as machine-readable JSON
(the ``BENCH_backends.json`` artifact CI uploads).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_backends.py [--smoke] [--json OUT]

or under pytest-benchmark like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_backends.py
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import json
import math
import os
import pickle
import pstats
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import codec
from repro.analysis import invariants as invariant_oracle
from repro.config import BackendConfig, StoreConfig
from repro.core.entities import controller, data_subject
from repro.core.erasure import ErasureInterpretation
from repro.core.policy import Policy, Purpose
from repro.core.provenance import DependencyKind
from repro.distributed.store import ReplicatedStore
from repro.lsm.bloom import BloomFilter, BloomHashCache
from repro.lsm.compaction import COMPACTION_POLICIES
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems.backends import BackendGroup, LsmBackend, make_backend
from repro.systems.database import CompliantDatabase

#: Committed write-amplification baseline the CI smoke run gates against.
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "write_amplification.json"
)

#: Committed raw-speed baselines (codec, shared cache, crypto-shred space).
BACKENDS_BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "backends.json"
)

BACKENDS = ("psql", "lsm", "crypto-shred")

#: The three interpretations every backend can ground.
INTERPRETATIONS = (
    ErasureInterpretation.REVERSIBLY_INACCESSIBLE,
    ErasureInterpretation.DELETED,
    ErasureInterpretation.STRONGLY_DELETED,
)

#: Backends whose grounding registry makes Table 1's fourth row executable.
SANITIZING_BACKENDS = ("crypto-shred",)

DERIVE_EVERY = 10


@dataclass(frozen=True)
class BackendRunResult:
    """One (backend, interpretation) cell of the comparison."""

    backend: str
    interpretation: ErasureInterpretation
    n_units: int
    n_erased: int
    erase_seconds: float
    mean_erase_us: float
    retained_after: int
    mean_window_us: Optional[float]
    max_window_us: Optional[int]


def run_backend_erasure(
    backend: str,
    interpretation: ErasureInterpretation,
    n_records: int = 2_000,
    erase_fraction: float = 0.5,
) -> BackendRunResult:
    """Load N units through the batch path, erase a fraction, measure."""
    metaspace = controller("MetaSpace")
    user = data_subject("user-1")
    window = (0, 10**12)
    db = CompliantDatabase(metaspace, backend=backend)
    db.collect_many(
        (
            (
                f"u{i:06d}",
                user,
                "app",
                {"i": i},
                [Policy(Purpose.SERVICE, metaspace, *window)],
            )
            for i in range(n_records)
        ),
        erase_deadline=10**12,
    )
    for i in range(0, n_records, DERIVE_EVERY):
        db.derive_unit(
            f"u{i:06d}-cache",
            [f"u{i:06d}"],
            {"i": i},
            metaspace,
            Purpose.SERVICE,
            kind=DependencyKind.COPY,
            invertible=True,
            identifying=True,
        )
    erase_ids = [f"u{i:06d}" for i in range(int(n_records * erase_fraction))]
    t0 = db.clock.now
    outcomes = db.erase_many(erase_ids, interpretation=interpretation)
    t1 = db.clock.now
    retained = sum(1 for uid in erase_ids if db.physically_present(uid))
    if interpretation is ErasureInterpretation.REVERSIBLY_INACCESSIBLE:
        windows: List[int] = []  # never purged — retention is open-ended
    else:
        # Gap between each unit's logical delete and the batch reclamation.
        windows = [t1 - o.timestamp for o in outcomes]
    return BackendRunResult(
        backend=backend,
        interpretation=interpretation,
        n_units=n_records,
        n_erased=len(erase_ids),
        erase_seconds=(t1 - t0) / 1e6,
        mean_erase_us=(t1 - t0) / max(1, len(erase_ids)),
        retained_after=retained,
        mean_window_us=(sum(windows) / len(windows)) if windows else None,
        max_window_us=max(windows) if windows else None,
    )


def compare_backends(
    n_records: int = 2_000, erase_fraction: float = 0.5
) -> List[BackendRunResult]:
    """The full grid: every backend × every interpretation it supports."""
    results = []
    for backend in BACKENDS:
        interpretations = list(INTERPRETATIONS)
        if backend in SANITIZING_BACKENDS:
            interpretations.append(ErasureInterpretation.PERMANENTLY_DELETED)
        for interpretation in interpretations:
            results.append(
                run_backend_erasure(
                    backend, interpretation, n_records, erase_fraction
                )
            )
    return results


# ===========================================================================
# LSM block cache — before/after on a read-heavy mix
# ===========================================================================

@dataclass(frozen=True)
class CacheRunResult:
    """One LSM read-phase run with the block cache off or on."""

    cache_capacity: int
    n_records: int
    n_reads: int
    read_seconds: float
    mean_read_us: float
    cache_hits: int
    cache_misses: int
    bloom_negatives: int


def run_lsm_read_phase(
    cache_capacity: int, n_records: int = 2_000, n_reads: int = 8_000
) -> CacheRunResult:
    """Bulk-load an LSM backend, then hammer a hot read set (the Figure-4
    read-heavy shape): ~80% of reads hit a hot tenth of the keyspace, so a
    small cache absorbs the repeated run probes."""
    cost = CostModel(SimClock(), CostBook())
    backend = LsmBackend(
        cost,
        memtable_capacity=max(64, n_records // 16),
        block_cache_capacity=cache_capacity,
    )
    backend.insert_many((f"u{i:06d}", (i, "payload")) for i in range(n_records))
    hot = max(1, n_records // 10)
    t0 = cost.clock.now
    for i in range(n_reads):
        if i % 5 == 0:
            key = f"u{(i * 7919) % n_records:06d}"      # cold tail
        else:
            key = f"u{(i * 31) % hot:06d}"              # hot set
        backend.read(key)
    t1 = cost.clock.now
    return CacheRunResult(
        cache_capacity=cache_capacity,
        n_records=n_records,
        n_reads=n_reads,
        read_seconds=(t1 - t0) / 1e6,
        mean_read_us=(t1 - t0) / max(1, n_reads),
        cache_hits=backend.engine.cache_hits,
        cache_misses=backend.engine.cache_misses,
        bloom_negatives=backend.engine.bloom_negatives,
    )


def compare_lsm_cache(
    n_records: int = 2_000, n_reads: int = 8_000
) -> List[CacheRunResult]:
    """Before/after: block cache disabled vs default capacity."""
    return [
        run_lsm_read_phase(0, n_records, n_reads),
        run_lsm_read_phase(1024, n_records, n_reads),
    ]


def render_cache_comparison(results: Sequence[CacheRunResult]) -> str:
    header = (
        f"{'cache':>6} {'reads':>7} {'read s':>8} {'µs/read':>9} "
        f"{'hits':>7} {'misses':>7} {'bloom neg':>10}"
    )
    lines = [
        "LSM block cache: read-heavy phase, cache off vs on "
        f"(N={results[0].n_records}, reads={results[0].n_reads})",
        header,
        "-" * len(header),
    ]
    for r in results:
        label = "off" if r.cache_capacity == 0 else str(r.cache_capacity)
        lines.append(
            f"{label:>6} {r.n_reads:>7} {r.read_seconds:>8.3f} "
            f"{r.mean_read_us:>9.1f} {r.cache_hits:>7} {r.cache_misses:>7} "
            f"{r.bloom_negatives:>10}"
        )
    off, on = results[0], results[-1]
    if on.read_seconds > 0:
        lines.append(
            f"speedup: {off.read_seconds / on.read_seconds:.1f}x "
            f"(hit rate {on.cache_hits / max(1, on.cache_hits + on.cache_misses):.0%})"
        )
    return "\n".join(lines)


def check_cache_invariants(results: Sequence[CacheRunResult]) -> None:
    off, on = results[0], results[-1]
    assert off.cache_hits == 0, off
    assert on.cache_hits > 0, on
    # The cache must make the identical read phase strictly cheaper.
    assert on.read_seconds < off.read_seconds, (off, on)


# ===========================================================================
# Codec throughput — batch binary codec vs per-value pickle
# ===========================================================================

@dataclass(frozen=True)
class CodecRunResult:
    """Wall-clock codec-vs-pickle comparison on a YCSB-style value mix."""

    n_values: int
    codec_encode_s: float
    codec_decode_s: float
    pickle_encode_s: float
    pickle_decode_s: float
    encode_speedup: float
    decode_speedup: float
    codec_bytes: int
    pickle_bytes: int
    size_ratio: float


def ycsb_value_mix(n_values: int) -> List[Any]:
    """The storage-path value shapes: dict rows, tuple rows, strings,
    lists — all marshal-safe, the codec's fast plane."""
    values: List[Any] = []
    for i in range(n_values):
        shape = i % 4
        if shape == 0:
            values.append(
                {"id": i, "field0": "x" * 40, "field1": i * 17, "ts": i * 1.5}
            )
        elif shape == 1:
            values.append((i, f"payload-{i}", i * 1.5))
        elif shape == 2:
            values.append("v" * 64 + str(i))
        else:
            values.append([i, i + 1, "tag", None, True])
    return values


def run_codec_throughput(
    n_values: int = 20_000, repeats: int = 5
) -> CodecRunResult:
    """Best-of-N wall-clock: ``codec.encode_many``/``decode_many`` against
    an equally C-level ``pickle`` pass over the same values (the pre-PR
    storage serializer).  This section measures the *interpreter*, not the
    simulation — hence best-of-N with the GC parked, the standard
    microbenchmark discipline."""
    values = ycsb_value_mix(n_values)
    pickle_dumps = functools.partial(pickle.dumps, protocol=5)
    best: Dict[str, float] = {}
    blobs: List[bytes] = []
    pickled: List[bytes] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t = time.perf_counter()
            blobs = codec.encode_many(values)
            best["ce"] = min(best.get("ce", math.inf), time.perf_counter() - t)
            t = time.perf_counter()
            codec.decode_many(blobs)
            best["cd"] = min(best.get("cd", math.inf), time.perf_counter() - t)
            t = time.perf_counter()
            pickled = list(map(pickle_dumps, values))
            best["pe"] = min(best.get("pe", math.inf), time.perf_counter() - t)
            t = time.perf_counter()
            list(map(pickle.loads, pickled))
            best["pd"] = min(best.get("pd", math.inf), time.perf_counter() - t)
    finally:
        if gc_was_enabled:
            gc.enable()
    codec_bytes = sum(map(len, blobs))
    pickle_bytes = sum(map(len, pickled))
    return CodecRunResult(
        n_values=n_values,
        codec_encode_s=best["ce"],
        codec_decode_s=best["cd"],
        pickle_encode_s=best["pe"],
        pickle_decode_s=best["pd"],
        encode_speedup=best["pe"] / best["ce"],
        decode_speedup=best["pd"] / best["cd"],
        codec_bytes=codec_bytes,
        pickle_bytes=pickle_bytes,
        size_ratio=codec_bytes / max(1, pickle_bytes),
    )


def render_codec(result: CodecRunResult) -> str:
    return "\n".join(
        [
            f"Codec throughput: batch codec vs per-value pickle "
            f"(N={result.n_values})",
            f"  encode: codec {result.codec_encode_s * 1e3:.1f} ms vs "
            f"pickle {result.pickle_encode_s * 1e3:.1f} ms "
            f"({result.encode_speedup:.2f}x)",
            f"  decode: codec {result.codec_decode_s * 1e3:.1f} ms vs "
            f"pickle {result.pickle_decode_s * 1e3:.1f} ms "
            f"({result.decode_speedup:.2f}x)",
            f"  bytes:  codec {result.codec_bytes:,} vs "
            f"pickle {result.pickle_bytes:,} "
            f"(ratio {result.size_ratio:.2f})",
        ]
    )


def check_codec_invariants(
    result: CodecRunResult, baseline: Optional[Dict[str, float]] = None
) -> None:
    """The codec must beat pickle on the storage value mix — in time both
    directions and in bytes; the committed gate adds margined floors."""
    assert result.encode_speedup > 1.0, result
    assert result.decode_speedup > 1.0, result
    assert result.size_ratio < 1.0, result
    if baseline is not None:
        assert result.encode_speedup >= baseline["codec_encode_speedup_min"], (
            f"codec encode speedup {result.encode_speedup:.2f}x regressed "
            f"past the committed floor "
            f"{baseline['codec_encode_speedup_min']}x"
        )
        assert result.decode_speedup >= baseline["codec_decode_speedup_min"], (
            f"codec decode speedup {result.decode_speedup:.2f}x regressed "
            f"past the committed floor "
            f"{baseline['codec_decode_speedup_min']}x"
        )
        assert result.size_ratio <= baseline["codec_size_ratio_max"], (
            f"codec/pickle size ratio {result.size_ratio:.2f} regressed "
            f"past the committed ceiling {baseline['codec_size_ratio_max']}"
        )


# ===========================================================================
# Shared vs split block cache — one pooled budget across tenant namespaces
# ===========================================================================

@dataclass(frozen=True)
class SharedCacheRunResult:
    """One cache layout's skewed multi-tenant read phase."""

    layout: str  # "split" (K private slices) | "shared" (one pooled budget)
    n_namespaces: int
    n_records: int
    cache_budget: int
    n_reads: int
    mixed_read_seconds: float
    mixed_ops_per_s: float
    hot_read_seconds: float
    hot_ops_per_s: float
    cache_hits: int
    cache_misses: int


def _tenant_mix(
    n_reads: int, n_records: int, n_namespaces: int, hot: int
) -> List[Tuple[int, str]]:
    """A skewed multi-tenant read mix: tenant 0 takes ~70% of the traffic
    over its hot half of the keyspace; the other tenants scatter cold
    reads over their whole keyspaces."""
    mix: List[Tuple[int, str]] = []
    for i in range(n_reads):
        if (i * 2654435761) % 10 < 7:
            mix.append((0, f"u{(i * 31) % hot:06d}"))
        else:
            mix.append(
                (1 + (i % (n_namespaces - 1)), f"u{(i * 7919) % n_records:06d}")
            )
    return mix


def run_shared_cache_phase(
    layout: str,
    n_records: int = 2_000,
    n_namespaces: int = 4,
    n_reads: int = 8_000,
) -> SharedCacheRunResult:
    """K tenant namespaces under one total cache budget, arranged either as
    K private B/K slices ("split", the pre-PR shape) or as one pooled
    :class:`SharedBlockCache` of B entries ("shared").

    The budget is sized so the hot tenant's working set fits the pooled
    cache but thrashes a private slice — exactly the skew the shared
    cache exists for.  Both phases are measured *warm* (second identical
    pass), in simulated time; ``hot_ops_per_s`` is the hot-tenant-only
    read throughput, the gated headline number.
    """
    hot = n_records // 2
    budget = hot + hot // 4
    cost = CostModel(SimClock(), CostBook())
    memtable = max(32, n_records // 8)
    if layout == "shared":
        group = BackendGroup(
            "lsm",
            cost,
            engine_opts=BackendConfig(
                backend="lsm",
                block_cache_capacity=budget,
                memtable_capacity=memtable,
            ),
        )
        stores = [
            group.create(f"tenant-{k}", 70) for k in range(n_namespaces)
        ]
    elif layout == "split":
        stores = [
            LsmBackend(
                cost,
                memtable_capacity=memtable,
                block_cache_capacity=budget // n_namespaces,
                namespace=f"tenant-{k}",
            )
            for k in range(n_namespaces)
        ]
    else:
        raise ValueError(f"unknown cache layout {layout!r}")
    for store in stores:
        store.insert_many(
            (f"u{i:06d}", (i, "payload")) for i in range(n_records)
        )
    mix = _tenant_mix(n_reads, n_records, n_namespaces, hot)
    for ns, key in mix:  # warm pass
        stores[ns].read(key)
    hits0 = sum(s.engine.cache_hits for s in stores)
    misses0 = sum(s.engine.cache_misses for s in stores)
    t0 = cost.clock.now
    for ns, key in mix:
        stores[ns].read(key)
    mixed_seconds = (cost.clock.now - t0) / 1e6
    hits = sum(s.engine.cache_hits for s in stores) - hits0
    misses = sum(s.engine.cache_misses for s in stores) - misses0
    hot_keys = [f"u{(i * 31) % hot:06d}" for i in range(n_reads)]
    for key in hot_keys:  # drive the hot set warm under THIS layout first
        stores[0].read(key)
    t0 = cost.clock.now
    for key in hot_keys:
        stores[0].read(key)
    hot_seconds = (cost.clock.now - t0) / 1e6
    return SharedCacheRunResult(
        layout=layout,
        n_namespaces=n_namespaces,
        n_records=n_records,
        cache_budget=budget,
        n_reads=n_reads,
        mixed_read_seconds=mixed_seconds,
        mixed_ops_per_s=n_reads / mixed_seconds,
        hot_read_seconds=hot_seconds,
        hot_ops_per_s=len(hot_keys) / hot_seconds,
        cache_hits=hits,
        cache_misses=misses,
    )


def compare_shared_cache(
    n_records: int = 2_000, n_reads: int = 8_000
) -> List[SharedCacheRunResult]:
    """Split (pre-PR private slices) vs shared (pooled budget)."""
    return [
        run_shared_cache_phase("split", n_records, n_reads=n_reads),
        run_shared_cache_phase("shared", n_records, n_reads=n_reads),
    ]


def render_shared_cache(results: Sequence[SharedCacheRunResult]) -> str:
    header = (
        f"{'layout':<8} {'budget':>7} {'mixed ops/s':>12} {'hot ops/s':>10} "
        f"{'hits':>7} {'misses':>7} {'hit rate':>9}"
    )
    first = results[0]
    lines = [
        "Shared vs split LSM block cache: skewed multi-tenant reads, warm "
        f"(tenants={first.n_namespaces}, N={first.n_records}/tenant, "
        f"reads={first.n_reads})",
        header,
        "-" * len(header),
    ]
    for r in results:
        rate = r.cache_hits / max(1, r.cache_hits + r.cache_misses)
        lines.append(
            f"{r.layout:<8} {r.cache_budget:>7} {r.mixed_ops_per_s:>12.0f} "
            f"{r.hot_ops_per_s:>10.0f} {r.cache_hits:>7} {r.cache_misses:>7} "
            f"{rate:>9.0%}"
        )
    split, shared = results[0], results[-1]
    lines.append(
        f"pooling the budget: {shared.mixed_ops_per_s / split.mixed_ops_per_s:.1f}x "
        f"mixed, {shared.hot_ops_per_s / split.hot_ops_per_s:.1f}x warm hot reads"
    )
    return "\n".join(lines)


def check_shared_cache_invariants(
    results: Sequence[SharedCacheRunResult],
    baseline: Optional[Dict[str, float]] = None,
) -> None:
    """Pooling one budget must beat K private slices under skew, and the
    warm hot-read throughput must clear ≥2x the committed pre-PR anchor
    (the single-backend private-cache phase this PR replaced)."""
    split = next(r for r in results if r.layout == "split")
    shared = next(r for r in results if r.layout == "shared")
    assert shared.mixed_ops_per_s > split.mixed_ops_per_s, (split, shared)
    assert shared.hot_ops_per_s > split.hot_ops_per_s, (split, shared)
    if baseline is not None:
        ratio = shared.mixed_ops_per_s / split.mixed_ops_per_s
        assert ratio >= baseline["shared_vs_split_min"], (
            f"shared/split ops ratio {ratio:.2f} fell below the committed "
            f"floor {baseline['shared_vs_split_min']}"
        )
        assert shared.hot_ops_per_s >= baseline["hot_read_ops_per_s_min"], (
            f"warm hot-read throughput {shared.hot_ops_per_s:.0f} ops/s "
            f"regressed past the committed floor "
            f"{baseline['hot_read_ops_per_s_min']}"
        )
        anchor = baseline["pre_pr_hot_read_ops_per_s"]
        speedup = shared.hot_ops_per_s / anchor
        assert speedup >= baseline["vs_pre_pr_min"], (
            f"warm hot reads {shared.hot_ops_per_s:.0f} ops/s are only "
            f"{speedup:.2f}x the pre-PR anchor {anchor:.0f} ops/s "
            f"(floor {baseline['vs_pre_pr_min']}x)"
        )


# ===========================================================================
# Crypto-shred space factor & shred latency — the Table-2 retrofit cost
# ===========================================================================

@dataclass(frozen=True)
class CryptoSpaceResult:
    """Packed-sector crypto-shred vs the PSQL heap and the legacy layout."""

    n_units: int
    encoded_row_bytes: int
    psql_bytes_per_unit: float
    crypto_bytes_per_unit: float
    space_factor: float
    legacy_bytes_per_unit: float
    legacy_space_factor: float
    single_shred_us: float
    batched_shred_us_per_unit: float
    batched_shred_speedup: float
    sanitize_us_per_unit: float


def _ycsb_row(i: int) -> Dict[str, str]:
    """A ~400-byte-encoded ten-field row (the YCSB default shape)."""
    return {f"field{f}": f"{i:06d}-" + "v" * 23 for f in range(10)}


def run_crypto_space(n_units: int = 2_000) -> CryptoSpaceResult:
    """Identical rows into the PSQL heap and the packed crypto-shred
    layout; report bytes/unit, the Table-2 space factor, and the shred
    latency profile (single vs batched vs sanitizing erase).

    ``legacy_*`` models the pre-PR layout — one LUKS volume per unit
    (512-byte header + 512-byte-rounded ciphertext + its own key entry) —
    the ~2-3x-of-PSQL footprint the packed sector groups replace.
    """
    row_bytes = len(codec.encode(_ycsb_row(0)))
    cost = CostModel(SimClock(), CostBook())
    psql = make_backend("psql", cost, row_bytes=row_bytes)
    crypto = make_backend("crypto-shred", cost, row_bytes=row_bytes)
    items = [(f"u{i:06d}", _ycsb_row(i)) for i in range(n_units)]
    psql.insert_many(items)
    psql.commit()
    crypto.insert_many(items)
    psql_total = psql.stats().total_bytes
    crypto_total = crypto.stats().total_bytes
    legacy_per_unit = (
        512 + 48 + 512 * math.ceil(row_bytes / 512)
    )  # header + key entry + sector-rounded ciphertext, per unit
    t0 = cost.clock.now
    crypto.erase("u000000")
    single_us = cost.clock.now - t0
    batch = [f"u{i:06d}" for i in range(1, n_units // 2)]
    t0 = cost.clock.now
    crypto.erase_many(batch)
    batched_us = (cost.clock.now - t0) / len(batch)
    sanitize_ids = [f"u{i:06d}" for i in range(n_units // 2, n_units)]
    t0 = cost.clock.now
    crypto.sanitize_many(sanitize_ids)
    sanitize_us = (cost.clock.now - t0) / len(sanitize_ids)
    return CryptoSpaceResult(
        n_units=n_units,
        encoded_row_bytes=row_bytes,
        psql_bytes_per_unit=psql_total / n_units,
        crypto_bytes_per_unit=crypto_total / n_units,
        space_factor=crypto_total / psql_total,
        legacy_bytes_per_unit=legacy_per_unit,
        legacy_space_factor=legacy_per_unit * n_units / psql_total,
        single_shred_us=single_us,
        batched_shred_us_per_unit=batched_us,
        batched_shred_speedup=single_us / batched_us,
        sanitize_us_per_unit=sanitize_us,
    )


def render_crypto_space(result: CryptoSpaceResult) -> str:
    return "\n".join(
        [
            f"Crypto-shred space & shred latency "
            f"(N={result.n_units}, ~{result.encoded_row_bytes} B/row encoded)",
            f"  bytes/unit: psql {result.psql_bytes_per_unit:.0f}, "
            f"crypto-shred {result.crypto_bytes_per_unit:.0f} "
            f"({result.space_factor:.2f}x), "
            f"legacy per-unit-LUKS {result.legacy_bytes_per_unit:.0f} "
            f"({result.legacy_space_factor:.2f}x)",
            f"  shred: single {result.single_shred_us:.0f} µs, batched "
            f"{result.batched_shred_us_per_unit:.1f} µs/unit "
            f"({result.batched_shred_speedup:.0f}x), sanitize "
            f"{result.sanitize_us_per_unit:.1f} µs/unit",
        ]
    )


def check_crypto_space_invariants(
    result: CryptoSpaceResult, baseline: Optional[Dict[str, float]] = None
) -> None:
    """Packed sectors must beat the legacy one-volume-per-unit layout, and
    the committed gate bounds the Table-2 space factor and keeps the
    batched shred amortization honest."""
    assert result.space_factor < result.legacy_space_factor, result
    assert result.batched_shred_speedup > 1.0, result
    if baseline is not None:
        assert result.space_factor <= baseline["space_factor_max"], (
            f"crypto-shred space factor {result.space_factor:.2f}x psql "
            f"regressed past the committed ceiling "
            f"{baseline['space_factor_max']}x"
        )
        assert (
            result.batched_shred_speedup
            >= baseline["batched_shred_speedup_min"]
        ), (
            f"batched shred amortization {result.batched_shred_speedup:.0f}x "
            f"fell below the committed floor "
            f"{baseline['batched_shred_speedup_min']}x"
        )


# ===========================================================================
# Bloom fast path — build + probe throughput vs the committed pre-PR anchor
# ===========================================================================

class _LegacyBloomFilter:
    """The pre-PR filter, kept verbatim as the in-process reference — the
    same role pickle plays for the codec section.  blake2b over ``repr``,
    generator-driven probe positions, per-key ``add``/``in`` (no batch
    builders or hash cache existed).  Measuring it in the same run as the
    fast path cancels machine noise out of the gated ratio; the committed
    ``pre_pr_bloom_ops_per_s`` anchor documents what this code measured on
    the reference box before the fast path landed."""

    def __init__(self, expected_items: int, fp_rate: float = 0.01) -> None:
        ln2 = math.log(2.0)
        self._bits = max(
            8, int(-expected_items * math.log(fp_rate) / (ln2 * ln2))
        )
        self._hashes = max(1, round((self._bits / expected_items) * ln2))
        self._array = bytearray((self._bits + 7) // 8)

    @staticmethod
    def _base_hashes(key: Any) -> Tuple[int, int]:
        import hashlib

        digest = hashlib.blake2b(repr(key).encode(), digest_size=16).digest()
        return (
            int.from_bytes(digest[:8], "big"),
            int.from_bytes(digest[8:], "big") | 1,
        )

    def _positions(self, key: Any):
        h1, h2 = self._base_hashes(key)
        for i in range(self._hashes):
            yield (h1 + i * h2) % self._bits

    def add(self, key: Any) -> None:
        for pos in self._positions(key):
            self._array[pos >> 3] |= 1 << (pos & 7)

    def __contains__(self, key: Any) -> bool:
        return all(
            self._array[pos >> 3] & (1 << (pos & 7))
            for pos in self._positions(key)
        )


@dataclass(frozen=True)
class BloomRunResult:
    """The bloom build+probe phase, best-of-N wall clock with the GC off,
    fast path and pre-PR reference interleaved in the same run."""

    n_keys: int
    builds: int
    probe_rounds: int
    total_ops: int
    best_seconds: float
    ops_per_s: float
    legacy_best_seconds: float
    legacy_ops_per_s: float
    speedup_vs_legacy: float
    false_negatives: int
    fp_rate: float
    configured_fp_rate: float


def run_bloom_fast_path(
    n_keys: int = 20_000, repeats: int = 5
) -> BloomRunResult:
    """The LSM read path's bloom workload shape, isolated: two builds over
    the same key set (a cold flush, then the compaction rebuild the hash
    cache exists for) followed by four full probe rounds alternating
    present/absent keys (reads dominate the filter's real life — every
    ``_search_runs`` probes each run).  Ops = (2 builds + 4 probes) × N;
    best-of-N wall clock with the GC parked, like the codec section.  Each
    repetition starts a fresh :class:`BloomHashCache` (the timed work
    includes the cold digest pass and the warm hits that follow it) and
    then runs the identical workload through the verbatim pre-PR filter,
    so the gated speedup is a same-window comparison."""
    keys = [f"u{i:06d}" for i in range(n_keys)]
    absent = [f"x{i:06d}" for i in range(n_keys)]
    builds, probe_rounds = 2, 4
    total_ops = (builds + probe_rounds) * n_keys
    best = math.inf
    legacy_best = math.inf
    false_negatives = 0
    false_positives = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t = time.perf_counter()
            cache = BloomHashCache()
            BloomFilter.from_keys(keys, cache=cache)  # cold build
            bloom = BloomFilter.from_keys(keys, cache=cache)  # rebuild
            present_hits = 0
            for _round in range(probe_rounds // 2):
                present_hits += sum(bloom.probe_many(keys, cache=cache))
                false_positives = sum(bloom.probe_many(absent, cache=cache))
            best = min(best, time.perf_counter() - t)
            false_negatives = (probe_rounds // 2) * n_keys - present_hits
            t = time.perf_counter()
            legacy = _LegacyBloomFilter(n_keys)
            for key in keys:
                legacy.add(key)
            legacy = _LegacyBloomFilter(n_keys)
            for key in keys:
                legacy.add(key)
            for _round in range(probe_rounds // 2):
                sum(1 for key in keys if key in legacy)
                sum(1 for key in absent if key in legacy)
            legacy_best = min(legacy_best, time.perf_counter() - t)
    finally:
        if gc_was_enabled:
            gc.enable()
    return BloomRunResult(
        n_keys=n_keys,
        builds=builds,
        probe_rounds=probe_rounds,
        total_ops=total_ops,
        best_seconds=best,
        ops_per_s=total_ops / best,
        legacy_best_seconds=legacy_best,
        legacy_ops_per_s=total_ops / legacy_best,
        speedup_vs_legacy=legacy_best / best,
        false_negatives=false_negatives,
        fp_rate=false_positives / n_keys,
        configured_fp_rate=0.01,
    )


def render_bloom(result: BloomRunResult) -> str:
    return "\n".join(
        [
            f"Bloom fast path: {result.builds} builds + "
            f"{result.probe_rounds} probe rounds "
            f"(N={result.n_keys}, ops={result.total_ops})",
            f"  fast path {result.best_seconds * 1e3:.1f} ms -> "
            f"{result.ops_per_s:,.0f} ops/s; pre-PR reference "
            f"{result.legacy_best_seconds * 1e3:.1f} ms -> "
            f"{result.legacy_ops_per_s:,.0f} ops/s "
            f"({result.speedup_vs_legacy:.2f}x)",
            f"  false negatives: {result.false_negatives}, fp rate "
            f"{result.fp_rate:.4f} (configured {result.configured_fp_rate})",
        ]
    )


def check_bloom_invariants(
    result: BloomRunResult, baseline: Optional[Dict[str, float]] = None
) -> None:
    """The filter must stay correct (no false negatives, FP within 2x the
    configured rate) and faster than the pre-PR implementation; the
    committed gate demands the full 2x against the in-process reference.
    Like the codec section, every gate is a same-run ratio — absolute
    wall-clock floors would trip under ``--profile`` instrumentation and
    on slower CI boxes; the committed ``pre_pr_bloom_ops_per_s`` anchor
    documents the reference throughput on the anchor machine."""
    assert result.false_negatives == 0, result
    assert result.fp_rate <= 2 * result.configured_fp_rate, result
    assert result.speedup_vs_legacy > 1.0, result
    if baseline is not None:
        assert (
            result.speedup_vs_legacy >= baseline["vs_pre_pr_bloom_min"]
        ), (
            f"bloom fast path is only {result.speedup_vs_legacy:.2f}x the "
            f"pre-PR reference ({result.ops_per_s:.0f} vs "
            f"{result.legacy_ops_per_s:.0f} ops/s; floor "
            f"{baseline['vs_pre_pr_bloom_min']}x)"
        )


# ===========================================================================
# Throttled compaction — bounded maintenance slices under live erases
# ===========================================================================

@dataclass(frozen=True)
class CompactionThrottleResult:
    """One deferred-mode sharded ingest with budgeted maintenance slices."""

    n_keys: int
    slice_budget_bytes: int
    slices: int
    max_slice_bytes: int
    mean_slice_bytes: float
    merges_run: int
    stall_events: int
    inflight_high_water: int
    max_queue_depth: int
    backlog_cleared: bool
    mid_slice_erases: int
    mid_slice_copies_left: int
    invariant_violations: int


@dataclass(frozen=True)
class MidSliceEraseResult:
    """Grounded erases issued between bounded maintenance slices, per
    backend: nothing may stay tracked or physically recoverable."""

    backend: str
    erases: int
    copies_left: int
    physically_present: int


def run_compaction_throttle(
    n_keys: int = 2_000,
    slice_budget_bytes: int = 4 << 10,
    memtable_capacity: int = 32,
) -> CompactionThrottleResult:
    """Deferred-mode LSM nodes under a sharded store: a pressure phase
    ingests with *no* maintenance (flush requests queue; level 0 piling
    past the stall threshold makes writers pay the bounded inline stall
    slice), then a throttled phase interleaves ``maintain(max_bytes=…)``
    slices with the ingest and issues grounded erases *mid-backlog* —
    between slices, while merge work is still queued.  The runtime
    invariant registry is the oracle after every erase and at the end."""
    cost = CostModel(SimClock(), CostBook())
    store = ReplicatedStore(
        cost,
        StoreConfig(
            n_replicas=1,
            replication_lag=10_000,
            cache_ttl=10**12,
            shards=2,
            backend=BackendConfig(
                backend="lsm",
                compaction="leveled",
                compaction_mode="deferred",
                memtable_capacity=memtable_capacity,
            ),
        ),
    )
    world = invariant_oracle.World.observe(store)
    violations: List[Any] = []
    slices = 0
    slice_bytes: List[int] = []
    max_queue_depth = 0
    mid_slice_erases = 0
    mid_slice_copies_left = 0

    def run_slice() -> None:
        nonlocal slices
        before = store.compaction_stats().bytes_compacted
        store.maintain(max_bytes=slice_budget_bytes)
        slices += 1
        slice_bytes.append(store.compaction_stats().bytes_compacted - before)

    # Pressure phase: ingest with no maintenance at all — the only merges
    # that run are the bounded stall slices the scheduler forces on
    # writers once level 0 piles up.
    pressure = n_keys // 2
    for i in range(pressure):
        key = f"u{i:06d}"
        store.put(key, (i, "payload"))
        world.record_write(key)
    max_queue_depth = max(
        max_queue_depth, store.compaction_stats().queue_depth
    )
    # Throttled phase: bounded slices between put chunks; whenever work is
    # still queued after a slice, ground an erase mid-backlog.
    for i in range(pressure, n_keys):
        key = f"u{i:06d}"
        store.put(key, (i, "payload"))
        world.record_write(key)
        if (i + 1) % 128 == 0:
            stats = store.compaction_stats()
            max_queue_depth = max(max_queue_depth, stats.queue_depth)
            run_slice()
            if store.compaction_stats().queue_depth and mid_slice_erases < 8:
                victim = f"u{i - 64:06d}"
                report = store.erase_all_copies(victim)
                world.record_erase(victim, report)
                mid_slice_erases += 1
                mid_slice_copies_left += len(store.copies_of(victim))
                violations.extend(invariant_oracle.check_invariants(world))
    # Drain the remaining backlog in bounded slices.
    rounds = 0
    while store.compaction_stats().queue_depth and rounds < 256:
        run_slice()
        rounds += 1
    violations.extend(invariant_oracle.check_invariants(world))
    stats = store.compaction_stats()
    return CompactionThrottleResult(
        n_keys=n_keys,
        slice_budget_bytes=slice_budget_bytes,
        slices=slices,
        max_slice_bytes=max(slice_bytes, default=0),
        mean_slice_bytes=(
            sum(slice_bytes) / len(slice_bytes) if slice_bytes else 0.0
        ),
        merges_run=stats.merges_run,
        stall_events=stats.stall_events,
        inflight_high_water=stats.inflight_high_water,
        max_queue_depth=max_queue_depth,
        backlog_cleared=stats.queue_depth == 0,
        mid_slice_erases=mid_slice_erases,
        mid_slice_copies_left=mid_slice_copies_left,
        invariant_violations=len(violations),
    )


def run_mid_slice_erase(
    backend_name: str, n_units: int = 96, slice_budget_bytes: int = 4 << 10
) -> MidSliceEraseResult:
    """Every backend under the same maintenance interleaving: insert,
    run one bounded ``maintain`` slice, erase, verify nothing is tracked
    or recoverable.  On PSQL this also exercises the typed WAL sites —
    the row image reports before the erase and is scrubbed by it."""
    cost = CostModel(SimClock(), CostBook())
    kwargs: Dict[str, Any] = (
        {"memtable_capacity": 16, "compaction_mode": "deferred"}
        if backend_name == "lsm"
        else {}
    )
    backend = make_backend(backend_name, cost, **kwargs)
    backend.insert_many((f"u{i:04d}", (i, "payload")) for i in range(n_units))
    copies_left = 0
    present = 0
    victims = [f"u{i:04d}" for i in range(0, n_units, n_units // 6)]
    for victim in victims:
        backend.maintain(max_bytes=slice_budget_bytes)
        backend.erase(victim)
        copies_left += len(backend.copy_locations(victim))
        present += int(backend.physically_present(victim))
    # An lsm erase rewrites the victim's runs and leaves the backlog queued:
    # the slices that drain it afterwards must not bring a victim back.
    while backend.maintain(max_bytes=slice_budget_bytes):
        pass
    for victim in victims:
        copies_left += len(backend.copy_sites(victim))
        copies_left += len(backend.copy_locations(victim))
        present += int(backend.physically_present(victim))
    return MidSliceEraseResult(
        backend=backend_name,
        erases=len(victims),
        copies_left=copies_left,
        physically_present=present,
    )


def compare_mid_slice_erase(n_units: int = 96) -> List[MidSliceEraseResult]:
    return [run_mid_slice_erase(name, n_units) for name in BACKENDS]


def render_throttle(
    result: CompactionThrottleResult,
    erases: Sequence[MidSliceEraseResult],
) -> str:
    lines = [
        "Throttled compaction: deferred LSM nodes, budgeted maintenance "
        f"slices (N={result.n_keys}, budget={result.slice_budget_bytes} B)",
        f"  {result.slices} slices, max {result.max_slice_bytes} B / mean "
        f"{result.mean_slice_bytes:.0f} B per slice, "
        f"{result.merges_run} merges",
        f"  stalls: {result.stall_events}, inflight high water: "
        f"{result.inflight_high_water}, max queue depth: "
        f"{result.max_queue_depth}, backlog cleared: "
        f"{result.backlog_cleared}",
        f"  mid-slice erases: {result.mid_slice_erases} "
        f"(copies left: {result.mid_slice_copies_left}), invariant "
        f"violations: {result.invariant_violations}",
    ]
    for r in erases:
        lines.append(
            f"  {r.backend:<13} {r.erases} erases between slices, copies "
            f"left: {r.copies_left}, recoverable: {r.physically_present}"
        )
    return "\n".join(lines)


def check_throttle_invariants(
    result: CompactionThrottleResult,
    erases: Sequence[MidSliceEraseResult],
    baseline: Optional[Dict[str, float]] = None,
) -> None:
    """The throttle claims: slices stay bounded (gated ceiling), the stall
    signal fired under pressure, the backlog clears, and erases issued
    mid-backlog stay grounded on every backend with zero invariant
    violations."""
    assert result.invariant_violations == 0, result
    assert result.mid_slice_erases > 0, result
    assert result.mid_slice_copies_left == 0, result
    assert result.stall_events > 0, result
    assert result.backlog_cleared, result
    assert result.slices > 0, result
    for r in erases:
        assert r.copies_left == 0, r
        assert r.physically_present == 0, r
    assert {r.backend for r in erases} == set(BACKENDS)
    if baseline is not None:
        assert (
            result.max_slice_bytes <= baseline["throttle_max_slice_bytes"]
        ), (
            f"max maintenance slice {result.max_slice_bytes} B exceeded the "
            f"committed ceiling {baseline['throttle_max_slice_bytes']} B — "
            "the budget no longer bounds a slice"
        )


# ===========================================================================
# Mid-operation erase — copy sites visible in flight, gone after the erase
# ===========================================================================

@dataclass(frozen=True)
class MidEraseResult:
    """One backend's mid-flight erase honesty check."""

    backend: str
    migration_site_seen: bool
    cache_site_seen: bool
    batch_held_before: bool
    batch_holds_after: bool
    copies_after_erase: int
    physically_present_after: bool


def run_mid_erase(backend_name: str, n_units: int = 120) -> MidEraseResult:
    """Open a tracked encoded export, warm the caches, then erase a unit
    *while the batch is in flight*: the in-flight blob and any cache entry
    must be visible as copy sites before and gone after."""
    cost = CostModel(SimClock(), CostBook())
    backend = make_backend(
        backend_name,
        cost,
        **({"memtable_capacity": 32} if backend_name == "lsm" else {}),
    )
    backend.insert_many((f"u{i:04d}", (i, "payload")) for i in range(n_units))
    victim = "u0007"
    for i in range(n_units):  # warm read pass (populates the LSM cache)
        backend.read(f"u{i:04d}")
    exported = {f"u{i:04d}" for i in range(n_units // 2)}
    with backend.open_export(
        lambda k: k in exported, name="bench-migration"
    ) as batch:
        sites = {loc.name for loc, _site in backend.copy_locations(victim)}
        migration_seen = "MIGRATION" in sites
        cache_seen = "CACHE" in sites
        batch_held = batch.holds(victim)
        backend.erase(victim)
        batch_after = batch.holds(victim)
        copies_after = len(backend.copy_locations(victim))
        present_after = backend.physically_present(victim)
    return MidEraseResult(
        backend=backend_name,
        migration_site_seen=migration_seen,
        cache_site_seen=cache_seen,
        batch_held_before=batch_held,
        batch_holds_after=batch_after,
        copies_after_erase=copies_after,
        physically_present_after=present_after,
    )


def run_store_mid_erase(n_keys: int = 80) -> int:
    """The same honesty check through the sharded store with a *shared*
    block cache across its LSM nodes: warm reads, then ``erase_all_copies``
    must leave zero ``copies_of`` entries.  Returns copies left (0)."""
    cost = CostModel(SimClock(), CostBook())
    store = ReplicatedStore(
        cost,
        StoreConfig(
            n_replicas=1,
            replication_lag=10_000,
            cache_ttl=10**12,
            shards=2,
            backend=BackendConfig(
                backend="lsm", shared_block_cache=256, memtable_capacity=32
            ),
        ),
    )
    for i in range(n_keys):
        store.put(f"u{i:04d}", (i, "payload"))
    cost.clock.charge(20_000, "idle")
    for i in range(n_keys):
        store.read(f"u{i:04d}", replica=0)
    report = store.erase_all_copies("u0004")
    assert report.verified_clean
    return len(store.copies_of("u0004"))


def compare_mid_erase(n_units: int = 120) -> List[MidEraseResult]:
    return [run_mid_erase(name, n_units) for name in BACKENDS]


def render_mid_erase(
    results: Sequence[MidEraseResult], store_copies_left: int
) -> str:
    lines = [
        "Mid-operation erase: copy sites in flight (open export batch + "
        "caches) before vs after erase:"
    ]
    for r in results:
        seen = ["MIGRATION"] if r.migration_site_seen else []
        if r.cache_site_seen:
            seen.append("CACHE")
        lines.append(
            f"  {r.backend:<13} sites before: {'+'.join(seen) or 'none'}, "
            f"batch holds after: {r.batch_holds_after}, copies after: "
            f"{r.copies_after_erase}, recoverable: "
            f"{r.physically_present_after}"
        )
    lines.append(
        f"  sharded store (shared cache): copies_of after erase_all_copies: "
        f"{store_copies_left}"
    )
    return "\n".join(lines)


def check_mid_erase_invariants(
    results: Sequence[MidEraseResult], store_copies_left: int
) -> None:
    for r in results:
        assert r.migration_site_seen, r
        assert r.batch_held_before, r
        assert not r.batch_holds_after, r
        assert r.copies_after_erase == 0, r
        assert not r.physically_present_after, r
        if r.backend == "lsm":
            # The warm read pass must have left a tracked cache copy.
            assert r.cache_site_seen, r
    assert {r.backend for r in results} == set(BACKENDS)
    assert store_copies_left == 0


# ===========================================================================
# Profiling harness — cProfile over the whole run
# ===========================================================================

def profile_payload(
    profiler: cProfile.Profile, top_n: int = 20
) -> Dict[str, Any]:
    """The hot-path table: top functions by cumulative time, plus totals —
    the machine-readable ``profile`` section of BENCH_backends.json."""
    stats = pstats.Stats(profiler)
    rows = []
    for (path, line, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        short = os.sep.join(path.split(os.sep)[-2:]) if os.sep in path else path
        rows.append(
            {
                "function": f"{short}:{line}({func})",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    rows.sort(key=lambda r: r["cumtime_s"], reverse=True)
    return {
        "total_calls": stats.total_calls,
        "total_seconds": round(stats.total_tt, 6),
        "top": rows[:top_n],
    }


def render_profile(payload: Dict[str, Any]) -> str:
    header = f"{'cumtime s':>10} {'tottime s':>10} {'ncalls':>9}  function"
    lines = [
        f"Profile: {payload['total_calls']:,} calls in "
        f"{payload['total_seconds']:.3f} s (top {len(payload['top'])} by "
        "cumulative time)",
        header,
        "-" * len(header),
    ]
    for row in payload["top"]:
        lines.append(
            f"{row['cumtime_s']:>10.4f} {row['tottime_s']:>10.4f} "
            f"{row['ncalls']:>9}  {row['function']}"
        )
    return "\n".join(lines)


# ===========================================================================
# LSM compaction policies — write amplification + erase cleanliness
# ===========================================================================

@dataclass(frozen=True)
class CompactionRunResult:
    """One compaction policy's Figure-4(c)-scale ingest + erase run."""

    policy: str
    n_records: int
    memtable_capacity: int
    flushes: int
    compactions: int
    levels: int
    bytes_flushed: int
    bytes_compacted: int
    write_amplification: float
    load_seconds: float
    n_erased: int
    retained_after_erase: int
    unpurged_deletions: int


def run_compaction_policy(
    policy: str,
    n_records: int = 500_000,
    memtable_capacity: int = 4096,
    overwrite_fraction: float = 0.25,
    erase_fraction: float = 0.1,
) -> CompactionRunResult:
    """Ingest + churn at the Figure-4(c) shape under one compaction policy,
    then batch-erase a slice and verify nothing stays recoverable.

    The write phase is where the policies differ: size-tiered re-merges the
    accumulated big run over and over, leveled rewrites a bounded slice of
    the tree per merge.  The erase phase is where they must NOT differ:
    tombstone + victim compaction leaves zero physical copies either way.
    """
    cost = CostModel(SimClock(), CostBook())
    backend = LsmBackend(
        cost, memtable_capacity=memtable_capacity, compaction=policy
    )
    t0 = cost.clock.now
    backend.insert_many((f"u{i:07d}", (i, "payload")) for i in range(n_records))
    step = max(1, int(1 / overwrite_fraction))
    for i in range(0, n_records, step):
        backend.update(f"u{i:07d}", (i, "rewritten"))
    t1 = cost.clock.now
    engine = backend.engine
    # Snapshot the write-phase counters before the erase's victim
    # compaction adds its rewrites to both columns.
    flushes = engine.flush_count
    compactions = engine.compaction_count
    levels = engine.level_count
    bytes_flushed = engine.bytes_flushed
    bytes_compacted = engine.bytes_compacted
    write_amplification = engine.write_amplification
    victims = [f"u{i:07d}" for i in range(int(n_records * erase_fraction))]
    backend.erase_many(victims)
    retained = sum(1 for v in victims if backend.physically_present(v))
    return CompactionRunResult(
        policy=policy,
        n_records=n_records,
        memtable_capacity=memtable_capacity,
        flushes=flushes,
        compactions=compactions,
        levels=levels,
        bytes_flushed=bytes_flushed,
        bytes_compacted=bytes_compacted,
        write_amplification=write_amplification,
        load_seconds=(t1 - t0) / 1e6,
        n_erased=len(victims),
        retained_after_erase=retained,
        unpurged_deletions=len(engine.unpurged_deletions()),
    )


def compare_compaction(
    n_records: int = 500_000, memtable_capacity: int = 4096
) -> List[CompactionRunResult]:
    """Size-tiered vs leveled on the identical ingest."""
    return [
        run_compaction_policy(policy, n_records, memtable_capacity)
        for policy in COMPACTION_POLICIES
    ]


@dataclass(frozen=True)
class DistributedEraseCleanResult:
    """erase_all_copies / erase_many cleanliness on a sharded LSM store."""

    policy: str
    n_keys: int
    single_copies_left: int
    batch_copies_left: int
    verified_clean: bool


def run_distributed_erase_clean(
    policy: str, n_keys: int = 120
) -> DistributedEraseCleanResult:
    """Drive the sharded store on LSM nodes under one compaction policy and
    count ``copies_of`` entries surviving the grounded erases (must be 0)."""
    cost = CostModel(SimClock(), CostBook())
    store = ReplicatedStore(
        cost,
        StoreConfig(
            n_replicas=1,
            cache_ttl=10**12,
            shards=2,
            backend=BackendConfig(
                backend="lsm", compaction=policy, memtable_capacity=32
            ),
        ),
    )
    for i in range(n_keys):
        store.put(f"u{i:05d}", (i, "payload"))
    cost.clock.charge(60_000, "idle")
    for i in range(n_keys):
        store.read(f"u{i:05d}", replica=0)  # replicas apply + caches warm
    single_report = store.erase_all_copies("u00000")
    single_left = len(store.copies_of("u00000"))
    victims = [f"u{i:05d}" for i in range(1, n_keys // 2)]
    batch_report = store.erase_many(victims)
    batch_left = sum(len(store.copies_of(v)) for v in victims)
    return DistributedEraseCleanResult(
        policy=policy,
        n_keys=n_keys,
        single_copies_left=single_left,
        batch_copies_left=batch_left,
        verified_clean=(
            single_report.verified_clean and batch_report.verified_clean
        ),
    )


def compare_erase_clean(n_keys: int = 120) -> List[DistributedEraseCleanResult]:
    return [run_distributed_erase_clean(p, n_keys) for p in COMPACTION_POLICIES]


def render_compaction_comparison(
    results: Sequence[CompactionRunResult],
) -> str:
    header = (
        f"{'policy':<8} {'flushes':>8} {'merges':>7} {'levels':>7} "
        f"{'MB flushed':>11} {'MB rewritten':>13} {'WA':>6} {'load s':>8} "
        f"{'retained':>9}"
    )
    lines = [
        "LSM compaction policy: write amplification at the Figure-4(c) scale "
        f"(N={results[0].n_records}, memtable={results[0].memtable_capacity})",
        header,
        "-" * len(header),
    ]
    for r in results:
        lines.append(
            f"{r.policy:<8} {r.flushes:>8} {r.compactions:>7} {r.levels:>7} "
            f"{r.bytes_flushed / 1e6:>11.1f} {r.bytes_compacted / 1e6:>13.1f} "
            f"{r.write_amplification:>6.2f} {r.load_seconds:>8.3f} "
            f"{r.retained_after_erase:>9}"
        )
    by_policy = {r.policy: r for r in results}
    size, leveled = by_policy["size"], by_policy["leveled"]
    ratio = leveled.write_amplification / size.write_amplification
    note = (
        "(leveled beats size-tiered)"
        if ratio < 1.0
        else "(too few flushes at this scale for leveled to pay off)"
    )
    lines.append(f"leveled/size WA ratio: {ratio:.2f} {note}")
    return "\n".join(lines)


def render_erase_clean(results: Sequence[DistributedEraseCleanResult]) -> str:
    lines = [
        "Sharded LSM erase_all_copies/erase_many cleanliness per compaction "
        "policy:"
    ]
    for r in results:
        lines.append(
            f"  {r.policy:<8} single-erase copies left: {r.single_copies_left}, "
            f"batch copies left: {r.batch_copies_left}, "
            f"verified_clean: {r.verified_clean}"
        )
    return "\n".join(lines)


def load_wa_baseline(mode: str) -> Optional[Dict[str, float]]:
    """The committed gate values for a run mode ("smoke" | "full")."""
    if not os.path.exists(BASELINE_PATH):
        return None
    with open(BASELINE_PATH) as fh:
        return json.load(fh).get(mode)


def load_backends_baseline(mode: str) -> Optional[Dict[str, float]]:
    """The committed raw-speed gates (codec / shared cache / crypto-shred)
    for a run mode ("smoke" | "full")."""
    if not os.path.exists(BACKENDS_BASELINE_PATH):
        return None
    with open(BACKENDS_BASELINE_PATH) as fh:
        return json.load(fh).get(mode)


def check_compaction_invariants(
    results: Sequence[CompactionRunResult],
    baseline: Optional[Dict[str, float]] = None,
    enforce_ordering: bool = True,
) -> None:
    """The compaction claims: leveled strictly beats size-tiered on write
    amplification, erasure is clean under both, and (when a committed
    baseline applies) the measured numbers have not regressed.

    ``enforce_ordering=False`` keeps only the scale-independent erasure
    invariants: at tiny ingests (too few flushes for the policies to
    diverge) leveled's structural overhead can outweigh its merge savings,
    so the ordering claim is asserted only at the gated configurations.
    """
    by_policy = {r.policy: r for r in results}
    size, leveled = by_policy["size"], by_policy["leveled"]
    for r in results:
        # Grounded erase leaves nothing recoverable, whatever the policy.
        assert r.retained_after_erase == 0, r
        assert r.unpurged_deletions == 0, r
        assert r.write_amplification >= 1.0, r
    if not enforce_ordering:
        return
    assert leveled.write_amplification < size.write_amplification, (
        leveled,
        size,
    )
    if baseline is not None:
        assert leveled.write_amplification <= baseline["leveled_wa_max"], (
            f"leveled WA {leveled.write_amplification:.2f} regressed past the "
            f"committed baseline {baseline['leveled_wa_max']}"
        )
        ratio = leveled.write_amplification / size.write_amplification
        assert ratio <= baseline["ratio_max"], (
            f"leveled/size WA ratio {ratio:.2f} regressed past the committed "
            f"baseline {baseline['ratio_max']}"
        )


def check_erase_clean_invariants(
    results: Sequence[DistributedEraseCleanResult],
) -> None:
    for r in results:
        assert r.verified_clean, r
        assert r.single_copies_left == 0, r
        assert r.batch_copies_left == 0, r
    assert {r.policy for r in results} == set(COMPACTION_POLICIES)


def render_comparison(results: Sequence[BackendRunResult]) -> str:
    header = (
        f"{'backend':<13} {'interpretation':<24} {'erase s':>8} "
        f"{'µs/erase':>9} {'retained':>9} {'mean win µs':>12} {'max win µs':>11}"
    )
    lines = [
        "Backend comparison: erase latency and physical-retention windows "
        f"(N={results[0].n_units}, erased={results[0].n_erased})",
        header,
        "-" * len(header),
    ]
    for r in results:
        mean_w = f"{r.mean_window_us:.0f}" if r.mean_window_us is not None else "∞"
        max_w = f"{r.max_window_us}" if r.max_window_us is not None else "∞"
        lines.append(
            f"{r.backend:<13} {r.interpretation.label:<24} "
            f"{r.erase_seconds:>8.3f} {r.mean_erase_us:>9.1f} "
            f"{r.retained_after:>9} {mean_w:>12} {max_w:>11}"
        )
    return "\n".join(lines)


def check_invariants(results: Sequence[BackendRunResult]) -> None:
    """The claims the comparison must uphold, on every backend."""
    for r in results:
        if r.interpretation is ErasureInterpretation.REVERSIBLY_INACCESSIBLE:
            # Invertible grounding: every erased value stays recoverable.
            assert r.retained_after == r.n_erased, r
        else:
            # Physical groundings: nothing recoverable once reclaimed.
            assert r.retained_after == 0, r
        assert r.erase_seconds > 0, r
    assert {r.backend for r in results} == set(BACKENDS)
    # Table 1's last row runs for real on the sanitizing backends only.
    permanent = {
        r.backend
        for r in results
        if r.interpretation is ErasureInterpretation.PERMANENTLY_DELETED
    }
    assert permanent == set(SANITIZING_BACKENDS)


def test_bench_backends(once):
    from conftest import emit, scaled

    results = once(compare_backends, scaled(2_000, minimum=500))
    check_invariants(results)
    emit("bench_backends", render_comparison(results))


def test_bench_lsm_cache(once):
    from conftest import emit, scaled

    results = once(compare_lsm_cache, scaled(2_000, minimum=500))
    check_cache_invariants(results)
    emit("bench_lsm_cache", render_cache_comparison(results))


def test_bench_codec(once):
    from conftest import emit, scaled

    result = once(run_codec_throughput, scaled(20_000, minimum=5_000))
    # Relative invariants only: pytest runs are not the committed-gate
    # configuration (the CLI smoke/full runs gate against the baseline).
    check_codec_invariants(result)
    emit("bench_codec", render_codec(result))


def test_bench_shared_cache(once):
    from conftest import emit, scaled

    n_records = scaled(2_000, minimum=500)
    results = once(compare_shared_cache, n_records, 4 * n_records)
    check_shared_cache_invariants(results)
    emit("bench_shared_cache", render_shared_cache(results))


def test_bench_crypto_space(once):
    from conftest import emit, scaled

    result = once(run_crypto_space, scaled(2_000, minimum=500))
    check_crypto_space_invariants(result)
    emit("bench_crypto_space", render_crypto_space(result))


def test_bench_bloom(once):
    from conftest import emit, scaled

    # Relative invariants only (correctness of the filter itself): pytest
    # runs are not the committed-gate configuration — the CLI smoke/full
    # runs gate ops/s against the pre-PR anchor in the backends baseline.
    result = once(run_bloom_fast_path, scaled(20_000, minimum=4_000))
    check_bloom_invariants(result)
    emit("bench_bloom", render_bloom(result))


def test_bench_compaction_throttle(once):
    from conftest import emit, scaled

    result = once(run_compaction_throttle, scaled(2_000, minimum=1_000))
    erases = compare_mid_slice_erase()
    check_throttle_invariants(result, erases)
    emit("bench_compaction_throttle", render_throttle(result, erases))


def test_bench_mid_erase(once):
    from conftest import emit

    results = once(compare_mid_erase)
    store_left = run_store_mid_erase()
    check_mid_erase_invariants(results, store_left)
    emit("bench_mid_erase", render_mid_erase(results, store_left))


def test_bench_compaction_policies(once):
    from conftest import emit, scaled

    # Paper scale (REPRO_SCALE=1.0) reproduces the 500k/4096 numbers the
    # committed baseline documents; smaller scales shrink the ingest but
    # keep enough flushes for the policies to diverge.
    n_records = scaled(500_000, minimum=30_000)
    memtable = 4_096 if n_records >= 100_000 else 1_024
    results = once(compare_compaction, n_records, memtable)
    check_compaction_invariants(results)
    emit("bench_compaction", render_compaction_comparison(results))


def _results_payload(sections: Dict[str, Any], mode: str) -> Dict[str, Any]:
    """The machine-readable BENCH_backends.json document."""
    grid = []
    for r in sections["results"]:
        row = asdict(r)
        row["interpretation"] = r.interpretation.label
        grid.append(row)
    payload: Dict[str, Any] = {
        "bench": "bench_backends",
        "mode": mode,
        "backend_grid": grid,
        "lsm_cache": [asdict(r) for r in sections["cache_results"]],
        "codec": asdict(sections["codec_result"]),
        "shared_cache": [asdict(r) for r in sections["shared_cache_results"]],
        "crypto_shred": asdict(sections["crypto_space_result"]),
        "bloom": asdict(sections["bloom_result"]),
        "compaction_throttle": {
            "run": asdict(sections["throttle_result"]),
            "mid_slice_erase": [
                asdict(r) for r in sections["mid_slice_erase_results"]
            ],
        },
        "mid_erase": {
            "backends": [asdict(r) for r in sections["mid_erase_results"]],
            "store_copies_left": sections["store_copies_left"],
        },
        "write_amplification": [
            asdict(r) for r in sections["compaction_results"]
        ],
        "erase_clean": [asdict(r) for r in sections["erase_clean_results"]],
    }
    if "profile" in sections:
        payload["profile"] = sections["profile"]
    return payload


def _run_sections(args: argparse.Namespace, mode: str) -> Dict[str, Any]:
    """Run every section in order, printing as it goes; returns the raw
    section results keyed for :func:`_results_payload`.  Factored out of
    :func:`main` so ``--profile`` can wrap the whole workload."""
    n_records = 200 if args.smoke else args.records
    results = compare_backends(n_records, args.erase_fraction)
    check_invariants(results)
    print(render_comparison(results))
    cache_results = compare_lsm_cache(
        n_records, n_reads=max(800, 4 * n_records)
    )
    check_cache_invariants(cache_results)
    print()
    print(render_cache_comparison(cache_results))
    # Raw-speed sections, gated against the committed backends baseline at
    # the configurations it was measured at (smoke defaults / full
    # defaults); custom --records runs report without gating.
    gated_raw = args.smoke or args.records == 2_000
    raw_baseline = load_backends_baseline(mode) if gated_raw else None
    codec_result = run_codec_throughput(4_000 if args.smoke else 20_000)
    check_codec_invariants(codec_result, baseline=raw_baseline)
    print()
    print(render_codec(codec_result))
    shared_cache_results = compare_shared_cache(
        n_records, n_reads=max(2_000, 4 * n_records)
    )
    check_shared_cache_invariants(
        shared_cache_results, baseline=raw_baseline
    )
    print()
    print(render_shared_cache(shared_cache_results))
    crypto_space_result = run_crypto_space(500 if args.smoke else 2_000)
    check_crypto_space_invariants(crypto_space_result, baseline=raw_baseline)
    print()
    print(render_crypto_space(crypto_space_result))
    bloom_result = run_bloom_fast_path(4_000 if args.smoke else 20_000)
    check_bloom_invariants(bloom_result, baseline=raw_baseline)
    print()
    print(render_bloom(bloom_result))
    throttle_result = run_compaction_throttle(2_000 if args.smoke else 6_000)
    mid_slice_erase_results = compare_mid_slice_erase()
    check_throttle_invariants(
        throttle_result, mid_slice_erase_results, baseline=raw_baseline
    )
    print()
    print(render_throttle(throttle_result, mid_slice_erase_results))
    mid_erase_results = compare_mid_erase()
    store_copies_left = run_store_mid_erase()
    check_mid_erase_invariants(mid_erase_results, store_copies_left)
    print()
    print(render_mid_erase(mid_erase_results, store_copies_left))
    # Compaction policies: smoke shrinks the ingest but keeps enough flushes
    # (records/memtable) for the policies' write behaviour to diverge.
    wa_records = 24_000 if args.smoke else args.wa_records
    wa_memtable = 1_024 if args.smoke else 4_096
    compaction_results = compare_compaction(wa_records, wa_memtable)
    # The ordering assertion and the committed baseline only speak about
    # the configurations they were measured at: the smoke defaults and the
    # Figure-4(c) full scale.  A custom --wa-records run still reports (and
    # still checks the erasure invariants) without gating.
    gated = args.smoke or args.wa_records == 500_000
    check_compaction_invariants(
        compaction_results,
        baseline=load_wa_baseline(mode) if gated else None,
        enforce_ordering=gated,
    )
    print()
    print(render_compaction_comparison(compaction_results))
    erase_clean_results = compare_erase_clean(n_keys=120 if args.smoke else 400)
    check_erase_clean_invariants(erase_clean_results)
    print()
    print(render_erase_clean(erase_clean_results))
    return {
        "results": results,
        "cache_results": cache_results,
        "codec_result": codec_result,
        "shared_cache_results": shared_cache_results,
        "crypto_space_result": crypto_space_result,
        "bloom_result": bloom_result,
        "throttle_result": throttle_result,
        "mid_slice_erase_results": mid_slice_erase_results,
        "mid_erase_results": mid_erase_results,
        "store_copies_left": store_copies_left,
        "compaction_results": compaction_results,
        "erase_clean_results": erase_clean_results,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="PSQL vs LSM vs crypto-shred erase latency / retention, "
        "codec & cache raw-speed gates, plus LSM compaction-policy write "
        "amplification"
    )
    parser.add_argument("--records", type=int, default=2_000)
    parser.add_argument("--erase-fraction", type=float, default=0.5)
    parser.add_argument(
        "--wa-records",
        type=int,
        default=500_000,
        help="record count for the compaction write-amplification section "
        "(the Figure-4(c) scale)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run asserting every section's invariants, gated against "
        "the committed baselines (the CI gate)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="wrap the whole run in cProfile and report the hot-path table "
        "(embedded as the 'profile' section of the JSON artifact)",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=20,
        metavar="N",
        help="how many hot functions the profile table keeps (default 20)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write machine-readable results (BENCH_backends.json artifact)",
    )
    args = parser.parse_args(argv)
    if args.records < 1:
        parser.error("--records must be >= 1")
    if args.wa_records < 1:
        parser.error("--wa-records must be >= 1")
    if not 0.0 < args.erase_fraction <= 1.0:
        parser.error("--erase-fraction must be in (0, 1]")
    if args.profile_top < 1:
        parser.error("--profile-top must be >= 1")
    mode = "smoke" if args.smoke else "full"
    if args.profile:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            sections = _run_sections(args, mode)
        finally:
            profiler.disable()
        sections["profile"] = profile_payload(profiler, args.profile_top)
        print()
        print(render_profile(sections["profile"]))
    else:
        sections = _run_sections(args, mode)
    if args.json:
        payload = _results_payload(sections, mode)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\nresults written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
