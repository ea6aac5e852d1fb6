"""Unit tests for the workload generators."""

import random

import pytest

from repro.workloads.base import (
    KeyPool,
    OpKind,
    build_mixed_workload,
)
from repro.workloads.gdprbench import (
    controller_workload,
    customer_workload,
    erasure_study_workload,
    processor_workload,
    pure_delete_workload,
)
from repro.workloads.mall import RECORD_BYTES, ZONES, MallDataset
from repro.workloads.ycsb import ycsb_c_workload
from repro.workloads.zipf import ZipfianSampler


class TestKeyPool:
    def test_initial_keys(self):
        pool = KeyPool(10, random.Random(0))
        assert len(pool) == 10
        assert 5 in pool and 10 not in pool

    def test_create_mints_fresh(self):
        pool = KeyPool(3, random.Random(0))
        assert pool.create() == 3
        assert pool.create() == 4
        assert len(pool) == 5

    def test_remove_random_shrinks(self):
        pool = KeyPool(100, random.Random(0))
        removed = {pool.remove_random() for _ in range(50)}
        assert len(removed) == 50
        assert len(pool) == 50
        assert all(k not in pool for k in removed)

    def test_sample_only_live(self):
        pool = KeyPool(10, random.Random(0))
        for k in range(5):
            pool.remove(k)
        for _ in range(100):
            assert pool.sample() >= 5

    def test_empty_pool_raises(self):
        pool = KeyPool(0, random.Random(0))
        with pytest.raises(IndexError):
            pool.sample()


class TestBuildMixedWorkload:
    def test_mix_fractions_close_to_spec(self):
        w = build_mixed_workload(
            "w", 100_000, 10_000,
            [(OpKind.READ, 0.8), (OpKind.DELETE, 0.2)], seed=1,
        )
        mix = w.mix()
        assert mix[OpKind.READ] == pytest.approx(0.8, abs=0.02)
        assert mix[OpKind.DELETE] == pytest.approx(0.2, abs=0.02)

    def test_deterministic_under_seed(self):
        a = build_mixed_workload("w", 100, 500, [(OpKind.READ, 1.0)], seed=7)
        b = build_mixed_workload("w", 100, 500, [(OpKind.READ, 1.0)], seed=7)
        assert a.operations == b.operations

    def test_different_seeds_differ(self):
        a = build_mixed_workload("w", 100, 500, [(OpKind.READ, 1.0)], seed=7)
        b = build_mixed_workload("w", 100, 500, [(OpKind.READ, 1.0)], seed=8)
        assert a.operations != b.operations

    def test_deletes_never_repeat_a_key(self):
        w = build_mixed_workload(
            "w", 1_000, 2_000,
            [(OpKind.DELETE, 0.5), (OpKind.READ, 0.5)], seed=3,
        )
        deleted = set()
        for op in w:
            if op.kind == OpKind.DELETE:
                assert op.key not in deleted
                deleted.add(op.key)
            elif op.kind == OpKind.READ:
                assert op.key not in deleted

    def test_pool_exhaustion_degrades_to_create(self):
        w = build_mixed_workload(
            "w", 10, 100, [(OpKind.DELETE, 1.0)], seed=1,
        )
        kinds = {op.kind for op in w}
        assert OpKind.CREATE in kinds  # pool ran dry, creates took over
        deletes = sum(1 for op in w if op.kind == OpKind.DELETE)
        assert deletes >= 10

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            build_mixed_workload("w", 10, 10, [(OpKind.READ, -1.0)], seed=1)
        with pytest.raises(ValueError):
            build_mixed_workload("w", 10, 10, [], seed=1)


class TestGdprBenchMixes:
    """The paper's stated percentages, §4.2."""

    def test_wcon(self):
        mix = controller_workload(1_000, 10_000).mix()
        assert mix[OpKind.CREATE] == pytest.approx(0.25, abs=0.02)
        assert mix[OpKind.DELETE] == pytest.approx(0.25, abs=0.02)
        assert mix[OpKind.UPDATE_META] == pytest.approx(0.50, abs=0.02)

    def test_wpro(self):
        mix = processor_workload(1_000, 10_000).mix()
        assert mix[OpKind.READ] == pytest.approx(0.80, abs=0.02)
        assert mix[OpKind.READ_BY_META] == pytest.approx(0.20, abs=0.02)

    def test_wcus(self):
        mix = customer_workload(100_000, 10_000).mix()
        for kind in (
            OpKind.READ,
            OpKind.UPDATE,
            OpKind.DELETE,
            OpKind.READ_META,
            OpKind.UPDATE_META,
        ):
            assert mix[kind] == pytest.approx(0.20, abs=0.02)

    def test_erasure_study(self):
        mix = erasure_study_workload(100_000, 10_000).mix()
        assert mix[OpKind.DELETE] == pytest.approx(0.20, abs=0.02)
        assert mix[OpKind.READ] == pytest.approx(0.80, abs=0.02)

    def test_pure_delete(self):
        w = pure_delete_workload(20_000, 10_000)
        assert w.mix()[OpKind.DELETE] == 1.0

    def test_workload_metadata(self):
        w = customer_workload(500, 100)
        assert w.record_count == 500
        assert w.transaction_count == 100
        assert "Customer" in w.description


class TestZipf:
    def test_rank_zero_hottest(self):
        sampler = ZipfianSampler(1_000, seed=1)
        draws = sampler.sample_many(20_000)
        counts = {}
        for d in draws:
            counts[d] = counts.get(d, 0) + 1
        assert counts[0] == max(counts.values())

    def test_probabilities_sum_to_one(self):
        sampler = ZipfianSampler(100)
        total = sum(sampler.probability(i) for i in range(100))
        assert total == pytest.approx(1.0)

    def test_skew_matches_theory(self):
        sampler = ZipfianSampler(1_000, theta=0.99, seed=5)
        draws = sampler.sample_many(50_000)
        observed = sum(1 for d in draws if d == 0) / len(draws)
        assert observed == pytest.approx(sampler.probability(0), rel=0.15)

    def test_theta_zero_is_uniform(self):
        sampler = ZipfianSampler(10, theta=0.0)
        assert sampler.probability(0) == pytest.approx(0.1)
        assert sampler.probability(9) == pytest.approx(0.1)

    def test_deterministic(self):
        a = ZipfianSampler(100, seed=3).sample_many(50)
        b = ZipfianSampler(100, seed=3).sample_many(50)
        assert a == b

    def test_bounds(self):
        sampler = ZipfianSampler(10, seed=2)
        assert all(0 <= d < 10 for d in sampler.sample_many(1_000))
        with pytest.raises(IndexError):
            sampler.probability(10)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ZipfianSampler(0)
        with pytest.raises(ValueError):
            ZipfianSampler(10, theta=-1)


class TestYcsbC:
    def test_pure_reads(self):
        w = ycsb_c_workload(1_000, 5_000)
        assert w.mix() == {OpKind.READ: 1.0}

    def test_keys_in_range(self):
        w = ycsb_c_workload(100, 1_000)
        assert all(0 <= op.key < 100 for op in w)

    def test_skewed_towards_hot_keys(self):
        w = ycsb_c_workload(1_000, 20_000, seed=1)
        hot = sum(1 for op in w if op.key < 10)
        assert hot / len(w.operations) > 0.2  # far above uniform's 1%


class TestMallDataset:
    def test_deterministic(self):
        a = MallDataset(n_devices=10, seed=9).generate(100)
        b = MallDataset(n_devices=10, seed=9).generate(100)
        assert a == b

    def test_record_ids_unique_and_sequential(self):
        records = MallDataset(n_devices=5, seed=1).generate(50)
        assert [r.record_id for r in records] == list(range(50))

    def test_zones_valid(self):
        records = MallDataset(n_devices=5, seed=1).generate(200)
        assert all(r.zone in ZONES for r in records)
        assert all(r.access_point.startswith(r.zone) for r in records)

    def test_devices_move_gradually(self):
        """A device's zone changes by at most one step per observation."""
        records = MallDataset(n_devices=1, seed=2, move_prob=1.0).generate(50)
        indices = [ZONES.index(r.zone) for r in records]
        for a, b in zip(indices, indices[1:]):
            assert min((a - b) % len(ZONES), (b - a) % len(ZONES)) == 1

    def test_dwell_behaviour(self):
        records = MallDataset(n_devices=1, seed=3, move_prob=0.0).generate(10)
        assert len({r.zone for r in records}) == 1

    def test_timestamps_advance_per_sweep(self):
        records = MallDataset(n_devices=2, seed=1).generate(6)
        assert records[0].timestamp == records[1].timestamp
        assert records[2].timestamp > records[1].timestamp

    def test_record_size_is_70_bytes(self):
        """100k records == 7 MB of personal data (Table 2)."""
        assert RECORD_BYTES == 70
        records = MallDataset(n_devices=3, seed=1).generate(10)
        assert MallDataset.total_bytes(records) == 700

    def test_as_row_fields(self):
        record = MallDataset(n_devices=1, seed=1).generate(1)[0]
        row = record.as_row()
        assert set(row) == {"pid", "device", "subject", "ts", "zone", "ap", "rssi"}

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MallDataset(n_devices=0)
        with pytest.raises(ValueError):
            MallDataset(move_prob=1.5)
        with pytest.raises(ValueError):
            MallDataset().generate(-1)


class TestInterleavedDriver:
    """The concurrent-workload harness: traffic interleaved with bounded
    background rebalance steps (repro.workloads.driver)."""

    def _store(self, shards=2, n_replicas=1):
        from repro.config import StoreConfig
        from repro.distributed.store import ReplicatedStore
        from repro.sim.clock import SimClock
        from repro.sim.costs import CostBook, CostModel

        cost = CostModel(SimClock(), CostBook())
        store = ReplicatedStore(
            cost,
            StoreConfig(shards=shards, n_replicas=n_replicas, cache_ttl=10**12),
        )
        return store, cost.clock

    def test_unit_key_matches_bench_convention(self):
        from repro.workloads.driver import unit_key

        assert unit_key(7) == "u000007"

    def test_run_without_driver_applies_every_op(self):
        from repro.workloads.driver import load_store, run_interleaved

        store, clock = self._store()
        workload = customer_workload(60, 120)
        load_store(store, workload)
        clock.charge(60_000, "lag elapses")
        result = run_interleaved(store, workload, consistency="quorum")
        assert result.ops_applied == 120
        applied = (
            result.reads + result.writes + result.erases + result.metadata_ops
        )
        assert applied == 120
        assert result.metadata_ops > 0  # WCus has metadata traffic
        assert result.erases_verified_clean
        assert result.driver_steps == 0
        assert not result.rebalance_completed

    def test_interleaved_rebalance_completes_and_stays_grounded(self):
        from repro.distributed.store import RebalanceDriver
        from repro.workloads.driver import load_store, run_interleaved

        store, clock = self._store(shards=3, n_replicas=2)
        workload = erasure_study_workload(120, 200)
        keys = load_store(store, workload)
        clock.charge(60_000, "lag elapses")
        for key in keys:
            store.read(key, replica=0)
        driver = RebalanceDriver(store.begin_resize(4, batch_size=8))
        result = run_interleaved(
            store,
            workload,
            driver,
            ops_per_step=20,
            budget_keys=8,
            consistency="quorum",
        )
        assert result.rebalance_completed
        assert driver.report.verified_clean
        assert result.driver_steps >= 2
        assert result.keys_stepped > 0
        assert result.erases > 0 and result.erases_verified_clean
        assert result.read_misses == 0  # the pool never reads a deleted key

    def test_ops_per_step_validates(self):
        from repro.workloads.driver import run_interleaved

        store, _ = self._store()
        with pytest.raises(ValueError):
            run_interleaved(store, ycsb_c_workload(10, 5), ops_per_step=0)
