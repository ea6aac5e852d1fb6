"""Unit tests: tracked export batches, copy_locations, byte accounting.

The profiling PR's compliance surface: an in-flight encoded export batch
is a ``MIGRATION`` copy site a grounded erase must reach; backend byte
accounting must report real buffer sizes, not nominal guesses.
"""

import pytest

from repro import codec
from repro.core.locations import CopyLocation
from repro.crypto.sectors import GROUP_HEADER_BYTES, SECTOR
from repro.crypto.vault import KEY_ENTRY_BYTES, VAULT_HEADER_BYTES
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems.backends import BACKENDS, make_backend


@pytest.fixture
def cost():
    return CostModel(SimClock(), CostBook())


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, cost):
    return make_backend(request.param, cost)


class TestExportBatch:
    def test_open_export_holds_encoded_blobs(self, backend):
        backend.insert_many((f"k{i}", {"i": i}) for i in range(6))
        with backend.open_export(lambda k: k in {"k1", "k3"}) as batch:
            assert len(batch) == 2
            assert batch.holds("k1") and batch.holds("k3")
            assert not batch.holds("k0")
            assert {k: codec.decode(b) for k, b in batch.items} == {
                "k1": {"i": 1},
                "k3": {"i": 3},
            }

    def test_open_batch_is_a_migration_copy_site(self, backend):
        backend.insert("k", "value")
        batch = backend.open_export(lambda k: True, name="move-out")
        sites = backend.copy_locations("k")
        assert (CopyLocation.MIGRATION, "move-out") in sites
        batch.close()
        assert (CopyLocation.MIGRATION, "move-out") not in backend.copy_locations("k")

    def test_close_is_idempotent(self, backend):
        backend.insert("k", "value")
        batch = backend.open_export(lambda k: True)
        batch.close()
        batch.close()
        sites = backend.copy_locations("k")
        # No batch residue; any remaining site is the engine's own typed
        # WAL row image (psql), never a MIGRATION entry.
        assert all(loc is CopyLocation.WAL for loc, _ in sites)

    def test_erase_scrubs_in_flight_batches(self, backend):
        backend.insert_many((f"k{i}", i) for i in range(4))
        with backend.open_export(lambda k: True) as batch:
            backend.erase("k1")
            assert not batch.holds("k1")
            assert backend.copy_locations("k1") == []
            assert not backend.physically_present("k1")
            assert batch.holds("k0")  # untouched units keep riding

    def test_erase_many_scrubs_in_flight_batches(self, backend):
        backend.insert_many((f"k{i}", i) for i in range(6))
        with backend.open_export(lambda k: True) as batch:
            backend.erase_many(["k0", "k2", "k4"])
            assert not any(batch.holds(k) for k in ("k0", "k2", "k4"))
            assert all(batch.holds(k) for k in ("k1", "k3", "k5"))

    def test_encoded_migration_between_backends(self, cost, backend, pickle_calls):
        backend.insert_many((f"k{i}", {"i": i}) for i in range(5))
        backend.make_inaccessible("k2")
        with backend.open_export(lambda k: True) as batch:
            items = batch.items
        for name in sorted(BACKENDS):
            dest = make_backend(name, cost)
            assert dest.import_encoded_batch(items) == 5
            assert dest.read("k4") == {"i": 4}
            # The reversible-erase flag survives the encoded transport.
            assert dest.is_inaccessible("k2")
            assert not dest.is_inaccessible("k1")
            # ...and stays invertible: one flag arrived, not a flag around
            # a flagged value.
            dest.restore("k2")
            assert not dest.is_inaccessible("k2")
            assert dest.read("k2") == {"i": 2}
        assert pickle_calls == []


class TestByteAccounting:
    """stats().total_bytes must be the sum of its published parts, and the
    parts must be real buffer sizes (the regression the binary-codec PR
    fixed: nominal rows × row_bytes guesses on the LSM/crypto tiers)."""

    def test_totals_are_sum_of_parts(self, backend):
        backend.insert_many((f"k{i}", {"i": i, "pad": "x" * 32}) for i in range(64))
        backend.commit()
        stats = backend.stats()
        assert stats.total_bytes == backend.data_bytes() + backend.index_bytes()

    def test_lsm_runs_store_packed_encoded_blocks(self, cost):
        backend = make_backend("lsm", cost, memtable_capacity=8)
        values = {f"k{i:02d}": {"i": i, "pad": "x" * (i % 7)} for i in range(32)}
        backend.insert_many(values.items())
        backend.engine.flush()
        runs = list(backend.engine.runs())
        assert runs
        for run in runs:
            blobs = [blob for _k, _s, blob in run.entries_encoded()]
            # The packed value block is length-prefixed codec blobs, so its
            # size is exactly the pack_block layout — real bytes, no guess.
            assert run.block_bytes == len(codec.pack_block(blobs))

    def test_crypto_bytes_count_sectors_and_vault_entries(self, cost):
        backend = make_backend("crypto-shred", cost)
        n = 10
        backend.insert_many((f"k{i}", {"i": i}) for i in range(n))
        # Small values fit one 512-byte sector each; all ten pack into one
        # group behind a single shared header.
        assert backend.data_bytes() == GROUP_HEADER_BYTES + n * SECTOR
        # Index = the private vault header plus one key entry per unit.
        assert backend.index_bytes() == VAULT_HEADER_BYTES + n * KEY_ENTRY_BYTES

    def test_crypto_sanitized_slots_release_bytes(self, cost):
        backend = make_backend("crypto-shred", cost)
        backend.insert_many((f"k{i}", {"i": i}) for i in range(8))
        before = backend.data_bytes()
        backend.sanitize_many([f"k{i}" for i in range(4)])
        assert backend.data_bytes() == before - 4 * SECTOR
