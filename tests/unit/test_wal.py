"""Unit tests for the write-ahead log."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.wal import RECORD_BYTES, WalRecordType, WriteAheadLog


def make_wal(group_size=4):
    clock = SimClock()
    cost = CostModel(clock, CostBook())
    return WriteAheadLog(cost, group_size=group_size), clock


class TestAppend:
    def test_lsns_are_monotone(self):
        wal, _ = make_wal()
        r1 = wal.append(WalRecordType.INSERT, "t", "k1")
        r2 = wal.append(WalRecordType.DELETE, "t", "k2")
        assert r2.lsn == r1.lsn + 1

    def test_group_commit_batches_fsyncs(self):
        wal, clock = make_wal(group_size=4)
        for i in range(8):
            wal.append(WalRecordType.INSERT, "t", i)
        assert wal.flush_count == 2  # two groups of four

    def test_explicit_flush(self):
        wal, _ = make_wal(group_size=100)
        wal.append(WalRecordType.INSERT, "t", 1)
        wal.flush()
        assert wal.flush_count == 1
        wal.flush()  # nothing pending
        assert wal.flush_count == 1

    def test_append_charges_log_cost(self):
        wal, clock = make_wal(group_size=100)
        wal.append(WalRecordType.INSERT, "t", 1)
        assert clock.spent("logging") == CostBook().log_append

    def test_size_bytes(self):
        wal, _ = make_wal()
        for i in range(5):
            wal.append(WalRecordType.INSERT, "t", i)
        assert wal.size_bytes == 5 * RECORD_BYTES

    def test_invalid_group_size(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            WriteAheadLog(CostModel(clock), group_size=0)


class TestQueriesAndRetention:
    def test_records_for_key(self):
        wal, _ = make_wal()
        wal.append(WalRecordType.INSERT, "t", "k")
        wal.append(WalRecordType.UPDATE, "t", "k")
        wal.append(WalRecordType.INSERT, "t", "other")
        assert len(wal.records_for_key("t", "k")) == 2

    def test_purge_key_scrubs_history(self):
        """The P_SYS erase grounding must leave no trace in the log."""
        wal, clock = make_wal()
        wal.append(WalRecordType.INSERT, "t", "k")
        wal.append(WalRecordType.DELETE, "t", "k")
        wal.append(WalRecordType.INSERT, "t", "other")
        assert wal.purge_key("t", "k") == 2
        assert wal.records_for_key("t", "k") == []
        assert wal.record_count == 1
        assert clock.spent("logging") > 0

    def test_purge_missing_key_free(self):
        wal, clock = make_wal()
        spent = clock.spent("logging")
        assert wal.purge_key("t", "ghost") == 0
        assert clock.spent("logging") == spent

    def test_checkpoint_truncates_every_record(self):
        wal, _ = make_wal()
        for i in range(10):
            wal.append(WalRecordType.INSERT, "t", i, 70, payload=f"v{i}")
        assert wal.checkpoint() == 10
        assert wal.record_count == 0 and wal.size_bytes == 0
        assert list(wal.records()) == []
        assert wal.records_for_key("t", 3) == []
        assert not wal.holds_payload_for("t", 3)
        assert wal.append(WalRecordType.INSERT, "t", 10).lsn == 11
        assert [r.lsn for r in wal.records()] == [11]
        assert wal.checkpoint() == 1


class TestPayloadRetention:
    """The WAL is a copy location: row images linger until scrubbed."""

    def test_append_carries_payload(self):
        wal, _ = make_wal()
        wal.append(WalRecordType.INSERT, "t", "k", 70, payload="secret")
        assert wal.holds_payload_for("t", "k")
        record = wal.records_for_key("t", "k")[0]
        assert record.payload == "secret"

    def test_delete_records_carry_no_payload(self):
        wal, _ = make_wal()
        wal.append(WalRecordType.DELETE, "t", "k")
        assert not wal.holds_payload_for("t", "k")

    def test_scrub_key_redacts_but_keeps_records(self):
        """Scrubbing removes the personal data, not the recovery metadata —
        unlike purge_key, LSNs and types survive."""
        wal, clock = make_wal()
        wal.append(WalRecordType.INSERT, "t", "k", 70, payload="v1")
        wal.append(WalRecordType.UPDATE, "t", "k", 70, payload="v2")
        wal.append(WalRecordType.DELETE, "t", "k")
        spent = clock.spent("logging")
        assert wal.scrub_key("t", "k") == 2
        assert clock.spent("logging") > spent
        assert not wal.holds_payload_for("t", "k")
        records = wal.records_for_key("t", "k")
        assert len(records) == 3  # records survive, payloads do not
        assert all(r.payload is None for r in records)

    def test_scrub_is_idempotent_and_free_when_clean(self):
        wal, clock = make_wal()
        wal.append(WalRecordType.INSERT, "t", "k", 70, payload="v")
        wal.scrub_key("t", "k")
        spent = clock.spent("logging")
        assert wal.scrub_key("t", "k") == 0
        assert clock.spent("logging") == spent

    def test_checkpoint_truncation_drops_payloads(self):
        wal, _ = make_wal()
        wal.append(WalRecordType.INSERT, "t", "k", 70, payload="secret")
        wal.checkpoint()
        assert not wal.holds_payload_for("t", "k")
