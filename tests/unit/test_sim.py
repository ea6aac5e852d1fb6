"""Unit tests for the simulated clock and cost model."""

import pytest

from repro.sim.clock import MICROS_PER_MINUTE, MICROS_PER_SECOND, SimClock
from repro.sim.costs import CostBook, CostModel


class TestSimClock:
    def test_starts_at_epoch(self):
        assert SimClock().now == 0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1)

    def test_charge_advances_and_attributes(self):
        clock = SimClock()
        clock.charge(100, "storage")
        clock.charge(50, "policy")
        assert clock.now == 150
        assert clock.spent("storage") == 100
        assert clock.spent("policy") == 50
        assert clock.spent("crypto") == 0

    def test_fractional_charges_accumulate_exactly(self):
        clock = SimClock()
        for _ in range(10):
            clock.charge(0.25, "crypto")
        assert clock.spent("crypto") == pytest.approx(2.5)
        assert clock.now == 2  # rounded position

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge(-1)

    def test_unit_conversions(self):
        clock = SimClock()
        clock.charge(90 * MICROS_PER_SECOND)
        assert clock.now_seconds == pytest.approx(90.0)
        assert clock.now_minutes == pytest.approx(1.5)

    def test_advance_to_counts_idle(self):
        clock = SimClock()
        clock.advance_to(1_000)
        assert clock.now == 1_000
        assert clock.spent("idle") == 1_000

    def test_advance_backwards_rejected(self):
        clock = SimClock()
        clock.charge(100)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(50)

    def test_stopwatch_measures_interval(self):
        clock = SimClock()
        clock.charge(100)
        watch = clock.stopwatch()
        clock.charge(40)
        assert watch.elapsed == 40
        assert watch.stop() == 40
        clock.charge(1_000)
        assert watch.elapsed == 40  # frozen after stop

    def test_stopwatch_unit_helpers(self):
        clock = SimClock()
        watch = clock.stopwatch()
        clock.charge(3 * MICROS_PER_MINUTE)
        assert watch.elapsed_minutes == pytest.approx(3.0)
        assert watch.elapsed_seconds == pytest.approx(180.0)

    def test_reset(self):
        clock = SimClock()
        clock.charge(55, "x")
        clock.reset()
        assert clock.now == 0 and clock.ledger() == {}

    def test_ledger_is_copy(self):
        clock = SimClock()
        clock.charge(5, "a")
        ledger = clock.ledger()
        ledger["a"] = 999
        assert clock.spent("a") == 5


class TestCostBook:
    def test_scaled_multiplies_everything(self):
        book = CostBook().scaled(2.0)
        assert book.page_read == CostBook().page_read * 2

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CostBook().scaled(0)

    def test_replace_overrides_selected(self):
        book = CostBook().replace(page_read=1.0)
        assert book.page_read == 1.0
        assert book.page_write == CostBook().page_write


class TestCostModel:
    def setup_method(self):
        self.clock = SimClock()
        self.model = CostModel(self.clock, CostBook())

    def test_storage_charges_go_to_storage_category(self):
        self.model.charge_page_read(3)
        assert self.clock.spent("storage") == 3 * CostBook().page_read

    def test_vacuum_includes_trigger_overhead(self):
        self.model.charge_vacuum(10)
        expected = CostBook().vacuum_trigger_overhead + 10 * CostBook().vacuum_per_dead_tuple
        assert self.clock.spent("vacuum") == expected

    def test_vacuum_full_includes_lock_overhead(self):
        self.model.charge_vacuum_full(100)
        expected = (
            CostBook().vacuum_full_lock_overhead
            + 100 * CostBook().vacuum_full_per_tuple
        )
        assert self.clock.spent("vacuum") == expected

    def test_policy_charges(self):
        self.model.charge_rbac_check()
        self.model.charge_fgac_eval(5)
        self.model.charge_sieve_lookup()
        expected = (
            CostBook().rbac_check
            + 5 * CostBook().fgac_policy_eval
            + CostBook().sieve_index_lookup
        )
        assert self.clock.spent("policy") == pytest.approx(expected)

    def test_crypto_charges_include_key_schedule(self):
        self.model.charge_aes128(1_000)
        expected = CostBook().key_schedule + 1_000 * CostBook().aes128_per_byte
        assert self.clock.spent("crypto") == pytest.approx(expected)

    def test_aes256_costs_more_than_luks_more_than_aes128(self):
        """Per-byte AES-256 > LUKS > AES-128: the encryption lever behind
        the P_Base > P_GBench > P_SYS ordering of Figure 4."""
        def spent(charge):
            clock = SimClock()
            charge(CostModel(clock), 10_000)
            return clock.spent("crypto")

        assert (
            spent(CostModel.charge_aes256)
            > spent(CostModel.charge_luks)
            > spent(CostModel.charge_aes128)
        )

    def test_luks_sector_rounding(self):
        self.model.charge_luks(1)  # 1 byte still pays one 512B sector overhead
        expected = CostBook().luks_sector_overhead + CostBook().luks_per_byte
        assert self.clock.spent("crypto") == pytest.approx(expected)

    def test_breakdown_seconds(self):
        pages = round(1e6 / CostBook().page_read)  # ~1 second of page reads
        self.model.charge_page_read(pages)
        breakdown = self.model.breakdown_seconds()
        assert breakdown["storage"] == pytest.approx(1.0, rel=0.01)

    def test_logging_charges(self):
        self.model.charge_csv_log_row(2)
        self.model.charge_query_response_log()
        self.model.charge_log_purge(5)
        expected = (
            2 * CostBook().csv_log_row
            + CostBook().query_response_log
            + 5 * CostBook().log_purge_per_record
        )
        assert self.clock.spent("logging") == pytest.approx(expected)

    def test_sanitize_category(self):
        self.model.charge_sanitize(2)
        assert self.clock.spent("sanitize") == 2 * CostBook().sanitize_per_page
