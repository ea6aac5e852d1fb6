"""Integration: cipher tiers are cost-identical and engine-transparent.

The figures do not depend on whether the engine runs the cost-only,
SHA-256-keystream, or real-AES cipher tier; these tests are where that
claim lives, pinned on a real engine workload.
"""

import pytest

from repro.crypto.adapters import CipherKind, make_engine_cipher
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.engine import RelationalEngine

TIERS = ("cost-only", "fast", "aes")


def run_mini_workload(tier: str) -> tuple:
    clock = SimClock()
    cost = CostModel(clock, CostBook())
    cipher = make_engine_cipher(cost, CipherKind.AES256, tier)
    engine = RelationalEngine(cost, cipher=cipher)
    engine.create_table("t", row_bytes=70)
    for i in range(50):
        engine.insert("t", i, {"record": i})
    values = [engine.read("t", i) for i in range(0, 50, 7)]
    for i in range(0, 50, 5):
        engine.update("t", i, {"record": i, "v": 2})
    for i in range(0, 50, 10):
        engine.delete("t", i)
    engine.vacuum("t")
    return clock.now, values


class TestCipherTierEquivalence:
    def test_simulated_time_identical_across_tiers(self):
        times = {tier: run_mini_workload(tier)[0] for tier in TIERS}
        assert len(set(times.values())) == 1, times

    def test_read_values_identical_across_tiers(self):
        values = {tier: run_mini_workload(tier)[1] for tier in TIERS}
        assert values["cost-only"] == values["fast"] == values["aes"]


class TestCipherOpacity:
    @pytest.mark.parametrize("tier", ["fast", "aes"])
    def test_forensic_scan_sees_ciphertext(self, tier):
        """With a transforming tier, dead tuples recovered by a forensic
        scan are sealed — encryption-at-rest actually protects retained
        data, which the cost-only tier (by design) does not model."""
        clock = SimClock()
        cost = CostModel(clock, CostBook())
        cipher = make_engine_cipher(cost, CipherKind.AES128, tier)
        engine = RelationalEngine(cost, cipher=cipher)
        engine.create_table("t", row_bytes=70)
        engine.insert("t", 1, {"ssn": "123-45-6789"})
        engine.delete("t", 1)  # dead but physically retained
        # forensic access to raw slot payloads:
        table = engine._catalog.get("t")
        retained = [slot.payload for _tid, slot in table.heap.scan_all()]
        assert len(retained) == 1
        sealed = retained[0]
        assert not isinstance(sealed, dict)
        assert b"123-45-6789" not in sealed.ciphertext
