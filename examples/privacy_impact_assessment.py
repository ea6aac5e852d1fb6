"""Privacy Impact Assessment (paper §4.4) — pre-deployment risk analysis.

GDPR Article 35 requires controllers to assess high-risk processing before
it starts.  Data-CASE supports this by exposing, for every step of the
pipeline, the system-actions that would implement each grounding and their
measurable properties.  This example assesses a proposed smart-mall
deployment on two candidate storage substrates:

1. PSQL with DELETE-only erasure — risk: dead tuples physically retain
   erased data until a vacuum someone forgot to schedule;
2. an LSM store with tombstone deletes — risk: deleted values persist in
   older runs until compaction (the paper's §1 motivation).

The PIA quantifies both risks with the actual engines, then reruns the
check with mitigations (scheduled VACUUM / eager compaction).

Run:  python examples/privacy_impact_assessment.py
"""

from repro import (
    ActionType,
    CompliantDatabase,
    CostBook,
    CostModel,
    LSMEngine,
    MallDataset,
    Policy,
    Purpose,
    RelationalEngine,
    SimClock,
    controller,
    data_subject,
    figure1_invariants,
    regulation_requires_any_of,
)
from repro.core.invariants import PIA_UNIT

MALL_CO = controller("SmartMall-Co")


def assess_psql_retention() -> None:
    print("Risk 1 — PSQL DELETE-only erasure retains data physically:")
    cost = CostModel(SimClock(), CostBook())
    engine = RelationalEngine(cost)
    engine.create_table("observations", row_bytes=70)
    records = MallDataset(n_devices=50, seed=1).generate(500)
    for record in records:
        engine.insert("observations", record.record_id, record.as_row())
    for record in records[:100]:
        engine.delete("observations", record.record_id)
    retained = [key for key, live in engine.forensic_scan("observations") if not live]
    print(f"  deleted records: 100; forensically recoverable: {len(retained)}")
    engine.vacuum("observations")
    retained = [key for key, live in engine.forensic_scan("observations") if not live]
    print(f"  after scheduled VACUUM (mitigation): recoverable: {len(retained)}")
    print()


def assess_lsm_retention() -> None:
    print("Risk 2 — LSM tombstones retain deleted values until compaction:")
    cost = CostModel(SimClock(), CostBook())
    engine = LSMEngine(cost, memtable_capacity=64, tier_threshold=8)
    records = MallDataset(n_devices=50, seed=2).generate(500)
    for record in records:
        engine.put(record.record_id, record.as_row())
    for record in records[:100]:
        engine.delete(record.record_id)
    engine.flush()
    exposed = engine.unpurged_deletions()
    print(f"  deleted records: 100; still physically present: {len(exposed)}")
    engine.full_compaction()
    exposed = engine.unpurged_deletions()
    print(f"  after eager full compaction (mitigation): present: {len(exposed)}")
    print()


def assess_formal_invariants() -> None:
    """The PIA itself becomes part of the record: processing may only start
    after the assessment (Figure 1, category III)."""
    print("Pre-deployment invariant check on the proposed pipeline:")
    db = CompliantDatabase(MALL_CO)
    # Record the PIA *before* any processing.
    db.log.record(
        PIA_UNIT,
        Purpose.AUDIT,
        MALL_CO,
        ActionType.CONTRACT,
        db.clock.now,
    )
    shopper = data_subject("shopper-1")
    db.collect(
        "obs-1",
        shopper,
        "wifi-ap",
        {"zone": "electronics"},
        policies=[Policy(Purpose.SERVICE, MALL_CO, 0, 10**12)],
        erase_deadline=10**12,
    )
    db.read("obs-1", MALL_CO, Purpose.SERVICE)
    invariants = figure1_invariants(
        required_by_regulation=regulation_requires_any_of(
            Purpose.COMPLIANCE_ERASE, Purpose.CONTRACT
        ),
        encrypted_at_rest=lambda: True,
    )
    report = db.check_compliance(invariants)
    print(report.render())


if __name__ == "__main__":
    assess_psql_retention()
    assess_lsm_retention()
    assess_formal_invariants()
