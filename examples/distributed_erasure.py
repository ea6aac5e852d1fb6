"""Distributed erasure (paper §1) — replicas, caches, and dead tuples.

    "The impact of the ambiguity is further highlighted when we consider
     distributed systems that may replicate/cache data across different
     nodes … If erasure means removing the data not just from the primary
     location, but removing it completely, a technique will have to be
     built to track the copies and delete all of them."

This example builds a primary + 2 async replicas with read caches, deletes
a record the naive way (primary-only DELETE), and enumerates every location
that still physically holds the value.  Then it runs the grounded
distributed erase and verifies nothing lingers.

Run:  python examples/distributed_erasure.py
"""

from repro import CostBook, CostModel, ReplicatedStore, SimClock, StoreConfig


def main() -> None:
    clock = SimClock()
    cost = CostModel(clock, CostBook())
    store = ReplicatedStore(
        cost,
        StoreConfig(n_replicas=2, replication_lag=50_000, cache_ttl=500_000),
    )

    # Collect a user's record; replication and caching do their normal job.
    store.put("user-1234/location", {"zone": "food-court"})
    clock.charge(60_000, "time-passes")  # replication lag elapses
    store.read("user-1234/location", replica=0)  # replica 0 applies + caches
    store.read("user-1234/location", replica=1)  # replica 1 applies + caches

    print("Copies after normal operation:")
    for location, node in store.copies_of("user-1234/location"):
        print(f"  {location} @ {node}")

    # The user invokes erasure; the naive grounding deletes at the primary.
    store.naive_delete("user-1234/location")
    print("\nAfter the naive primary-only DELETE:")
    for location, node in store.copies_of("user-1234/location"):
        print(f"  STILL PRESENT: {location} @ {node}")
    served = store.read("user-1234/location", replica=0)
    print(f"  replica 0 still serves the value: {served!r}")

    # The grounded distributed erase: track and delete every copy.
    report = store.erase_all_copies("user-1234/location")
    print("\nGrounded erase_all_copies report:")
    print(f"  nodes deleted:        {report.nodes_deleted}")
    print(f"  caches invalidated:   {report.caches_invalidated}")
    print(f"  dead tuples vacuumed: {report.dead_tuples_vacuumed}")
    print(f"  verified clean:       {report.verified_clean}")
    assert report.verified_clean
    print("\nNo copy survives on any node, cache, or dead tuple.")


if __name__ == "__main__":
    main()
