"""The Mall dataset — simulated smart-space observations.

The paper enriches GDPRBench records with "the Mall dataset from [51]
comprising simulated data generated from personal devices in a shopping
complex.  Each record consists of a personal data-id and the recorded date
and time generated using the SmartBench simulator [35]."

This module is that simulator's stand-in: a seeded generator of device
observations in a mall with zones, WiFi access points, and per-device
dwell/movement behaviour.  Records serialize to ≈70 bytes of personal data,
matching Table 2's 7 MB for 100k records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List

#: The mall floor plan: zones a device can be observed in.
ZONES = (
    "entrance-north",
    "entrance-south",
    "atrium",
    "food-court",
    "electronics",
    "apparel",
    "grocery",
    "cinema",
    "parking",
)

#: WiFi access points per zone.
APS_PER_ZONE = 4

#: Nominal serialized record size (personal data id + timestamp + zone +
#: AP + device type + rssi) — 70 bytes, aligning with Table 2.
RECORD_BYTES = 70

#: Simulated observation cadence (one observation per device per tick).
TICK_MICROS = 60_000_000  # one minute


@dataclass(frozen=True)
class MallRecord:
    """One personal-device observation."""

    record_id: int
    device_id: int
    subject_id: int
    timestamp: int
    zone: str
    access_point: str
    rssi: int

    @property
    def size_bytes(self) -> int:
        return RECORD_BYTES

    def as_row(self) -> Dict[str, object]:
        """The row payload stored in the personal-data table."""
        return {
            "pid": self.record_id,
            "device": self.device_id,
            "subject": self.subject_id,
            "ts": self.timestamp,
            "zone": self.zone,
            "ap": self.access_point,
            "rssi": self.rssi,
        }


class MallDataset:
    """Seeded generator of mall observations.

    Devices perform a lazy random walk over zones: with probability
    ``move_prob`` a device transfers to an adjacent zone each tick,
    otherwise it dwells — giving realistic per-device locality (bursts of
    observations in one zone), which matters for the metadata-predicate
    reads (GDPRBench's READ_BY_META locates records by zone).
    """

    def __init__(
        self,
        n_devices: int = 1_000,
        seed: int = 42,
        move_prob: float = 0.3,
        start_time: int = 0,
    ) -> None:
        if n_devices < 1:
            raise ValueError("need at least one device")
        if not 0.0 <= move_prob <= 1.0:
            raise ValueError("move_prob must be a probability")
        self._rng = random.Random(seed)
        self._n_devices = n_devices
        self._move_prob = move_prob
        self._time = start_time
        self._next_record_id = 0
        self._positions: Dict[int, int] = {
            d: self._rng.randrange(len(ZONES)) for d in range(n_devices)
        }

    # -------------------------------------------------------------- generate
    def _observe(self, device: int) -> MallRecord:
        zone_index = self._positions[device]
        if self._rng.random() < self._move_prob:
            step = self._rng.choice((-1, 1))
            zone_index = (zone_index + step) % len(ZONES)
            self._positions[device] = zone_index
        zone = ZONES[zone_index]
        ap = f"{zone}-ap{self._rng.randrange(APS_PER_ZONE)}"
        record = MallRecord(
            record_id=self._next_record_id,
            device_id=device,
            subject_id=device,  # one device per data subject
            timestamp=self._time,
            zone=zone,
            access_point=ap,
            rssi=-30 - self._rng.randrange(60),
        )
        self._next_record_id += 1
        return record

    def generate(self, n_records: int) -> List[MallRecord]:
        """The next ``n_records`` observations, round-robin over devices."""
        if n_records < 0:
            raise ValueError("n_records must be non-negative")
        records: List[MallRecord] = []
        while len(records) < n_records:
            for device in range(self._n_devices):
                records.append(self._observe(device))
                if len(records) == n_records:
                    break
            self._time += TICK_MICROS
        return records

    def stream(self) -> Iterator[MallRecord]:
        """Endless observation stream (one tick per device sweep)."""
        while True:
            for device in range(self._n_devices):
                yield self._observe(device)
            self._time += TICK_MICROS

    # --------------------------------------------------------------- queries
    @staticmethod
    def total_bytes(records: List[MallRecord]) -> int:
        return sum(r.size_bytes for r in records)
