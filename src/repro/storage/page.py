"""Heap pages.

A :class:`Page` is a fixed-capacity container of tuple slots, mirroring
PostgreSQL's 8 KB heap pages.  Tuples are never moved on DELETE — the slot
is marked dead and its space only becomes reusable after VACUUM prunes it.
Pruning keeps slot numbers stable (the slot becomes a hole), so tuple ids
``(page_no, slot_no)`` held by indexes stay valid; only VACUUM FULL moves
tuples (and therefore rebuilds indexes).

The page tracks live/dead byte and slot counts so the heap can expose the
bloat statistics the cost model feeds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.storage.errors import PageFullError

#: Usable bytes per heap page (PostgreSQL's BLCKSZ minus header, roughly).
PAGE_SIZE = 8192

#: Fixed per-tuple overhead (PostgreSQL: 23-byte header + line pointer).
TUPLE_OVERHEAD = 27


@dataclass
class TupleSlot:
    """One stored tuple version."""

    key: Any
    payload_size: int
    payload: Any
    live: bool = True

    @property
    def footprint(self) -> int:
        return self.payload_size + TUPLE_OVERHEAD


class Page:
    """A fixed-size heap page with out-of-place delete semantics."""

    __slots__ = ("page_no", "_slots", "_live_count", "_dead_count",
                 "_live_bytes", "_dead_bytes", "_free")

    def __init__(self, page_no: int) -> None:
        self.page_no = page_no
        self._slots: List[Optional[TupleSlot]] = []
        self._live_count = 0
        self._dead_count = 0
        self._live_bytes = 0
        self._dead_bytes = 0
        self._free = PAGE_SIZE

    # -------------------------------------------------------------- capacity
    @property
    def free_bytes(self) -> int:
        return self._free

    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    @property
    def dead_bytes(self) -> int:
        return self._dead_bytes

    @property
    def live_count(self) -> int:
        return self._live_count

    @property
    def dead_count(self) -> int:
        return self._dead_count

    def fits(self, payload_size: int) -> bool:
        return payload_size + TUPLE_OVERHEAD <= self._free

    # ------------------------------------------------------------- mutation
    def insert(self, key: Any, payload: Any, payload_size: int) -> int:
        """Store a tuple; returns its (stable) slot number."""
        slot = TupleSlot(key, payload_size, payload)
        if slot.footprint > self._free:
            raise PageFullError(
                f"page {self.page_no}: need {slot.footprint}B, free {self._free}B"
            )
        self._slots.append(slot)
        self._free -= slot.footprint
        self._live_bytes += slot.footprint
        self._live_count += 1
        return len(self._slots) - 1

    def mark_dead(self, slot_no: int) -> None:
        """DELETE semantics: the slot stays, flagged dead, space not freed."""
        slot = self._require(slot_no)
        if not slot.live:
            raise ValueError(f"slot {slot_no} on page {self.page_no} already dead")
        slot.live = False
        self._live_bytes -= slot.footprint
        self._dead_bytes += slot.footprint
        self._live_count -= 1
        self._dead_count += 1

    def prune(self) -> int:
        """VACUUM semantics: turn dead slots into holes, freeing their space.

        Slot numbers of surviving tuples do not change.  Returns the number
        of dead slots reclaimed.
        """
        reclaimed = 0
        freed = 0
        for i, slot in enumerate(self._slots):
            if slot is not None and not slot.live:
                freed += slot.footprint
                self._slots[i] = None
                reclaimed += 1
        self._dead_bytes -= freed
        self._free += freed
        self._dead_count -= reclaimed
        return reclaimed

    # --------------------------------------------------------------- access
    def slot(self, slot_no: int) -> TupleSlot:
        return self._require(slot_no)

    def _require(self, slot_no: int) -> TupleSlot:
        try:
            slot = self._slots[slot_no]
        except IndexError:
            raise IndexError(
                f"page {self.page_no} has no slot {slot_no}"
            ) from None
        if slot is None:
            raise IndexError(
                f"page {self.page_no} slot {slot_no} was vacuumed away"
            )
        return slot

    def live_slots(self) -> Iterator[Tuple[int, TupleSlot]]:
        for i, slot in enumerate(self._slots):
            if slot is not None and slot.live:
                yield i, slot

    def all_slots(self) -> Iterator[Tuple[int, TupleSlot]]:
        for i, slot in enumerate(self._slots):
            if slot is not None:
                yield i, slot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Page({self.page_no}, live={self._live_count}, "
            f"dead={self._dead_count}, free={self._free}B)"
        )
