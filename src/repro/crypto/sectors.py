"""Sector groups — packed multi-unit ciphertext regions.

The first crypto-shred layout gave every unit its own LUKS volume: a
512-byte header plus at least one 512-byte sector per value — a space
factor of roughly 3x a relational heap for 70-byte rows (Table-2 scale).
A :class:`SectorGroup` packs up to ``capacity`` units into one region that
shares a *single* 512-byte group header; each unit occupies its own
sector-aligned slot and is encrypted under its own subkey, KDF-derived
(:func:`derive_subkey`) from the unit's vault master key — so shredding
one unit's vault entry still grounds *that unit's* erasure while its
neighbors stay readable.  Per-unit cost drops from 1024+ bytes to
``512·sectors + 512/capacity`` plus a vault entry.

Sanitization batches the same way: :meth:`overwrite_slots` multi-pass
overwrites any set of slots in one sweep, so a batch of "permanently
delete" groundings in the same group pays one pass, not one per unit.

The group never sees key material beyond the subkeys handed to
``write``/``read``; a forensic scan (:meth:`raw_sector`) sees only
ciphertext.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, List

from repro.crypto.fastcipher import FastStreamCipher, xor_bytes

SECTOR = 512

#: Shared group header: slot table, salts, cipher metadata — amortized
#: over every unit in the group (the LUKS design paid this per unit).
GROUP_HEADER_BYTES = 512

#: Sectors one slot may span before the unit needs a dedicated group.
MAX_SLOT_SECTORS = 8

#: Units per group by default.
GROUP_CAPACITY = 16


def derive_subkey(master: bytes, group_id: int, slot: int) -> bytes:
    """The unit's sector-encryption subkey, derived from its (shreddable)
    vault master key and its placement — per-unit isolation inside a
    shared region: PBKDF2-HMAC-SHA256 at one iteration and 32 bytes,
    which is one HMAC over the salt and the block index 1."""
    salt = b"sector-group/%d/%d" % (group_id, slot)
    return hmac.digest(master, salt + b"\x00\x00\x00\x01", "sha256")


class SectorGroup:
    """One packed ciphertext region holding up to ``capacity`` units."""

    def __init__(
        self,
        group_id: int,
        capacity: int = GROUP_CAPACITY,
        slot_sectors: int = MAX_SLOT_SECTORS,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if slot_sectors < 1:
            raise ValueError("slot_sectors must be positive")
        self.group_id = group_id
        self.capacity = capacity
        self.slot_sectors = slot_sectors
        self._sectors: Dict[int, bytes] = {}
        self._used: List[bool] = [False] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    # ----------------------------------------------------------------- slots
    @property
    def has_free_slot(self) -> bool:
        return bool(self._free)

    @property
    def slots_in_use(self) -> int:
        return self.capacity - len(self._free)

    def alloc_slot(self) -> int:
        """Claim a free slot (freed slots are reused — the space-release
        half of a full reclamation really returns capacity)."""
        if not self._free:
            raise ValueError(f"sector group {self.group_id} is full")
        slot = self._free.pop()
        self._used[slot] = True
        return slot

    def fits(self, nbytes: int) -> bool:
        """Whether a value of ``nbytes`` fits one slot of this group."""
        return self.sectors_needed(nbytes) <= self.slot_sectors

    @staticmethod
    def sectors_needed(nbytes: int) -> int:
        return max(1, (nbytes + SECTOR - 1) // SECTOR)

    def _slot_base(self, slot: int) -> int:
        return slot * self.slot_sectors

    # --------------------------------------------------------------- sectors
    def _sector_cipher(self, subkey: bytes, sector_no: int) -> FastStreamCipher:
        # ESSIV-like: per-sector nonce derived from the subkey.
        nonce = hashlib.sha256(
            subkey + sector_no.to_bytes(8, "big")
        ).digest()[:16]
        return FastStreamCipher(subkey, nonce)

    def write(self, slot: int, subkey: bytes, blob: bytes) -> int:
        """Encrypt ``blob`` into the slot's sectors; returns the sector
        count.  Only the payload bytes are XORed: the zero padding of the
        last sector seals to the keystream itself.  Stale tail sectors of a
        shrinking rewrite are discarded — the old value must not stay
        recoverable under the live subkey."""
        sectors = self.sectors_needed(len(blob))
        if sectors > self.slot_sectors:
            raise ValueError(
                f"value needs {sectors} sectors; slot holds {self.slot_sectors}"
            )
        base = self._slot_base(slot)
        for i in range(sectors):
            chunk = blob[i * SECTOR:(i + 1) * SECTOR]
            sector_no = base + i
            stream = self._sector_cipher(subkey, sector_no).keystream(SECTOR)
            n = len(chunk)
            self._sectors[sector_no] = xor_bytes(chunk, stream[:n]) + stream[n:]
        for sector_no in range(base + sectors, base + self.slot_sectors):
            self._sectors.pop(sector_no, None)
        return sectors

    def read(self, slot: int, subkey: bytes, sectors: int, nbytes: int) -> bytes:
        """Decrypt the slot's payload back to ``nbytes`` of plaintext.
        Only the value's own bytes are deciphered: the last sector's zero
        padding never costs a keystream block."""
        base = self._slot_base(slot)
        parts = []
        for i in range(sectors):
            sector_no = base + i
            parts.append(
                self._sector_cipher(subkey, sector_no).apply(
                    self._sectors[sector_no][: max(0, nbytes - i * SECTOR)]
                )
            )
        return b"".join(parts)

    def read_sector(self, slot: int, subkey: bytes, index: int) -> bytes:
        """Decrypt one slot-relative sector."""
        sector_no = self._slot_base(slot) + index
        return self._sector_cipher(subkey, sector_no).apply(self._sectors[sector_no])

    def raw_sector(self, sector_no: int) -> bytes:
        """Ciphertext as a forensic scan would see it (no key required)."""
        return self._sectors[sector_no]

    def sector_number(self, slot: int, index: int) -> int:
        """The absolute sector number of a slot-relative index."""
        return self._slot_base(slot) + index

    def slot_sector_numbers(self, slot: int) -> List[int]:
        """The slot's currently-written sector numbers."""
        base = self._slot_base(slot)
        return [
            s for s in range(base, base + self.slot_sectors) if s in self._sectors
        ]

    # ----------------------------------------------------------------- erase
    def discard_slot(self, slot: int) -> int:
        """Drop the slot's ciphertext and free the slot for reuse (TRIM).
        Returns the sectors discarded."""
        dropped = 0
        for sector_no in self.slot_sector_numbers(slot):
            del self._sectors[sector_no]
            dropped += 1
        if self._used[slot]:
            self._used[slot] = False
            self._free.append(slot)
        return dropped

    def overwrite_slots(self, slots: List[int], passes: int = 3) -> int:
        """Multi-pass overwrite (NIST SP 800-88 "Purge") of several slots
        in one sweep, then discard them.  Returns total sectors overwritten
        (×1, not ×passes) — the batch is what amortizes sanitize cost when
        several units of the same group ground "permanently delete"
        together."""
        overwritten = 0
        for slot in slots:
            for sector_no in self.slot_sector_numbers(slot):
                noise = self._sectors[sector_no]
                for pass_no in range(passes):
                    noise = hashlib.sha256(
                        noise + bytes([pass_no])
                    ).digest() * (SECTOR // 32)
                    self._sectors[sector_no] = noise
                overwritten += 1
            self.discard_slot(slot)
        return overwritten

    # ----------------------------------------------------------- accounting
    @property
    def sector_count(self) -> int:
        return len(self._sectors)

    @property
    def size_bytes(self) -> int:
        """The shared header plus every written ciphertext sector."""
        return GROUP_HEADER_BYTES + self.sector_count * SECTOR

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SectorGroup(#{self.group_id}, slots={self.slots_in_use}/"
            f"{self.capacity}, sectors={self.sector_count})"
        )
