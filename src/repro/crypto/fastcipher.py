"""Fast keystream cipher for the crypto-shred sector groups.

SHA-256 in counter mode: keystream block i = SHA256(key ‖ nonce ‖ i).
The hash runs in C (hashlib): the 32-byte prefix is absorbed once into a
hash state, and each block is one copy of that state fed its 8-byte
counter.  The XOR is one big-int operation over the payload bytes only —
a sector's zero padding XORs to the keystream itself, so the sector
groups append that part unchanged.  Sealing every value at paper scale is
affordable, while the transformation remains a real keyed,
invertible-only-with-the-key cipher — good enough to make "encrypted at
rest" mean that a forensic scan sees ciphertext, which is what the
erasure/retention analyses need.  The *cost* of AES/LUKS is charged
separately through the cost model (``CostModel.charge_aes256`` /
``charge_luks`` / ``charge_aes128``).
"""

from __future__ import annotations

import hashlib

#: Block counters 0..63 as 8-byte big-endian (2 KiB of keystream, four
#: sectors); a range past the table encodes its counters on the fly.
_COUNTERS = tuple(i.to_bytes(8, "big") for i in range(64))


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """``a`` XOR ``b`` for equal-length inputs, as one big-int operation."""
    mixed = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return mixed.to_bytes(len(a), "big")


class FastStreamCipher:
    """SHA-256-CTR keystream cipher."""

    DIGEST = 32

    def __init__(self, key: bytes, nonce: bytes = b"") -> None:
        if not key:
            raise ValueError("key must be non-empty")
        self._state = hashlib.sha256(
            hashlib.sha256(key + b"\x00" + nonce).digest()
        )

    def keystream(self, nbytes: int, offset: int = 0) -> bytes:
        """``nbytes`` of keystream starting at byte ``offset``."""
        first_block, skip = divmod(offset, self.DIGEST)
        end_block = first_block + (skip + nbytes + self.DIGEST - 1) // self.DIGEST
        if end_block <= len(_COUNTERS):
            counters = _COUNTERS[first_block:end_block]
        else:
            counters = [i.to_bytes(8, "big") for i in range(first_block, end_block)]
        blocks = []
        for counter in counters:
            block = self._state.copy()
            block.update(counter)
            blocks.append(block.digest())
        return b"".join(blocks)[skip:skip + nbytes]

    def apply(self, data: bytes, offset: int = 0) -> bytes:
        """Encrypt/decrypt (XOR is symmetric)."""
        return xor_bytes(data, self.keystream(len(data), offset))
