"""Fast keystream cipher for bulk engine traffic.

SHA-256 in counter mode: keystream block i = SHA256(key ‖ nonce ‖ i).
The hash runs in C (hashlib) and the XOR is one big-int operation, so
sealing every tuple at paper scale is affordable, while the transformation
remains a real keyed, invertible-only-with-the-key cipher — good enough to
make "encrypted at rest" mean that a forensic scan sees ciphertext, which
is what the erasure/retention analyses need.  The *cost* of AES/LUKS is
charged separately through the cost model (the figures do not depend on
the cipher tier: ``tests/integration/test_cipher_tiers.py``).
"""

from __future__ import annotations

import hashlib

from repro.crypto.modes import xor_bytes


class FastStreamCipher:
    """SHA-256-CTR keystream cipher."""

    DIGEST = 32

    def __init__(self, key: bytes, nonce: bytes = b"") -> None:
        if not key:
            raise ValueError("key must be non-empty")
        self._prefix = hashlib.sha256(key + b"\x00" + nonce).digest()

    def keystream(self, nbytes: int, offset: int = 0) -> bytes:
        """``nbytes`` of keystream starting at byte ``offset``."""
        first_block = offset // self.DIGEST
        skip = offset % self.DIGEST
        end_block = first_block + (skip + nbytes + self.DIGEST - 1) // self.DIGEST
        out = b"".join([
            hashlib.sha256(self._prefix + block.to_bytes(8, "big")).digest()
            for block in range(first_block, end_block)
        ])
        return out[skip:skip + nbytes]

    def apply(self, data: bytes, offset: int = 0) -> bytes:
        """Encrypt/decrypt (XOR is symmetric)."""
        return xor_bytes(data, self.keystream(len(data), offset))
