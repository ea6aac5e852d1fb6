"""Key derivation — PBKDF2-HMAC-SHA256 (``hashlib.pbkdf2_hmac``, in C).

Used by the LUKS volume to derive the key-encryption key from a passphrase,
mirroring cryptsetup's PBKDF2 default.
"""

from __future__ import annotations

import hashlib


def pbkdf2_sha256(
    passphrase: bytes, salt: bytes, iterations: int, dklen: int = 32
) -> bytes:
    """PBKDF2 with HMAC-SHA256 (RFC 2898)."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if dklen < 1:
        raise ValueError("dklen must be >= 1")
    return hashlib.pbkdf2_hmac("sha256", passphrase, salt, iterations, dklen)
