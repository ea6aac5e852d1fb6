"""Cryptography substrate for the crypto-shred backend.

The three profiles encrypt at rest with three different schemes (paper §4.2):
P_Base uses AES-256, P_GBench uses LUKS (SHA-256-based disk encryption),
P_SYS uses AES-128.  The profiles charge those schemes' costs directly
through the cost model (``CostModel.charge_aes256`` / ``charge_luks`` /
``charge_aes128``); the ciphertext that really sits at rest belongs to
the crypto-shred backend, built from:

* :mod:`repro.crypto.fastcipher` — a SHA-256 keystream cipher (hash and
  XOR both in C) that seals every slot;
* :mod:`repro.crypto.sectors` — sector groups packing many units'
  ciphertext, each slot under its own subkey (one-iteration
  PBKDF2-HMAC-SHA256, computed as the one HMAC it is);
* :mod:`repro.crypto.vault` — the key vault holding every unit's
  shreddable master key.
"""

from repro.crypto.fastcipher import FastStreamCipher

__all__ = [
    "FastStreamCipher",
]
