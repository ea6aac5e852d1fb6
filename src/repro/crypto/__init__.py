"""Cryptography substrate.

The three profiles encrypt at rest with three different schemes (paper §4.2):
P_Base uses AES-256, P_GBench uses LUKS (SHA-256-based disk encryption),
P_SYS uses AES-128.  This package implements:

* :mod:`repro.crypto.aes` — a from-scratch AES-128/192/256 block cipher,
  validated against the FIPS-197 test vectors;
* :mod:`repro.crypto.modes` — CTR and CBC modes over any block cipher;
* :mod:`repro.crypto.kdf` — PBKDF2-HMAC-SHA256 key derivation;
* :mod:`repro.crypto.luks` — a LUKS-style encrypted volume (header, key
  slots, per-sector encryption);
* :mod:`repro.crypto.fastcipher` — a SHA-256 keystream cipher used for bulk
  engine traffic (pure-Python AES is ~10³× slower than AES-NI;
  ``tests/integration/test_cipher_tiers.py`` shows the substitution
  leaves the figures unchanged);
* :mod:`repro.crypto.adapters` — :class:`repro.storage.engine.EngineCipher`
  implementations wiring ciphers + cost charging into the engines.
"""

from repro.crypto.adapters import (
    AesEngineCipher,
    CipherKind,
    CostOnlyCipher,
    FastEngineCipher,
    make_engine_cipher,
)
from repro.crypto.aes import AES
from repro.crypto.fastcipher import FastStreamCipher
from repro.crypto.kdf import pbkdf2_sha256
from repro.crypto.luks import LuksVolume
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, ctr_keystream, ctr_xor

__all__ = [
    "AES",
    "cbc_encrypt",
    "cbc_decrypt",
    "ctr_keystream",
    "ctr_xor",
    "pbkdf2_sha256",
    "LuksVolume",
    "FastStreamCipher",
    "CipherKind",
    "CostOnlyCipher",
    "FastEngineCipher",
    "AesEngineCipher",
    "make_engine_cipher",
]
