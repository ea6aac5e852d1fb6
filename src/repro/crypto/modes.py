"""Block cipher modes of operation (CTR and CBC) with PKCS#7 padding.

Mode functions take any object exposing ``encrypt_block``/``decrypt_block``
over 16-byte blocks — in practice :class:`repro.crypto.aes.AES`.
"""

from __future__ import annotations

from typing import Protocol

BLOCK = 16


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """``a`` XOR ``b`` for equal-length inputs, as one big-int operation."""
    mixed = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return mixed.to_bytes(len(a), "big")


class BlockCipher(Protocol):  # pragma: no cover - typing protocol
    def encrypt_block(self, block: bytes) -> bytes: ...

    def decrypt_block(self, block: bytes) -> bytes: ...


# --------------------------------------------------------------------------
# PKCS#7 padding
# --------------------------------------------------------------------------

def pkcs7_pad(data: bytes) -> bytes:
    pad = BLOCK - (len(data) % BLOCK)
    return data + bytes([pad]) * pad


def pkcs7_unpad(data: bytes) -> bytes:
    if not data or len(data) % BLOCK:
        raise ValueError("invalid padded length")
    pad = data[-1]
    if not 1 <= pad <= BLOCK or data[-pad:] != bytes([pad]) * pad:
        raise ValueError("invalid PKCS#7 padding")
    return data[:-pad]


# --------------------------------------------------------------------------
# CTR mode
# --------------------------------------------------------------------------

def ctr_keystream(cipher: BlockCipher, nonce: bytes, nbytes: int) -> bytes:
    """Keystream of ``nbytes`` from a 16-byte nonce/counter block."""
    if len(nonce) != BLOCK:
        raise ValueError("CTR nonce must be 16 bytes")
    counter = int.from_bytes(nonce, "big")
    out = bytearray()
    while len(out) < nbytes:
        out += cipher.encrypt_block(counter.to_bytes(BLOCK, "big"))
        counter = (counter + 1) % (1 << 128)
    return bytes(out[:nbytes])


def ctr_xor(cipher: BlockCipher, nonce: bytes, data: bytes) -> bytes:
    """CTR encrypt/decrypt (symmetric)."""
    return xor_bytes(data, ctr_keystream(cipher, nonce, len(data)))


# --------------------------------------------------------------------------
# CBC mode
# --------------------------------------------------------------------------

def cbc_encrypt(cipher: BlockCipher, iv: bytes, plaintext: bytes) -> bytes:
    if len(iv) != BLOCK:
        raise ValueError("CBC IV must be 16 bytes")
    data = pkcs7_pad(plaintext)
    out = bytearray()
    previous = iv
    for i in range(0, len(data), BLOCK):
        previous = cipher.encrypt_block(xor_bytes(data[i:i + BLOCK], previous))
        out += previous
    return bytes(out)


def cbc_decrypt(cipher: BlockCipher, iv: bytes, ciphertext: bytes) -> bytes:
    if len(iv) != BLOCK:
        raise ValueError("CBC IV must be 16 bytes")
    if len(ciphertext) % BLOCK:
        raise ValueError("ciphertext length must be a block multiple")
    out = bytearray()
    previous = iv
    for i in range(0, len(ciphertext), BLOCK):
        block = ciphertext[i:i + BLOCK]
        out += xor_bytes(cipher.decrypt_block(block), previous)
        previous = block
    return pkcs7_unpad(bytes(out))
