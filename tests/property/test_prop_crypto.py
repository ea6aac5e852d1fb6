"""Property tests: cryptographic substrate invariants."""

import hashlib
import hmac

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.fastcipher import FastStreamCipher
from repro.crypto.kdf import pbkdf2_sha256
from repro.crypto.luks import LuksVolume
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, ctr_xor, pkcs7_pad, pkcs7_unpad

keys = st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
blocks = st.binary(min_size=16, max_size=16)
ivs = st.binary(min_size=16, max_size=16)
payloads = st.binary(min_size=0, max_size=300)


class ReferenceStreamCipher:
    """The per-byte ``FastStreamCipher`` the C-speed one replaced, kept
    verbatim: ciphertext at rest must equal its output byte for byte."""

    DIGEST = 32

    def __init__(self, key: bytes, nonce: bytes = b"") -> None:
        self._prefix = hashlib.sha256(key + b"\x00" + nonce).digest()

    def keystream(self, nbytes: int, offset: int = 0) -> bytes:
        first_block = offset // self.DIGEST
        skip = offset % self.DIGEST
        out = bytearray()
        block = first_block
        while len(out) < skip + nbytes:
            out += hashlib.sha256(
                self._prefix + block.to_bytes(8, "big")
            ).digest()
            block += 1
        return bytes(out[skip:skip + nbytes])

    def apply(self, data: bytes, offset: int = 0) -> bytes:
        stream = self.keystream(len(data), offset)
        return bytes(a ^ b for a, b in zip(data, stream))


def reference_pbkdf2_sha256(
    passphrase: bytes, salt: bytes, iterations: int, dklen: int = 32
) -> bytes:
    """The own HMAC loop ``pbkdf2_sha256`` used before it delegated to
    ``hashlib.pbkdf2_hmac``, kept verbatim as the reference."""
    blocks = []
    block_index = 1
    while 32 * len(blocks) < dklen:
        u = hmac.new(
            passphrase, salt + block_index.to_bytes(4, "big"), hashlib.sha256
        ).digest()
        accum = int.from_bytes(u, "big")
        for _ in range(iterations - 1):
            u = hmac.new(passphrase, u, hashlib.sha256).digest()
            accum ^= int.from_bytes(u, "big")
        blocks.append(accum.to_bytes(32, "big"))
        block_index += 1
    return b"".join(blocks)[:dklen]


@given(key=keys, block=blocks)
@settings(max_examples=50, deadline=None)
def test_aes_decrypt_inverts_encrypt(key, block):
    aes = AES(key)
    assert aes.decrypt_block(aes.encrypt_block(block)) == block


@given(key=keys, block=blocks)
@settings(max_examples=50, deadline=None)
def test_aes_is_a_permutation(key, block):
    """Encryption never fixes the all-different property: distinct inputs
    map to distinct outputs (injectivity on a sample)."""
    aes = AES(key)
    other = bytes((block[0] ^ 1,)) + block[1:]
    assert aes.encrypt_block(block) != aes.encrypt_block(other)


@given(key=keys, iv=ivs, data=payloads)
@settings(max_examples=50, deadline=None)
def test_ctr_roundtrip(key, iv, data):
    aes = AES(key)
    assert ctr_xor(aes, iv, ctr_xor(aes, iv, data)) == data


@given(key=keys, iv=ivs, data=payloads)
@settings(max_examples=50, deadline=None)
def test_cbc_roundtrip(key, iv, data):
    aes = AES(key)
    assert cbc_decrypt(aes, iv, cbc_encrypt(aes, iv, data)) == data


@given(data=payloads)
@settings(max_examples=50, deadline=None)
def test_pkcs7_roundtrip_and_block_multiple(data):
    padded = pkcs7_pad(data)
    assert len(padded) % 16 == 0
    assert len(padded) > len(data)
    assert pkcs7_unpad(padded) == data


@given(
    key=st.binary(min_size=1, max_size=64),
    nonce=st.binary(min_size=0, max_size=32),
    data=payloads,
    offset=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=50, deadline=None)
def test_fastcipher_roundtrip_and_offset(key, nonce, data, offset):
    cipher = FastStreamCipher(key, nonce)
    assert cipher.apply(cipher.apply(data, offset), offset) == data
    full = cipher.keystream(offset + len(data))
    assert cipher.keystream(len(data), offset) == full[offset:]


@given(
    key=st.binary(min_size=1, max_size=64),
    nonce=st.binary(min_size=0, max_size=32),
    data=payloads,
    offset=st.integers(min_value=0, max_value=100),
)
@example(key=b"k", nonce=b"", data=b"", offset=0)
@example(key=b"k", nonce=b"n", data=b"", offset=45)
@example(key=b"k", nonce=b"n", data=b"0123456789", offset=28)
@example(key=b"k", nonce=b"n", data=bytes(512), offset=31)
@settings(max_examples=200, deadline=None)
def test_fastcipher_bytes_equal_the_per_byte_reference(key, nonce, data, offset):
    """Byte identity, not just a round trip: empty data and offsets that
    start inside a 32-byte block and cross into the next one included."""
    ours, ref = FastStreamCipher(key, nonce), ReferenceStreamCipher(key, nonce)
    assert ours.apply(data, offset) == ref.apply(data, offset)
    assert ours.keystream(len(data), offset) == ref.keystream(len(data), offset)


@given(
    passphrase=st.binary(min_size=1, max_size=32),
    salt=st.binary(min_size=1, max_size=32),
    iterations=st.integers(min_value=1, max_value=50),
    dklen=st.integers(min_value=1, max_value=80),
)
@settings(max_examples=30, deadline=None)
def test_pbkdf2_matches_stdlib(passphrase, salt, iterations, dklen):
    """``pbkdf2_sha256`` *is* ``hashlib.pbkdf2_hmac`` now, so the reference
    is the HMAC loop it replaced."""
    ours = pbkdf2_sha256(passphrase, salt, iterations, dklen)
    theirs = reference_pbkdf2_sha256(passphrase, salt, iterations, dklen)
    assert ours == theirs


@given(
    passphrases=st.lists(
        st.binary(min_size=1, max_size=16), min_size=1, max_size=4, unique=True
    ),
    sector=st.integers(min_value=0, max_value=1000),
    data=st.binary(min_size=0, max_size=512),
)
@settings(max_examples=30, deadline=None)
def test_luks_any_enrolled_passphrase_opens(passphrases, sector, data):
    volume = LuksVolume(iterations=2)
    for p in passphrases:
        volume.add_passphrase(p)
    masters = {volume.open(p) for p in passphrases}
    assert len(masters) == 1
    volume.write_sector(sector, data)
    assert volume.read_sector(sector)[: len(data)] == data
    if data:
        raw = volume.raw_sector(sector)
        assert raw[: len(data)] != data or len(data) < 4  # ciphertext differs
