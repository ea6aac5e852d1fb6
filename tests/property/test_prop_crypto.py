"""Property tests: cryptographic substrate invariants."""

import hashlib
import hmac

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.fastcipher import FastStreamCipher
from repro.crypto.sectors import SECTOR, SectorGroup, derive_subkey

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
    """The own HMAC loop the subkey derivation ran before it delegated to
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
@example(key=b"k", nonce=b"n", data=bytes(100), offset=63 * 32 + 5)
@example(key=b"k", nonce=b"n", data=bytes(40), offset=5000)
@settings(max_examples=200, deadline=None)
def test_fastcipher_bytes_equal_the_per_byte_reference(key, nonce, data, offset):
    """Byte identity, not just a round trip: empty data, offsets that start
    inside a 32-byte block and cross into the next one, and ranges that
    run past the table of precomputed block counters included."""
    ours, ref = FastStreamCipher(key, nonce), ReferenceStreamCipher(key, nonce)
    assert ours.apply(data, offset) == ref.apply(data, offset)
    assert ours.keystream(len(data), offset) == ref.keystream(len(data), offset)


@pytest.mark.parametrize(
    "passphrase, salt, iterations, dklen, expected",
    [
        (b"password", b"salt", 1, 32,
         "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b"),
        (b"password", b"salt", 2, 32,
         "ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43"),
        (b"password", b"salt", 4096, 32,
         "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a"),
        (b"passwordPASSWORDpassword",
         b"saltSALTsaltSALTsaltSALTsaltSALTsalt", 4096, 40,
         "348c89dbcbd32b2f32d814b8116e84cf2b17347ebc1800181c4e2a1fb8dd53e1"
         "c635518c7dac47e9"),
        (b"pass\x00word", b"sa\x00lt", 4096, 16,
         "89b69d0516f829893c696226650a8687"),
        (b"passwd", b"salt", 1, 64,  # RFC 7914 §11
         "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"
         "49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"),
    ],
)
def test_reference_pbkdf2_known_answer_vectors(
    passphrase, salt, iterations, dklen, expected
):
    """Published PBKDF2-HMAC-SHA256 vectors: the loop the subkey property
    test trusts is itself right, at several iteration counts and at
    lengths that end inside, on and past one 32-byte block."""
    ours = reference_pbkdf2_sha256(passphrase, salt, iterations, dklen)
    assert ours.hex() == expected


def test_reference_pbkdf2_matches_hashlib_for_many_iterations():
    ours = reference_pbkdf2_sha256(b"pass", b"NaCl", 80, 40)
    assert ours == hashlib.pbkdf2_hmac("sha256", b"pass", b"NaCl", 80, 40)


@given(
    master=st.binary(min_size=0, max_size=80),
    group_id=st.integers(min_value=0, max_value=10**6),
    slot=st.integers(min_value=0, max_value=4096),
)
@settings(max_examples=50, deadline=None)
def test_derive_subkey_matches_the_hmac_loop_reference(master, group_id, slot):
    """The subkey is PBKDF2-HMAC-SHA256 at one iteration and 32 bytes over
    the placement salt, computed as one HMAC; the reference is the loop."""
    salt = b"sector-group/%d/%d" % (group_id, slot)
    assert derive_subkey(master, group_id, slot) == reference_pbkdf2_sha256(
        master, salt, 1
    )


def reference_sectors(subkey, base, blob):
    """The slot's sectors as the first sector writer sealed them: each
    chunk zero-padded to a full sector, then XORed byte by byte with the
    reference keystream under the per-sector nonce."""
    sealed = {}
    for i in range(SectorGroup.sectors_needed(len(blob))):
        sector_no = base + i
        nonce = hashlib.sha256(subkey + sector_no.to_bytes(8, "big")).digest()[:16]
        chunk = blob[i * SECTOR:(i + 1) * SECTOR].ljust(SECTOR, b"\x00")
        sealed[sector_no] = ReferenceStreamCipher(subkey, nonce).apply(chunk)
    return sealed


SLOTS = 3

rewrites = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SLOTS - 1),
        st.integers(min_value=0, max_value=4096),
    ),
    min_size=1,
    max_size=8,
)


@given(master=st.binary(min_size=32, max_size=32), steps=rewrites)
@example(  # one slot grown, shrunk, and rewritten across 512-byte boundaries
    master=bytes(32),
    steps=[(0, 0), (0, 511), (0, 513), (0, 4096), (1, 700), (0, 1500),
           (0, 512), (0, 1), (1, 4095), (1, 0)],
)
@settings(max_examples=40, deadline=None)
def test_sector_group_bytes_equal_the_reference_writer(master, steps):
    """Every sector at rest equals the zero-pad-then-XOR reference, byte
    for byte, through writes and rewrites of random sizes; reads round-trip
    and a shrinking rewrite leaves no stale tail sector behind."""
    group = SectorGroup(5, capacity=SLOTS)
    subkeys = [derive_subkey(master, 5, group.alloc_slot()) for _ in range(SLOTS)]
    live = {}
    for step, (slot, nbytes) in enumerate(steps):
        seed = master + bytes([step, slot])
        live[slot] = hashlib.shake_256(seed).digest(nbytes)
        assert group.write(slot, subkeys[slot], live[slot]) == (
            SectorGroup.sectors_needed(nbytes)
        )
        expected = {}
        for s, blob in live.items():
            sealed = reference_sectors(subkeys[s], group.sector_number(s, 0), blob)
            assert group.slot_sector_numbers(s) == sorted(sealed)
            sectors = len(sealed)
            assert group.read(s, subkeys[s], sectors, len(blob)) == blob
            for index in range(sectors):
                chunk = blob[index * SECTOR:(index + 1) * SECTOR]
                assert group.read_sector(s, subkeys[s], index) == chunk.ljust(
                    SECTOR, b"\x00"
                )
            expected.update(sealed)
        assert {n: group.raw_sector(n) for n in expected} == expected
        assert group.sector_count == len(expected)
