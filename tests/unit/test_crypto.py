"""Unit tests for the crypto substrate — AES pinned to FIPS-197."""

import pytest

from repro.crypto.adapters import (
    AesEngineCipher,
    CipherKind,
    CostOnlyCipher,
    FastEngineCipher,
    SealedPayload,
    make_engine_cipher,
)
from repro.crypto.aes import AES
from repro.crypto.fastcipher import FastStreamCipher
from repro.crypto.kdf import pbkdf2_sha256
from repro.crypto.luks import SECTOR, LuksVolume
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_xor,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.sectors import SectorGroup, derive_subkey
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel

FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestAESVectors:
    """FIPS-197 Appendix C known-answer tests."""

    def test_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(FIPS_PT) == expected

    def test_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(FIPS_PT) == expected

    def test_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(FIPS_PT) == expected

    def test_decrypt_inverts_encrypt(self):
        for key_len in (16, 24, 32):
            aes = AES(bytes(range(key_len)))
            assert aes.decrypt_block(aes.encrypt_block(FIPS_PT)) == FIPS_PT

    def test_rounds_by_key_size(self):
        assert AES(bytes(16)).rounds == 10
        assert AES(bytes(24)).rounds == 12
        assert AES(bytes(32)).rounds == 14

    def test_invalid_key_length(self):
        with pytest.raises(ValueError, match="16, 24, or 32"):
            AES(bytes(15))

    def test_invalid_block_length(self):
        with pytest.raises(ValueError):
            AES(bytes(16)).encrypt_block(b"short")
        with pytest.raises(ValueError):
            AES(bytes(16)).decrypt_block(b"short")


class TestModes:
    def setup_method(self):
        self.aes = AES(bytes(range(16)))
        self.iv = bytes(range(16, 32))

    def test_pkcs7_roundtrip(self):
        for n in range(0, 33):
            data = bytes(range(n % 256))[:n]
            assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_pkcs7_always_pads(self):
        assert len(pkcs7_pad(bytes(16))) == 32

    def test_pkcs7_bad_padding_rejected(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(bytes(16))
        with pytest.raises(ValueError):
            pkcs7_unpad(b"short")

    def test_ctr_roundtrip_any_length(self):
        for n in (0, 1, 15, 16, 17, 100):
            data = bytes(i % 256 for i in range(n))
            enc = ctr_xor(self.aes, self.iv, data)
            assert ctr_xor(self.aes, self.iv, enc) == data

    def test_ctr_differs_from_plaintext(self):
        data = b"A" * 64
        assert ctr_xor(self.aes, self.iv, data) != data

    def test_ctr_counter_wraps_block_boundary(self):
        long = bytes(100)
        stream1 = ctr_xor(self.aes, self.iv, long)
        assert stream1[:16] != stream1[16:32]  # distinct counter blocks

    def test_cbc_roundtrip(self):
        for n in (0, 5, 16, 31, 64):
            data = bytes(i % 256 for i in range(n))
            assert cbc_decrypt(self.aes, self.iv, cbc_encrypt(self.aes, self.iv, data)) == data

    def test_cbc_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            cbc_decrypt(self.aes, self.iv, b"not-a-block-multiple!")
        with pytest.raises(ValueError):
            cbc_encrypt(self.aes, b"shortiv", b"data")


class TestKDF:
    def test_rfc6070_style_vector(self):
        """PBKDF2-HMAC-SHA256('password','salt',1) — cross-checked with hashlib."""
        import hashlib

        ours = pbkdf2_sha256(b"password", b"salt", 1, 32)
        theirs = hashlib.pbkdf2_hmac("sha256", b"password", b"salt", 1, 32)
        assert ours == theirs

    def test_matches_hashlib_for_many_iterations(self):
        import hashlib

        ours = pbkdf2_sha256(b"pass", b"NaCl", 80, 40)
        theirs = hashlib.pbkdf2_hmac("sha256", b"pass", b"NaCl", 80, 40)
        assert ours == theirs

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            pbkdf2_sha256(b"p", b"s", 0)
        with pytest.raises(ValueError):
            pbkdf2_sha256(b"p", b"s", 1, 0)


class TestFastStreamCipher:
    def test_roundtrip(self):
        cipher = FastStreamCipher(b"key")
        data = b"some sensitive payload"
        assert cipher.apply(cipher.apply(data)) == data

    def test_different_keys_differ(self):
        data = b"x" * 32
        assert FastStreamCipher(b"k1").apply(data) != FastStreamCipher(b"k2").apply(data)

    def test_offset_keystream_is_consistent(self):
        cipher = FastStreamCipher(b"key")
        full = cipher.keystream(100)
        assert cipher.keystream(40, offset=60) == full[60:]

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            FastStreamCipher(b"")


class TestSectorGroupBytesAtRest:
    """Ciphertext at rest is a format: a faster keystream, XOR or KDF that
    changes one byte of it must fail here, not only round-trip."""

    #: SHA-256 over the raw sectors below, as the per-byte XOR / pure-Python
    #: HMAC-loop implementation of the cipher and KDF wrote them.
    PINNED = "4b8e87a7e6c05d139f7a776b3676c2bb6697ab7118993104aee685e1239dcce6"

    def test_raw_sectors_match_the_pinned_digest(self):
        import hashlib

        group = SectorGroup(7, capacity=4)
        master = hashlib.sha256(b"pinned-master").digest()
        blobs = [b"", b"personal data", bytes(range(256)) * 3, b"x" * 4000]
        for blob in blobs:
            slot = group.alloc_slot()
            subkey = derive_subkey(master, group.group_id, slot)
            group.write(slot, subkey, blob)
            sectors = SectorGroup.sectors_needed(len(blob))
            assert group.read(slot, subkey, sectors, len(blob)) == blob
        digest = hashlib.sha256()
        for slot in range(group.capacity):
            for sector_no in group.slot_sector_numbers(slot):
                digest.update(group.raw_sector(sector_no))
        assert group.sector_count == 12
        assert digest.hexdigest() == self.PINNED


class TestLuksVolume:
    def test_passphrase_roundtrip(self):
        vol = LuksVolume()
        vol.add_passphrase(b"hunter2")
        assert vol.open(b"hunter2") == vol.open(b"hunter2")

    def test_wrong_passphrase_rejected(self):
        vol = LuksVolume()
        vol.add_passphrase(b"right")
        with pytest.raises(PermissionError):
            vol.open(b"wrong")

    def test_multiple_slots(self):
        vol = LuksVolume()
        s1 = vol.add_passphrase(b"alice")
        s2 = vol.add_passphrase(b"bob")
        assert s1 != s2 and vol.active_slots == 2
        assert vol.open(b"alice") == vol.open(b"bob")  # same master key

    def test_revoked_slot_stops_working(self):
        vol = LuksVolume()
        slot = vol.add_passphrase(b"alice")
        vol.add_passphrase(b"bob")
        vol.revoke_slot(slot)
        with pytest.raises(PermissionError):
            vol.open(b"alice")
        vol.open(b"bob")  # still fine

    def test_slot_exhaustion(self):
        vol = LuksVolume()
        for i in range(LuksVolume.MAX_SLOTS):
            vol.add_passphrase(f"p{i}".encode())
        with pytest.raises(ValueError, match="occupied"):
            vol.add_passphrase(b"one-too-many")

    def test_sector_roundtrip_and_opacity(self):
        vol = LuksVolume()
        vol.write_sector(7, b"personal data")
        assert vol.read_sector(7).rstrip(b"\x00") == b"personal data"
        assert b"personal data" not in vol.raw_sector(7)

    def test_sector_too_big(self):
        with pytest.raises(ValueError):
            LuksVolume().write_sector(0, b"x" * (SECTOR + 1))

    def test_missing_sector(self):
        with pytest.raises(KeyError):
            LuksVolume().read_sector(99)

    def test_shred_is_crypto_erasure(self):
        vol = LuksVolume()
        vol.add_passphrase(b"p")
        vol.write_sector(0, b"secret")
        raw = vol.raw_sector(0)
        vol.shred()
        assert vol.is_shredded
        assert vol.raw_sector(0) == raw  # ciphertext remains...
        with pytest.raises(PermissionError):
            vol.read_sector(0)           # ...but is unrecoverable
        with pytest.raises(PermissionError):
            vol.open(b"p")
        with pytest.raises(PermissionError):
            vol.add_passphrase(b"new")


class TestEngineCipherAdapters:
    def setup_method(self):
        self.clock = SimClock()
        self.cost = CostModel(self.clock, CostBook())

    def test_cost_only_charges_but_passes_through(self):
        cipher = CostOnlyCipher(self.cost, CipherKind.AES256)
        assert cipher.seal("payload", 70) == "payload"
        assert self.clock.spent("crypto") > 0

    def test_fast_cipher_roundtrip_and_opacity(self):
        cipher = FastEngineCipher(self.cost, CipherKind.AES128)
        sealed = cipher.seal({"name": "alice"}, 70)
        assert isinstance(sealed, SealedPayload)
        assert b"alice" not in sealed.ciphertext
        assert cipher.open_(sealed, 70) == {"name": "alice"}

    def test_aes_cipher_roundtrip(self):
        cipher = AesEngineCipher(self.cost, CipherKind.AES256)
        sealed = cipher.seal([1, 2, 3], 70)
        assert cipher.open_(sealed, 70) == [1, 2, 3]

    def test_aes128_key_is_16_bytes(self):
        cipher = AesEngineCipher(self.cost, CipherKind.AES128)
        assert cipher._aes.rounds == 10

    def test_open_rejects_unsealed(self):
        cipher = FastEngineCipher(self.cost, CipherKind.AES128)
        with pytest.raises(TypeError):
            cipher.open_("raw", 70)

    def test_all_tiers_charge_identically(self):
        """The figures must not depend on the cipher tier."""
        charges = []
        for tier in ("cost-only", "fast", "aes"):
            clock = SimClock()
            cipher = make_engine_cipher(CostModel(clock, CostBook()), CipherKind.LUKS, tier)
            cipher.open_(cipher.seal("x", 70), 70)
            charges.append(clock.spent("crypto"))
        assert charges[0] == charges[1] == charges[2]

    def test_factory_rejects_unknown_tier(self):
        with pytest.raises(ValueError):
            make_engine_cipher(self.cost, CipherKind.AES128, "quantum")

    def test_kind_charge_ordering(self):
        """AES-256 per-byte cost > LUKS > AES-128 (profile ordering lever)."""
        def spent(kind):
            clock = SimClock()
            CostOnlyCipher(CostModel(clock, CostBook()), kind).seal("x", 10_000)
            return clock.spent("crypto")

        assert spent(CipherKind.AES256) > spent(CipherKind.LUKS) > spent(CipherKind.AES128)
