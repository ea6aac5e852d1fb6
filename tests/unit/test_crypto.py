"""Unit tests for the crypto substrate — KDF, keystream cipher, sector
groups and the key vault."""

import hashlib
import hmac

import pytest

from repro.crypto.fastcipher import FastStreamCipher, xor_bytes
from repro.crypto.sectors import (
    GROUP_HEADER_BYTES,
    MAX_SLOT_SECTORS,
    SECTOR,
    SectorGroup,
    derive_subkey,
)
from repro.crypto.vault import KEY_ENTRY_BYTES, VAULT_HEADER_BYTES, KeyVault

PLAINTEXT = b"ssn=123-45-6789;"


def _blob(nbytes):
    """``nbytes`` of recognizable plaintext."""
    return (PLAINTEXT * (nbytes // len(PLAINTEXT) + 1))[:nbytes]


class TestXorBytes:
    @pytest.mark.parametrize("nbytes", [0, 1, 31, 32, 33, 512])
    def test_matches_per_byte_xor(self, nbytes):
        a = _blob(nbytes)
        b = bytes((i * 37 + 11) % 256 for i in range(nbytes))
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))

    def test_leading_zero_bytes_survive(self):
        """The big-int round trip must not drop high-order zero bytes."""
        a = b"\x00\x00\x07\x01"
        assert xor_bytes(a, a) == b"\x00\x00\x00\x00"
        assert xor_bytes(a, b"\x00\x00\x00\x01") == b"\x00\x00\x07\x00"

    def test_self_inverse(self):
        a, b = _blob(100), bytes(range(100))
        assert xor_bytes(xor_bytes(a, b), b) == a


class TestKDF:
    def test_known_answer_vector(self):
        """PBKDF2-HMAC-SHA256('password', 'salt', 1, 32), the published
        vector: at one iteration and one 32-byte block it is one HMAC over
        the salt and the block index 1 — the identity every sector subkey
        at rest is derived through (:func:`derive_subkey`)."""
        ours = hmac.digest(b"password", b"salt" + b"\x00\x00\x00\x01", "sha256")
        assert ours.hex() == (
            "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b"
        )
        assert ours == hashlib.pbkdf2_hmac("sha256", b"password", b"salt", 1, 32)


class TestDeriveSubkey:
    MASTER = hashlib.sha256(b"master").digest()

    def test_is_one_pbkdf2_round_over_the_placement(self):
        assert derive_subkey(self.MASTER, 3, 5) == hashlib.pbkdf2_hmac(
            "sha256", self.MASTER, b"sector-group/3/5", 1, 32
        )

    def test_placement_separates_subkeys(self):
        keys = {derive_subkey(self.MASTER, g, s) for g in range(4) for s in range(4)}
        assert len(keys) == 16

    def test_master_separates_subkeys(self):
        other = hashlib.sha256(b"other").digest()
        assert derive_subkey(self.MASTER, 0, 0) != derive_subkey(other, 0, 0)


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

    @pytest.mark.parametrize("nbytes", [0, 1, 31, 32, 33, 100, 1000])
    def test_roundtrip_any_length(self, nbytes):
        cipher = FastStreamCipher(b"key", b"nonce")
        data = _blob(nbytes)
        sealed = cipher.apply(data)
        assert len(sealed) == nbytes
        assert cipher.apply(sealed) == data

    @pytest.mark.parametrize("offset", [1, 31, 32, 33, 64, 95])
    def test_apply_at_offset_continues_the_stream(self, offset):
        """Sealing a tail at ``offset`` equals the tail of sealing the whole:
        the keystream is seekable across 32-byte block boundaries."""
        cipher = FastStreamCipher(b"key")
        data = _blob(128)
        assert cipher.apply(data[offset:], offset=offset) == cipher.apply(data)[offset:]

    def test_keystream_block_format(self):
        """Block i = SHA256(SHA256(key ‖ 0x00 ‖ nonce) ‖ i as 8 bytes BE):
        pinned, since every byte at rest depends on it."""
        prefix = hashlib.sha256(b"key" + b"\x00" + b"nonce").digest()
        expected = b"".join(
            hashlib.sha256(prefix + i.to_bytes(8, "big")).digest() for i in range(3)
        )
        assert FastStreamCipher(b"key", b"nonce").keystream(96) == expected

    def test_nonce_separates_keystreams(self):
        assert (
            FastStreamCipher(b"key", b"n1").keystream(64)
            != FastStreamCipher(b"key", b"n2").keystream(64)
        )

    def test_ciphertext_hides_plaintext(self):
        data = _blob(256)
        sealed = FastStreamCipher(b"key").apply(data)
        assert PLAINTEXT not in sealed


class TestSectorGroup:
    MASTER = hashlib.sha256(b"unit-master").digest()

    def _write(self, group, blob):
        slot = group.alloc_slot()
        subkey = derive_subkey(self.MASTER, group.group_id, slot)
        return slot, subkey, group.write(slot, subkey, blob)

    @pytest.mark.parametrize("nbytes", [1, 16, 511, 512, 513, 1300, 4096])
    def test_roundtrip_and_opacity(self, nbytes):
        group = SectorGroup(1)
        blob = _blob(nbytes)
        slot, subkey, sectors = self._write(group, blob)
        assert sectors == SectorGroup.sectors_needed(nbytes)
        assert group.read(slot, subkey, sectors, nbytes) == blob
        raw = b"".join(group.raw_sector(s) for s in group.slot_sector_numbers(slot))
        assert len(raw) == sectors * SECTOR
        assert PLAINTEXT not in raw

    @pytest.mark.parametrize(
        "nbytes, sectors", [(0, 1), (1, 1), (512, 1), (513, 2), (4096, 8), (4097, 9)]
    )
    def test_sectors_needed(self, nbytes, sectors):
        assert SectorGroup.sectors_needed(nbytes) == sectors

    def test_fits_up_to_the_slot_span(self):
        group = SectorGroup(1)
        assert group.fits(MAX_SLOT_SECTORS * SECTOR)
        assert not group.fits(MAX_SLOT_SECTORS * SECTOR + 1)

    def test_value_too_big_for_a_slot_rejected(self):
        group = SectorGroup(1, slot_sectors=2)
        with pytest.raises(ValueError, match="slot holds 2"):
            self._write(group, _blob(2 * SECTOR + 1))

    @pytest.mark.parametrize("kwargs", [{"capacity": 0}, {"slot_sectors": 0}])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            SectorGroup(1, **kwargs)

    def test_unwritten_sector_is_missing(self):
        group = SectorGroup(1)
        with pytest.raises(KeyError):
            group.raw_sector(0)
        slot = group.alloc_slot()
        with pytest.raises(KeyError):
            group.read_sector(slot, derive_subkey(self.MASTER, 1, slot), 0)

    def test_full_group_rejects_alloc(self):
        group = SectorGroup(1, capacity=2)
        assert [group.alloc_slot(), group.alloc_slot()] == [0, 1]
        assert not group.has_free_slot
        with pytest.raises(ValueError, match="is full"):
            group.alloc_slot()

    def test_discarded_slot_is_reused(self):
        group = SectorGroup(1, capacity=2)
        slot, _subkey, sectors = self._write(group, _blob(700))
        assert group.discard_slot(slot) == sectors == 2
        assert group.slots_in_use == 0
        assert group.sector_count == 0
        assert group.alloc_slot() == slot

    def test_shrinking_rewrite_drops_stale_tail(self):
        group = SectorGroup(1)
        slot, subkey, _ = self._write(group, _blob(3 * SECTOR))
        assert group.write(slot, subkey, b"short") == 1
        assert group.slot_sector_numbers(slot) == [group.sector_number(slot, 0)]
        assert group.read(slot, subkey, 1, 5) == b"short"

    def test_wrong_subkey_does_not_decrypt(self):
        group = SectorGroup(1)
        slot, _subkey, sectors = self._write(group, _blob(100))
        wrong = derive_subkey(hashlib.sha256(b"other").digest(), 1, slot)
        assert group.read(slot, wrong, sectors, 100) != _blob(100)

    def test_neighbors_survive_a_discard(self):
        group = SectorGroup(1)
        gone, _, _ = self._write(group, _blob(64))
        kept, subkey, sectors = self._write(group, _blob(80))
        group.discard_slot(gone)
        assert group.read(kept, subkey, sectors, 80) == _blob(80)

    def test_read_sector_matches_read(self):
        group = SectorGroup(1)
        blob = _blob(2 * SECTOR)
        slot, subkey, _ = self._write(group, blob)
        assert group.read_sector(slot, subkey, 1) == blob[SECTOR:]

    def test_slots_map_to_disjoint_sector_ranges(self):
        group = SectorGroup(1, slot_sectors=4)
        assert group.sector_number(0, 3) == 3
        assert group.sector_number(1, 0) == 4
        assert group.sector_number(2, 1) == 9

    def test_overwrite_slots_purges_a_batch_in_one_sweep(self):
        group = SectorGroup(1)
        first, _, s1 = self._write(group, _blob(600))
        second, _, s2 = self._write(group, _blob(100))
        kept, subkey, s3 = self._write(group, _blob(50))
        assert group.overwrite_slots([first, second], passes=3) == s1 + s2
        assert group.slot_sector_numbers(first) == []
        assert group.slot_sector_numbers(second) == []
        assert group.slots_in_use == 1
        assert group.sector_count == s3
        assert group.read(kept, subkey, s3, 50) == _blob(50)

    def test_size_bytes_is_shared_header_plus_sectors(self):
        group = SectorGroup(1)
        assert group.size_bytes == GROUP_HEADER_BYTES
        self._write(group, _blob(700))
        self._write(group, _blob(10))
        assert group.size_bytes == GROUP_HEADER_BYTES + 3 * SECTOR


class TestKeyVault:
    def test_keys_are_distinct_32_byte_masters(self):
        vault = KeyVault()
        ids = [vault.create_key(repr(i)) for i in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        masters = {vault.master(i) for i in ids}
        assert len(masters) == 5
        assert all(len(m) == 32 for m in masters)

    def test_master_is_seed_id_and_context(self):
        vault = KeyVault(seed="s")
        key_id = vault.create_key("'u1'")
        assert vault.master(key_id) == hashlib.sha256(b"s/key/1/'u1'").digest()

    def test_seed_and_context_separate_keys(self):
        a, b = KeyVault(seed="a"), KeyVault(seed="b")
        assert a.master(a.create_key("x")) != b.master(b.create_key("x"))
        assert a.master(a.create_key("x")) != a.master(a.create_key("y"))

    def test_unknown_key_raises_keyerror(self):
        with pytest.raises(KeyError, match="no key 9"):
            KeyVault().master(9)

    def test_shredded_key_is_unreadable(self):
        vault = KeyVault()
        key_id = vault.create_key()
        assert vault.shred(key_id) is True
        assert vault.is_shredded(key_id)
        with pytest.raises(PermissionError, match="shredded"):
            vault.master(key_id)

    def test_second_shred_is_a_noop(self):
        vault = KeyVault()
        key_id = vault.create_key()
        vault.shred(key_id)
        assert vault.shred(key_id) is False
        assert vault.shred_count == 1

    def test_shred_many_counts_only_live_keys(self):
        vault = KeyVault()
        ids = [vault.create_key() for _ in range(4)]
        vault.shred(ids[0])
        assert vault.shred_many(ids + [99]) == 3
        assert vault.live_keys == 0
        assert vault.shred_count == 4

    def test_unknown_ids_count_as_shredded(self):
        assert KeyVault().is_shredded(42)

    def test_size_counts_zeroed_entries_until_compact(self):
        vault = KeyVault()
        ids = [vault.create_key() for _ in range(3)]
        vault.shred(ids[1])
        assert vault.size_bytes == VAULT_HEADER_BYTES + 3 * KEY_ENTRY_BYTES
        assert vault.compact() == 1
        assert vault.size_bytes == VAULT_HEADER_BYTES + 2 * KEY_ENTRY_BYTES
        assert vault.is_shredded(ids[1])
        assert vault.live_keys == 2

    def test_compact_keys_releases_only_the_owners_entries(self):
        vault = KeyVault()
        mine, theirs = vault.create_key(), vault.create_key()
        vault.shred_many([mine, theirs])
        assert vault.compact_keys([mine, 77]) == [mine]
        assert vault.compact_keys([theirs]) == [theirs]

    def test_shredding_the_master_is_crypto_erasure(self):
        """The grounding of "delete" on crypto-shred: once the vault entry is
        gone, the ciphertext still at rest has no key that opens it, while a
        neighbor in the same sector group stays readable."""
        vault, group = KeyVault(), SectorGroup(1)
        units = {}
        for name in ("erased", "kept"):
            key_id = vault.create_key(repr(name))
            slot = group.alloc_slot()
            subkey = derive_subkey(vault.master(key_id), group.group_id, slot)
            units[name] = (key_id, slot, group.write(slot, subkey, _blob(40)))
        key_id, slot, _sectors = units["erased"]
        vault.shred(key_id)
        assert group.slot_sector_numbers(slot)  # ciphertext is still at rest
        with pytest.raises(PermissionError):
            vault.master(key_id)
        key_id, slot, sectors = units["kept"]
        subkey = derive_subkey(vault.master(key_id), group.group_id, slot)
        assert group.read(slot, subkey, sectors, 40) == _blob(40)


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
