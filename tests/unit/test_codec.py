"""Unit tests: codec edge cases the property tests can't reach."""

import pytest

from repro import codec
from repro.lsm.memtable import TOMBSTONE, TOMBSTONE_BLOB
from repro.storage.engine import FlaggedPayload


class TestDiscriminator:
    def test_marshal_plane_values_skip_the_tag_gap(self):
        for value in (0, 1.5, "text", b"\x80\x90", (1, 2), [None], {"k": 1}):
            blob = codec.encode(value)
            assert not 0x80 <= blob[0] <= 0x9F, (value, hex(blob[0]))

    def test_unencodable_value_is_rejected_naming_its_type(self):
        with pytest.raises(codec.CodecError, match="'object'"):
            codec.encode(object())

    def test_reserved_0x80_tag_is_rejected(self):
        # The first byte of a pickle-protocol blob: nothing decodes it.
        for decode in (codec.decode, lambda b: codec.decode_many([b])):
            with pytest.raises(codec.CodecError, match="0x80"):
                decode(b"\x80\x05N.")

    def test_unregistered_singleton_tag_raises(self):
        with pytest.raises(codec.CodecError):
            codec.decode(bytes([0x8F]))

    def test_unregistered_extension_tag_raises(self):
        with pytest.raises(codec.CodecError):
            codec.decode(bytes([0x9F]) + b"payload")


class TestStableEncode:
    def test_bytes_ignore_incidental_aliasing(self):
        # codec.encode ref-flags objects by refcount (marshal >= 3): the
        # same value held in a list encodes differently from a fresh one.
        # encode_stable is a pure function of the value — the contract the
        # Bloom fast path hashes against.
        held = [("sat", i) for i in range(300)]
        assert codec.encode_stable(held[-1]) == codec.encode_stable(("sat", 299))
        s = "".join(["s", "at"])  # equal to the interned literal, distinct object
        assert codec.encode_stable(("x", s)) == codec.encode_stable(("x", "sat"))

    def test_decode_inverts_stable_encode(self):
        for value in (0, 1.5, "text", b"\x80\x90", (1, 2), [None], {"k": 1}):
            assert codec.decode(codec.encode_stable(value)) == value

    def test_stable_encode_rejects_like_encode(self):
        with pytest.raises(codec.CodecError, match="'object'"):
            codec.encode_stable(object())
        assert codec.encode_stable(TOMBSTONE) == TOMBSTONE_BLOB


class TestSingletonsAndExtensions:
    def test_tombstone_blob_is_one_byte_and_identical(self):
        assert len(TOMBSTONE_BLOB) == 1
        assert codec.decode(TOMBSTONE_BLOB) is TOMBSTONE
        assert codec.encode(TOMBSTONE) == TOMBSTONE_BLOB

    def test_register_singleton_is_idempotent(self):
        assert codec.register_singleton(TOMBSTONE) == TOMBSTONE_BLOB

    def test_flagged_payload_is_extension_not_pickle(self):
        blob = codec.encode(FlaggedPayload(True, {"k": 1}))
        assert codec.is_extension_blob(blob)
        decoded = codec.decode(blob)
        assert decoded.flagged is True
        assert decoded.value == {"k": 1}

    def test_plain_blobs_are_not_extension_blobs(self):
        assert not codec.is_extension_blob(codec.encode({"k": 1}))


class TestBlocks:
    def test_empty_block_round_trips(self):
        block = codec.pack_block([])
        assert list(codec.iter_block(block)) == []
        assert codec.unpack_block(block) == []

    def test_trailing_bytes_are_rejected(self):
        block = codec.pack_block([codec.encode(1)]) + b"junk"
        with pytest.raises(codec.CodecError):
            list(codec.iter_block(block))

    def test_iter_block_hands_out_stored_bytes_without_decode(self):
        blobs = [codec.encode(v) for v in (1, "two", (3,))]
        assert list(codec.iter_block(codec.pack_block(blobs))) == blobs

    def test_mixed_batch_decodes(self):
        values = [1, TOMBSTONE, FlaggedPayload(False, "v")]
        blobs = codec.encode_many(values)
        decoded = codec.decode_many(blobs)
        assert decoded[0] == 1
        assert decoded[1] is TOMBSTONE
        assert decoded[2].value == "v"

    def test_batch_with_an_unencodable_member_is_rejected(self):
        with pytest.raises(codec.CodecError, match="'type'"):
            codec.encode_many([1, TOMBSTONE, object])
