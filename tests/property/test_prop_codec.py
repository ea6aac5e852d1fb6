"""Property tests: the storage codec round-trips every storable value.

The codec's correctness claim is structural: a blob's first byte decides
its decoder (marshal plane / singleton / extension), so the properties
check both the round-trip *and* the discriminator claim — marshal output
must never collide with the 0x80–0x9F tag gap — and that a value outside
that domain is refused, never stored in some opaque form.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec
from repro.lsm.memtable import TOMBSTONE
from repro.storage.engine import FlaggedPayload

#: The reserved tag gap between the two marshal first-byte ranges.
TAG_LO, TAG_HI = 0x80, 0x9F


class Opaque:
    """A type marshal rejects and the codec does not register."""

    def __init__(self, payload):
        self.payload = payload


scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=40)
    | st.binary(max_size=40)
)

#: The marshal plane: what the storage workloads actually put at rest.
marshal_values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=8), inner, max_size=5)
        | st.frozensets(scalars, max_size=5)
    ),
    max_leaves=20,
)

#: Values containing an unmarshalable member — outside the domain.
rejected_values = st.builds(Opaque, scalars) | st.lists(
    st.builds(Opaque, st.integers()) | scalars, min_size=1, max_size=5
).filter(lambda xs: any(isinstance(x, Opaque) for x in xs))


@given(marshal_values)
def test_round_trip_on_the_marshal_plane(value):
    blob = codec.encode(value)
    assert codec.decode(blob) == value
    # The discriminator claim: marshal never emits into the tag gap.
    assert not TAG_LO <= blob[0] <= TAG_HI, hex(blob[0])


@given(rejected_values)
def test_values_outside_the_domain_are_rejected(value):
    # Refused by name on every encoding path, never stored opaquely.
    for encode in (codec.encode, codec.encode_stable):
        with pytest.raises(codec.CodecError, match=type(value).__qualname__):
            encode(value)
    with pytest.raises(codec.CodecError):
        codec.encode_many([0, value])


@given(st.lists(marshal_values | st.just(TOMBSTONE), max_size=8))
@settings(max_examples=50)
def test_batch_paths_agree_with_scalar_paths(values):
    blobs = codec.encode_many(values)
    assert blobs == [codec.encode(v) for v in values]
    assert codec.decode_many(blobs) == values


@given(st.lists(marshal_values, max_size=8))
@settings(max_examples=50)
def test_packed_block_round_trip(values):
    blobs = codec.encode_many(values)
    block = codec.pack_block(blobs)
    assert list(codec.iter_block(block)) == blobs
    assert codec.unpack_block(block) == values
    # memoryview input decodes identically (the zero-copy read path).
    assert codec.unpack_block(memoryview(block)) == values


@given(st.booleans(), marshal_values)
@settings(max_examples=50)
def test_flagged_payload_extension_round_trip(flagged, value):
    blob = codec.encode(FlaggedPayload(flagged, value))
    assert codec.is_extension_blob(blob)
    decoded = codec.decode(blob)
    assert isinstance(decoded, FlaggedPayload)
    assert decoded.flagged == flagged
    assert decoded.value == value


def test_tombstone_singleton_identity():
    blob = codec.encode(TOMBSTONE)
    assert len(blob) == 1
    assert codec.decode(blob) is TOMBSTONE
