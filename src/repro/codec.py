"""The storage codec — one compact binary encoding for every value at rest.

Every backend used to serialize values its own way: the crypto-shred path
pickled one value per sector write, the LSM tree stored raw Python objects
with *nominal* byte accounting, and migration batches decoded and
re-encoded at every hop.  This module is the single seam all of them go
through now (enforced by analysis rules G04/G07): values enter storage as
``encode()`` blobs and leave through ``decode()``, so packed SSTable
blocks, encrypted sector groups, and in-flight export batches all carry
the *same* bytes and can hand them to each other without a decode/
re-encode round-trip.

Format
------
A blob is self-describing by its first byte:

* ``0x28–0x7A`` / ``0xA8–0xFA`` — a raw :mod:`marshal` (version 4) blob.
  marshal's type codes are printable ASCII, optionally OR-ed with the
  ``FLAG_REF`` bit ``0x80``, so its first byte never falls in the gap
  below.  This is the fast path: marshal's C serializer handles the plain
  tuples/strings/dicts the workloads store and needs no framing byte.
* ``0x81–0x8F`` — a registered singleton (one byte total).  The LSM
  tombstone registers here so delete markers cost one byte and compare
  by blob equality.
* ``0x90–0x9F`` — a registered extension type: tag byte + the type's own
  packed payload.  ``FlaggedPayload`` registers here so the reversible-
  inaccessibility flag survives encoding.

That is the whole value domain.  A value marshal rejects and no singleton
or extension claims raises :class:`CodecError` at ``encode``, before any
backend stores it, and ``decode`` rejects ``0x80`` (no encoder emits it),
so every blob at rest is one the checks here can see into and ``decode``
never runs arbitrary code.

Batches
-------
``encode_many``/``decode_many`` are the hot-path entry points: they run
the whole batch through marshal's C loop (``map``) and only drop to the
per-value path when a batch member is a singleton or an extension.  A
packed *block* (``pack_block``/``unpack_block``/``iter_block``) is the
on-disk shape: ``u32`` count, then a ``u32`` length prefix per blob —
what an SSTable stores and a migration batch streams.
"""

from __future__ import annotations

import marshal
from struct import Struct
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple, Type

__all__ = [
    "encode",
    "encode_stable",
    "decode",
    "encode_many",
    "decode_many",
    "is_extension_blob",
    "pack_block",
    "unpack_block",
    "iter_block",
    "register_singleton",
    "register_extension",
    "CodecError",
]

_MARSHAL_VERSION = 4
# marshal >= 3 flags objects by refcount (FLAG_REF) and interning, so the
# same *value* can serialize to different bytes depending on how many
# references the object happens to have.  Version 2 has neither mechanism:
# equal values always produce identical bytes, which is what content hashing
# (the Bloom fast path) needs.
_STABLE_MARSHAL_VERSION = 2

#: First byte of the tag gap marshal never emits.  No encoder emits
#: ``0x80`` itself, so :func:`decode` rejects it.
_TAG_GAP = 0x80
_SINGLETON_BASE = 0x81
_SINGLETON_MAX = 0x8F
_EXTENSION_BASE = 0x90
_EXTENSION_MAX = 0x9F

_U32 = Struct("<I")

_dumps = marshal.dumps
_loads = marshal.loads


class CodecError(ValueError):
    """A value outside the codec's domain, or a blob that no decoder
    recognizes (corrupt or foreign bytes)."""


# --------------------------------------------------------------- extensions
#: singleton tag byte -> the singleton object (and the reverse map).
_singletons: Dict[int, Any] = {}
_singleton_blobs: Dict[int, bytes] = {}

#: extension tag byte -> (cls, pack, unpack); cls -> tag for encoding.
_extensions: Dict[int, Tuple[Type[Any], Callable[[Any], bytes], Callable[[bytes], Any]]] = {}
_extension_tags: Dict[Type[Any], int] = {}


def register_singleton(obj: Any) -> bytes:
    """Register a sentinel object; returns its one-byte blob.

    Decoding that blob returns the *identical* object, so ``is`` checks
    (e.g. ``value is TOMBSTONE``) survive a round-trip.  Idempotent for
    the same object.
    """
    for tag, existing in _singletons.items():
        if existing is obj:
            return _singleton_blobs[tag]
    tag = _SINGLETON_BASE + len(_singletons)
    if tag > _SINGLETON_MAX:
        raise CodecError("singleton tag space exhausted")
    blob = bytes([tag])
    _singletons[tag] = obj
    _singleton_blobs[tag] = blob
    return blob


def register_extension(
    cls: Type[Any],
    pack: Callable[[Any], bytes],
    unpack: Callable[[bytes], Any],
) -> None:
    """Register a compact encoder for a class marshal cannot serialize.

    ``pack`` maps an instance to payload bytes; ``unpack`` inverts it
    (receiving the payload *without* the tag byte).  Idempotent for the
    same class.
    """
    if cls in _extension_tags:
        tag = _extension_tags[cls]
        _extensions[tag] = (cls, pack, unpack)
        return
    tag = _EXTENSION_BASE + len(_extensions)
    if tag > _EXTENSION_MAX:
        raise CodecError("extension tag space exhausted")
    _extensions[tag] = (cls, pack, unpack)
    _extension_tags[cls] = tag


# ------------------------------------------------------------------ scalars
def _encode_slow(value: Any) -> bytes:
    """The non-marshal paths: singleton, registered extension, or refusal."""
    for tag, obj in _singletons.items():
        if value is obj:
            return _singleton_blobs[tag]
    tag = _extension_tags.get(type(value))
    if tag is not None:
        return bytes([tag]) + _extensions[tag][1](value)
    raise CodecError(
        f"cannot encode a value of type {type(value).__qualname__!r}: marshal rejects "
        "it and no registered singleton or extension claims it"
    ) from None


def encode(value: Any) -> bytes:
    """Serialize one value to a self-describing blob."""
    try:
        return _dumps(value, _MARSHAL_VERSION)
    except ValueError:
        return _encode_slow(value)


def encode_stable(value: Any) -> bytes:
    """Serialize one value to *canonical* bytes: equal values, equal blobs.

    Unlike :func:`encode` (whose marshal version ref-flags objects by
    refcount, so incidental aliasing changes the bytes), this encoding is a
    pure function of the value — the contract content hashing needs.
    :func:`decode` inverts both.
    """
    try:
        return _dumps(value, _STABLE_MARSHAL_VERSION)
    except ValueError:
        return _encode_slow(value)


def decode(blob: Any) -> Any:
    """Invert :func:`encode` (accepts any bytes-like object)."""
    tag = blob[0]
    if _TAG_GAP <= tag <= _EXTENSION_MAX:
        return _decode_slow(tag, blob)
    return _loads(blob)


def _decode_slow(tag: int, blob: Any) -> Any:
    if tag == _TAG_GAP:
        raise CodecError("tag 0x80 is reserved: no encoder emits it")
    if tag <= _SINGLETON_MAX:
        try:
            return _singletons[tag]
        except KeyError:
            raise CodecError(f"unregistered singleton tag 0x{tag:02x}") from None
    try:
        unpack = _extensions[tag][2]
    except KeyError:
        raise CodecError(f"unregistered extension tag 0x{tag:02x}") from None
    return unpack(bytes(blob[1:]))


def is_extension_blob(blob: Any) -> bool:
    """Whether the blob carries a registered extension type (e.g. a
    ``FlaggedPayload``) — lets native import paths spot wrappers they must
    re-ground without decoding every plain blob."""
    return _EXTENSION_BASE <= blob[0] <= _EXTENSION_MAX


# ------------------------------------------------------------------ batches
def encode_many(values: Sequence[Any]) -> List[bytes]:
    """Encode a batch; one C-level pass when every value marshals."""
    try:
        return list(map(_dumps, values))
    except ValueError:
        return [encode(v) for v in values]


def decode_many(blobs: Sequence[Any]) -> List[Any]:
    """Decode a batch; one C-level pass when every blob is marshal."""
    try:
        return list(map(_loads, blobs))
    except (ValueError, EOFError, TypeError):
        return [decode(b) for b in blobs]


# ------------------------------------------------------------------- blocks
def pack_block(blobs: Sequence[bytes]) -> bytes:
    """Pack encoded blobs into one length-prefixed buffer.

    Layout: ``u32 count``, then per blob ``u32 length`` + bytes.  This is
    the packed shape SSTable blocks and streamed migration batches use.
    """
    pack = _U32.pack
    parts = [pack(len(blobs))]
    for blob in blobs:
        parts.append(pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def iter_block(block: Any) -> Iterator[bytes]:
    """Yield each blob of a packed block without decoding any of them."""
    view = memoryview(block)
    (count,) = _U32.unpack_from(view, 0)
    pos = 4
    for _ in range(count):
        (length,) = _U32.unpack_from(view, pos)
        pos += 4
        yield bytes(view[pos:pos + length])
        pos += length
    if pos != len(view):
        raise CodecError(f"trailing bytes in packed block ({len(view) - pos})")


def unpack_block(block: Any) -> List[Any]:
    """Decode every value of a packed block."""
    return decode_many(list(iter_block(block)))
