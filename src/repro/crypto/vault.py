"""The key vault — one keystore for every per-unit master key.

The first crypto-shred design gave every unit a whole LUKS header (512
bytes of key slots) just to hold one 32-byte master key; a deployment with
several namespaces repeated that per namespace.  The vault centralizes the
keys: one fixed header, one compact entry per key, shared across every
``CryptoShredBackend`` namespace of a deployment (``BackendGroup`` injects
a single vault).  Erasure grounds exactly as before — destroying a unit's
vault entry (:meth:`shred`) makes that unit's ciphertext unrecoverable —
but the *batch* path (:meth:`shred_many`) models what co-locating the keys
buys: shredding N keys touches the key-table pages once, not N scattered
volume headers.

A shredded entry stays in the catalog (zeroed) so ``is_shredded`` keeps
answering; only :meth:`compact` — the space-release half of a full
reclamation — drops zeroed entries.

Master keys are SHA-256 of the vault seed, key id and enrolling context
(``repr(unit_id)``): a shredded unit is unrecoverable because the code never
re-derives its key, not cryptographically.  A random seed would close that
gap but change every ciphertext byte at rest — a format change of its own.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

#: Fixed vault header (catalog metadata), charged once per vault.
VAULT_HEADER_BYTES = 512

#: Bytes one enrolled key occupies: the 32-byte master plus entry metadata.
KEY_ENTRY_BYTES = 48


class KeyVault:
    """Per-unit master keys behind integer key ids."""

    def __init__(self, seed: str = "vault") -> None:
        self._seed = seed
        self._keys: Dict[int, Optional[bytes]] = {}
        self._counter = 0
        self.shred_count = 0

    # ----------------------------------------------------------------- keys
    def create_key(self, context: str = "") -> int:
        """Enroll a fresh per-unit master key; returns its key id."""
        self._counter += 1
        key_id = self._counter
        seed = f"{self._seed}/key/{key_id}/{context}".encode()
        self._keys[key_id] = hashlib.sha256(seed).digest()
        return key_id

    def master(self, key_id: int) -> bytes:
        """The master key — raises if the entry was shredded."""
        try:
            key = self._keys[key_id]
        except KeyError:
            raise KeyError(f"vault has no key {key_id}") from None
        if key is None:
            raise PermissionError(f"vault key {key_id} was shredded")
        return key

    # ---------------------------------------------------------------- erase
    def shred(self, key_id: int) -> bool:
        """Destroy one key; returns False if it was already shredded."""
        if self._keys.get(key_id) is None:
            return False
        self._keys[key_id] = None
        self.shred_count += 1
        return True

    def shred_many(self, key_ids: List[int]) -> int:
        """Destroy a batch of keys in one key-table pass; returns the
        number actually destroyed (already-shredded ids are no-ops)."""
        return sum(1 for key_id in key_ids if self.shred(key_id))

    def is_shredded(self, key_id: int) -> bool:
        """Whether the key is gone (unknown ids count as shredded — there
        is nothing left that could decrypt)."""
        return self._keys.get(key_id) is None

    def compact(self) -> int:
        """Drop zeroed entries (space release); returns entries removed.
        ``is_shredded`` still answers True for them afterwards."""
        return len(self.compact_keys(list(self._keys)))

    def compact_keys(self, key_ids: Iterable[int]) -> List[int]:
        """Drop the zeroed entries among ``key_ids`` (a shared vault is
        compacted per owner — each backend releases only its own entries).
        Returns the ids actually removed."""
        removed = []
        for key_id in key_ids:
            if key_id in self._keys and self._keys[key_id] is None:
                del self._keys[key_id]
                removed.append(key_id)
        return removed

    # ----------------------------------------------------------- accounting
    @property
    def live_keys(self) -> int:
        return sum(1 for v in self._keys.values() if v is not None)

    @property
    def size_bytes(self) -> int:
        """Header plus one entry per catalog slot (zeroed slots included —
        they occupy key-table space until :meth:`compact`)."""
        return VAULT_HEADER_BYTES + KEY_ENTRY_BYTES * len(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KeyVault(live={self.live_keys}, shredded={self.shred_count})"
