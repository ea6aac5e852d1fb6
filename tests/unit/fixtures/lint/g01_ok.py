"""G01-clean counterpart: every secondary write has its tracked site."""

from repro.distributed.store import CopyLocation


class TrackedNode:
    def serve_read(self, key, value):
        self.cache[key] = value
        return value

    def replicate(self, op, key, value):
        self._append_log(op, key, value)

    def persist(self, key, stored):
        self.wal.append("INSERT", key, payload=stored)

    def migrate(self, items):
        self.backend.import_encoded_batch(items)

    def copies_of(self, key):
        found = []
        if key in self.cache:
            found.append((CopyLocation.CACHE, self.name))
        if self.log_holds_entries(key):
            found.append((CopyLocation.LOG, self.name))
        for loc, site in self.backend.copy_locations(key):
            if loc is CopyLocation.WAL:
                found.append((loc, f"{self.name}[{site}]"))
        if self.in_flight(key):
            found.append((CopyLocation.MIGRATION, self.name))
        return found
