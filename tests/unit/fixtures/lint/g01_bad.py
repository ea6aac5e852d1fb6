"""Seeded G01 violation: secondary-location writes, no CopyLocation site.

Parsed (never imported) by the grounding-linter tests.
"""


class LeakyNode:
    def serve_read(self, key, value):
        # expect: G01 — cache write without a CopyLocation.CACHE site
        self.cache[key] = value
        return value

    def replicate(self, op, key, value):
        # expect: G01 — replication-log append without a LOG site
        self._append_log(op, key, value)

    def persist(self, key, stored):
        # expect: G01 — value-carrying WAL append without a WAL site
        self.wal.append("INSERT", key, payload=stored)

    def migrate(self, items):
        # expect: G01 — migration import without a MIGRATION site
        self.backend.import_batch(items)
