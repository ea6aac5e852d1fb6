"""Seeded G01 violation: a replication-log class that never says which
copy site it is.

Parsed (never imported) by the grounding-linter tests.
"""


class ShardReplicationLog:
    def __init__(self):
        self._keys = []
        self._values = []

    # expect: G01 — the log's own append without a LOG site
    def append(self, op, key, value, ready_at):
        self._keys.append(key)
        self._values.append(value)

    def holds_value(self, key):
        return key in self._keys
