"""G01-clean counterpart: the replication-log class names its copy site."""

from repro.core.locations import CopyLocation


class ShardReplicationLog:
    location = CopyLocation.LOG

    def __init__(self):
        self._keys = []
        self._values = []

    def append(self, op, key, value, ready_at):
        self._keys.append(key)
        self._values.append(value)

    def holds_value(self, key):
        return key in self._keys
