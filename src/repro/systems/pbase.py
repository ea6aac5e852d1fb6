"""P_Base — the least restrictive interpretation of GDPR-compliance (§4.2).

    "The system implements role-based access control using roles, role
     attributes, and role memberships.  It implements histories using native
     csv logging and setting up security policy to record query responses at
     row-level and the data is encrypted using AES-256.  It implements
     deletes (see Table 1 for grounding) to erase data using
     DELETE + VACUUM."

Metadata is inlined with the data rows (no separate table, no joins), so
metadata operations are ordinary row operations on a slightly wider row.
"""

from __future__ import annotations

from repro.access.rbac import Permission, RbacController
from repro.audit.csvlog import CsvLogger
from repro.systems.profiles import (
    DATA_TABLE,
    OPERATOR,
    ComplianceProfile,
)
from repro.workloads.base import OpKind

#: Extra bytes of inlined GDPR metadata per data row.
INLINE_METADATA_BYTES = 30


class PBase(ComplianceProfile):
    """RBAC + CSV logs + AES-256 + the grounded "delete" (interval reclaim)."""

    name = "P_Base"
    maintenance = "interval"

    # ------------------------------------------------------------------ setup
    def _data_row_bytes(self) -> int:
        return self.config.record_bytes + INLINE_METADATA_BYTES

    def _has_metadata_table(self) -> bool:
        return False

    def _setup(self) -> None:
        self.rbac = RbacController(self.cost)
        self.csvlog = CsvLogger(self.cost)
        self.rbac.create_role("gdpr-operator", scope="benchmark")
        for operation in ("create", "read", "update", "delete",
                          "read-metadata", "update-metadata",
                          "read-by-metadata"):
            self.rbac.grant(
                "gdpr-operator", Permission(DATA_TABLE, operation, "*")
            )
        self.rbac.add_member(OPERATOR.name, "gdpr-operator")

    def _register_profile_space(self) -> None:
        self.space.register("csv-logs", "metadata", lambda: self.csvlog.size_bytes)
        self.space.register("role-tables", "metadata", lambda: self.rbac.size_bytes)

    # ------------------------------------------------------------------ hooks
    def _attach_policies(self, key: int) -> None:
        """RBAC is role-scoped: nothing is registered per data unit."""

    def _check_access(self, key: int, op: OpKind, personal: bool) -> bool:
        return self.rbac.is_allowed(OPERATOR.name, DATA_TABLE, op.value, "*")

    def _log_operation(
        self, key: int, op: OpKind, response_bytes: int, personal: bool
    ) -> None:
        self.csvlog.log(
            self.clock.now, OPERATOR.name, op.value.upper(), DATA_TABLE, key
        )

    def _log_load(self, key: int) -> None:
        # Row-level response recording fires on every ingested row.
        self.csvlog.log(self.clock.now, OPERATOR.name, "INSERT", DATA_TABLE, key)

    def _encrypt_at_rest(self, nbytes: int) -> None:
        self.cost.charge_aes256(nbytes)

    def _erase(self, key: int) -> None:
        """The Table-1 "delete" grounding on the active backend: logical
        delete plus the periodic reclamation pass (DELETE+VACUUM on psql,
        tombstone+victim compaction on lsm, logical delete+key shred on
        crypto-shred)."""
        self.data.delete(key)
        self._maybe_reclaim()
