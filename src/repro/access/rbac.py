"""Role-based access control (P_Base's grounding, §4.2).

"The system implements role-based access control using roles, role
attributes, and role memberships."  Checks are O(1) set lookups — the
cheapest interpretation of lawful processing, and the reason P_Base is the
fastest profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.access.errors import AccessDenied
from repro.sim.costs import CostModel


@dataclass(frozen=True)
class Permission:
    """(table, operation, purpose) the holder may perform.

    ``purpose`` may be ``"*"`` — RBAC is coarse: it cannot express
    per-data-unit or per-time-window constraints, which is exactly the
    interpretive gap between P_Base and P_SYS.
    """

    table: str
    operation: str
    purpose: str = "*"

    def covers(self, table: str, operation: str, purpose: str) -> bool:
        return (
            self.table == table
            and self.operation == operation
            and self.purpose in ("*", purpose)
        )


@dataclass
class Role:
    """A named role with attributes and permissions."""

    name: str
    attributes: Dict[str, str] = field(default_factory=dict)
    permissions: Set[Permission] = field(default_factory=set)

    def grant(self, permission: Permission) -> None:
        self.permissions.add(permission)

    def allows(self, table: str, operation: str, purpose: str) -> bool:
        return any(p.covers(table, operation, purpose) for p in self.permissions)


#: Approximate bytes per role / membership row (role metadata tables).
ROLE_BYTES = 256
MEMBERSHIP_BYTES = 48


class RbacController:
    """Role registry + memberships + O(1)-ish checks."""

    def __init__(self, cost: CostModel) -> None:
        self._cost = cost
        self._roles: Dict[str, Role] = {}
        self._members: Dict[str, Set[str]] = {}  # entity -> role names

    # --------------------------------------------------------------- manage
    def create_role(self, name: str, **attributes: str) -> Role:
        if name in self._roles:
            raise ValueError(f"role {name!r} already exists")
        role = Role(name, dict(attributes))
        self._roles[name] = role
        return role

    def role(self, name: str) -> Role:
        try:
            return self._roles[name]
        except KeyError:
            raise KeyError(f"unknown role: {name!r}") from None

    def grant(self, role_name: str, permission: Permission) -> None:
        self.role(role_name).grant(permission)

    def add_member(self, entity_name: str, role_name: str) -> None:
        self.role(role_name)  # validate
        self._members.setdefault(entity_name, set()).add(role_name)

    def remove_member(self, entity_name: str, role_name: str) -> None:
        self._members.get(entity_name, set()).discard(role_name)

    # ---------------------------------------------------------------- checks
    def is_allowed(
        self, entity_name: str, table: str, operation: str, purpose: str
    ) -> bool:
        self._cost.charge_rbac_check()
        return any(
            self._roles[role_name].allows(table, operation, purpose)
            for role_name in self._members.get(entity_name, ())
        )

    def check(
        self, entity_name: str, table: str, operation: str, purpose: str
    ) -> None:
        if not self.is_allowed(entity_name, table, operation, purpose):
            raise AccessDenied(entity_name, purpose, f"{table}/{operation}")

    # ----------------------------------------------------------------- space
    @property
    def size_bytes(self) -> int:
        roles = len(self._roles) * ROLE_BYTES
        members = sum(len(r) for r in self._members.values()) * MEMBERSHIP_BYTES
        return roles + members
