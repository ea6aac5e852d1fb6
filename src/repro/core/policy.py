"""Policies — the constraints that control data flow (paper §2.1).

    "A policy on a data unit X is a tuple ⟨p, e, t_b, t_f⟩ — a constraint
     specifying that an entity e can access the data unit for purpose p from
     time t_b to t_f."

Purposes are open-ended strings in the paper ("billing", "retention",
"compliance-erase", …).  :class:`Purpose` gives the well-known ones symbolic
names while still accepting arbitrary purposes, because regulations and
deployments keep inventing new ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set

from repro.core.entities import Entity


class Purpose:
    """Well-known purposes used throughout the paper and the benchmarks.

    A purpose is just a string; this namespace only fixes the spellings the
    rest of the library relies on (e.g., the G17 invariant looks for
    :data:`Purpose.COMPLIANCE_ERASE`).
    """

    BILLING = "billing"
    RETENTION = "retention"
    COMPLIANCE_ERASE = "compliance-erase"
    ANALYTICS = "analytics"
    ADVERTISING = "targeted-advertising"
    CONTRACT = "contract"
    AUDIT = "audit"
    SECURITY = "security"
    LEGAL_OBLIGATION = "legal-obligation"
    SERVICE = "service-provision"


@dataclass(frozen=True)
class Policy:
    """⟨purpose, entity, t_begin, t_final⟩ on a data unit.

    Timestamps are model-time microseconds (see :mod:`repro.sim.clock`).
    The interval is inclusive on both ends, matching the paper's
    ``P(t) := {(p,e,t_b,t_f) ∈ P | t_b ≤ t ≤ t_f}``.
    """

    purpose: str
    entity: Entity
    t_begin: int
    t_final: int

    def __post_init__(self) -> None:
        if not self.purpose:
            raise ValueError("policy purpose must be non-empty")
        if self.t_begin > self.t_final:
            raise ValueError(
                f"policy interval is empty: t_begin={self.t_begin} > t_final={self.t_final}"
            )

    def active_at(self, t: int) -> bool:
        """Whether the policy authorizes access at model time ``t``."""
        return self.t_begin <= t <= self.t_final

    def authorizes(self, purpose: str, entity: Entity, t: int) -> bool:
        """Whether this policy authorizes ``entity`` to act for ``purpose`` at ``t``."""
        return (
            self.active_at(t)
            and self.purpose == purpose
            and self.entity == entity
        )

    def restricted_to(self, t_begin: int, t_final: int) -> Optional["Policy"]:
        """The policy clipped to ``[t_begin, t_final]``, or None if disjoint.

        Used when deriving data: the derived unit's policies are "generally a
        restriction of the policies of the base data units" (§2.1).
        """
        lo = max(self.t_begin, t_begin)
        hi = min(self.t_final, t_final)
        if lo > hi:
            return None
        return Policy(self.purpose, self.entity, lo, hi)

    def __str__(self) -> str:
        return (
            f"⟨{self.purpose}, {self.entity.name}, "
            f"{self.t_begin}, {self.t_final}⟩"
        )


class PolicySet:
    """The policy aspect ``P`` of a data unit.

    Mutable (consent is granted and withdrawn over time), but exposes
    immutable snapshots via :meth:`active_at` so that state captures
    (``X(t)``) do not alias live structure.
    """

    def __init__(self, policies: Iterable[Policy] = ()) -> None:
        self._policies: List[Policy] = list(policies)

    # -------------------------------------------------------------- mutation
    def add(self, policy: Policy) -> None:
        self._policies.append(policy)

    def withdraw(self, policy: Policy, at: int) -> bool:
        """Withdraw ``policy`` effective at time ``at``.

        Models consent withdrawal: the policy's final time is clipped to
        ``at - 1`` (it never authorizes actions at or after ``at``).  Returns
        False if the policy was not present.
        """
        for i, existing in enumerate(self._policies):
            if existing == policy:
                if at <= existing.t_begin:
                    del self._policies[i]
                else:
                    self._policies[i] = Policy(
                        existing.purpose, existing.entity, existing.t_begin, at - 1
                    )
                return True
        return False

    def remove_all(self) -> int:
        """Drop every policy (used by erasure of the metadata aspect)."""
        n = len(self._policies)
        self._policies.clear()
        return n

    # --------------------------------------------------------------- queries
    def active_at(self, t: int) -> FrozenSet[Policy]:
        """``P(t)`` — the policies in force at model time ``t``."""
        return frozenset(p for p in self._policies if p.active_at(t))

    def authorizing(self, purpose: str, entity: Entity, t: int) -> Optional[Policy]:
        """Some policy authorizing the access, or None."""
        for policy in self._policies:
            if policy.authorizes(purpose, entity, t):
                return policy
        return None

    def purposes(self) -> Set[str]:
        return {p.purpose for p in self._policies}

    def entities(self) -> Set[Entity]:
        return {p.entity for p in self._policies}

    def latest_expiry(self) -> Optional[int]:
        """The largest ``t_final`` over all policies, or None if empty."""
        if not self._policies:
            return None
        return max(p.t_final for p in self._policies)

    def erasure_deadline(self) -> Optional[int]:
        """The ``t_final`` of the compliance-erase policy, if any (G17)."""
        deadlines = [
            p.t_final
            for p in self._policies
            if p.purpose == Purpose.COMPLIANCE_ERASE
        ]
        return min(deadlines) if deadlines else None

    def restricted_to(self, t_begin: int, t_final: int) -> "PolicySet":
        """Clip every policy to the window; drop the ones that vanish."""
        clipped = (p.restricted_to(t_begin, t_final) for p in self._policies)
        return PolicySet(p for p in clipped if p is not None)

    def intersect(self, other: "PolicySet") -> "PolicySet":
        """Policies common (after window intersection) to both sets.

        This is the conservative combination rule for derived data from
        multiple base units: an access to the derivation is only authorized
        when *every* contributing unit authorized it.
        """
        result: List[Policy] = []
        for mine in self._policies:
            for theirs in other._policies:
                if mine.purpose == theirs.purpose and mine.entity == theirs.entity:
                    joint = mine.restricted_to(theirs.t_begin, theirs.t_final)
                    if joint is not None:
                        result.append(joint)
        return PolicySet(result)

    # ------------------------------------------------------------- protocol
    def __iter__(self) -> Iterator[Policy]:
        return iter(self._policies)

    def __len__(self) -> int:
        return len(self._policies)

    def __contains__(self, policy: Policy) -> bool:
        return policy in self._policies

    def copy(self) -> "PolicySet":
        return PolicySet(self._policies)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PolicySet({self._policies!r})"
