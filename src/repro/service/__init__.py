"""Compliance-as-a-service: the concurrent front door.

``ComplianceService`` serves typed requests from per-shard worker pools
with bounded-queue admission control while a maintenance thread races
rebalance steps and read repairs against live traffic; ``http`` is the
stdlib HTTP transport (``python -m repro.cli serve``).  See
``docs/SERVICE.md``.
"""

from repro.service.api import (
    CollectRequest,
    EraseRequest,
    ReadRequest,
    Request,
    Response,
    SarRequest,
    SarUnit,
    Status,
    UpdateRequest,
)
from repro.service.server import ComplianceService, ServiceStats

__all__ = [
    "CollectRequest",
    "ComplianceService",
    "EraseRequest",
    "ReadRequest",
    "Request",
    "Response",
    "SarRequest",
    "SarUnit",
    "ServiceStats",
    "Status",
    "UpdateRequest",
]
