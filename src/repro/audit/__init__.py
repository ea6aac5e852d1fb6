"""Audit substrate — logs and histories.

The paper grounds *histories* on "various logs a system maintains, their
granularity, and uses" (§3.2).  The three profiles differ exactly here:

* P_Base: PSQL-native **CSV logging** with row-level security policy
  recording of query responses;
* P_GBench: logging of **all queries and responses** (no CSV logs);
* P_SYS: everything, plus a **policy-decision log** entry for every
  operation (demonstrable accountability), with log purging wired into the
  erase grounding.

Every logger tracks its byte footprint (Table 2's metadata column) and
charges the cost model per record.
"""

from repro.audit.csvlog import CsvLogger
from repro.audit.log import ActionLog
from repro.audit.querylog import PolicyDecisionLogger, QueryResponseLogger

__all__ = [
    "ActionLog",
    "CsvLogger",
    "QueryResponseLogger",
    "PolicyDecisionLogger",
]
