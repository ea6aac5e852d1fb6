"""Unit tests for the audit substrate."""

from repro.audit.csvlog import CsvLogger
from repro.audit.log import RECORD_BYTES, ActionLog
from repro.audit.querylog import (
    DECISION_RECORD_BYTES,
    PolicyDecisionLogger,
    QueryResponseLogger,
)
from repro.core.actions import ActionType
from repro.core.entities import controller
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel

NETFLIX = controller("Netflix")


def make_cost():
    return CostModel(SimClock(), CostBook())


class TestActionLog:
    def test_record_builds_formal_history(self):
        log = ActionLog(make_cost())
        log.record("x", "billing", NETFLIX, ActionType.CREATE, 10)
        log.record("x", "billing", NETFLIX, ActionType.READ, 20)
        assert log.record_count == 2
        assert len(log.history.of("x")) == 2
        assert log.history.last("x").action.type == ActionType.READ

    def test_size_accounting(self):
        log = ActionLog(make_cost())
        for i in range(5):
            log.record("x", "p", NETFLIX, ActionType.READ, i)
        assert log.size_bytes == 5 * RECORD_BYTES

    def test_purge_unit(self):
        log = ActionLog(make_cost())
        log.record("x", "p", NETFLIX, ActionType.CREATE, 1)
        log.record("y", "p", NETFLIX, ActionType.CREATE, 2)
        assert log.purge_unit("x") == 1
        assert log.purged_count == 1
        assert log.record_count == 1
        assert "x" not in log.history

    def test_purge_charges_cost(self):
        cost = make_cost()
        log = ActionLog(cost)
        log.record("x", "p", NETFLIX, ActionType.CREATE, 1)
        before = cost.clock.spent("logging")
        log.purge_unit("x")
        assert cost.clock.spent("logging") > before


class TestCsvLogger:
    def test_log_formats_csv_row(self):
        logger = CsvLogger(make_cost())
        line = logger.log(100, "netflix", "SELECT", "users", 42, rows=1)
        assert line.startswith("100,netflix,repro,1,SELECT,users,42,")
        assert logger.row_count == 1

    def test_dump_includes_header(self):
        logger = CsvLogger(make_cost())
        logger.log(1, "u", "INSERT", "t", 1)
        dump = logger.dump()
        assert dump.startswith("log_time,user_name")
        assert dump.count("\n") == 2

    def test_rows_for_key(self):
        logger = CsvLogger(make_cost())
        logger.log(1, "u", "SELECT", "t", 1)
        logger.log(2, "u", "SELECT", "t", 2)
        logger.log(3, "u", "UPDATE", "t", 1)
        assert len(logger.rows_for_key("t", 1)) == 2

    def test_purge_key_reclaims_bytes(self):
        logger = CsvLogger(make_cost())
        logger.log(1, "u", "SELECT", "t", 1)
        logger.log(2, "u", "SELECT", "t", 2)
        size_before = logger.size_bytes
        assert logger.purge_key("t", 1) == 1
        assert logger.size_bytes < size_before
        assert logger.rows_for_key("t", 1) == []

    def test_size_grows_with_rows(self):
        logger = CsvLogger(make_cost())
        empty = logger.size_bytes
        logger.log(1, "u", "SELECT", "t", 1)
        assert logger.size_bytes > empty


class TestQueryResponseLogger:
    def test_log_retains_response_size(self):
        logger = QueryResponseLogger(make_cost())
        record = logger.log(1, "u", "SELECT * FROM t WHERE k=1", "t", 1, 70)
        assert record.size_bytes > 70
        assert logger.size_bytes == record.size_bytes

    def test_heavier_than_csv_per_record(self):
        """P_GBench's logging is heavier per op than P_Base's CSV rows."""
        cost_csv, cost_qr = make_cost(), make_cost()
        CsvLogger(cost_csv).log(1, "u", "SELECT", "t", 1)
        QueryResponseLogger(cost_qr).log(1, "u", "SELECT", "t", 1, 70)
        assert cost_qr.clock.spent("logging") > cost_csv.clock.spent("logging")

    def test_purge_key(self):
        logger = QueryResponseLogger(make_cost())
        logger.log(1, "u", "q", "t", 1, 10)
        logger.log(2, "u", "q", "t", 2, 10)
        assert logger.purge_key("t", 1) == 1
        assert logger.record_count == 1
        assert logger.records_for_key("t", 1) == []


class TestPolicyDecisionLogger:
    def test_log_and_stats(self):
        logger = PolicyDecisionLogger(make_cost())
        logger.log(1, "x", "netflix", "billing", 3, True)
        logger.log(2, "x", "aws", "analytics", 5, False)
        assert logger.record_count == 2
        assert logger.denial_count == 1
        assert logger.size_bytes == 2 * DECISION_RECORD_BYTES

    def test_decisions_for_unit_and_purge(self):
        logger = PolicyDecisionLogger(make_cost())
        logger.log(1, "x", "e", "p", 1, True)
        logger.log(2, "y", "e", "p", 1, True)
        assert len(logger.decisions_for_unit("x")) == 1
        assert logger.purge_unit("x") == 1
        assert logger.decisions_for_unit("x") == []
