"""The grounding linter, tested against itself.

Three layers:

* fixture snippets under ``tests/unit/fixtures/lint/`` — one seeded-
  violation (``gXX_bad.py``) and one clean (``gXX_ok.py``) file per rule,
  with ``# expect: GXX`` markers pinning the exact lines each rule must
  fire on (trailing marker = that line; own-line marker = the next line);
* the baseline ratchet — a fresh run over the installed package must match
  ``src/repro/analysis/baseline.json`` exactly: no NEW findings, no STALE
  entries (drift in either direction fails CI);
* mutation checks for the acceptance criterion: removing a tracked
  copy-site registration or an audit emission from
  ``distributed/store.py`` must make the linter fail.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.engine import (
    Finding,
    baseline_path,
    classify,
    load_baseline,
    package_root,
    run_rules,
)
from repro.analysis.rules import default_rules
from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
RULE_IDS = [rule.id for rule in default_rules()]

EXPECT = re.compile(r"#\s*expect:\s*(G\d\d)")


def expected_lines(path: Path):
    """``rule -> sorted line numbers`` the fixture's markers demand.

    A trailing marker names its own line; a marker alone on a comment line
    names the next line (the construct directly below it).
    """
    expected = {}
    lines = path.read_text().splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = EXPECT.search(text)
        if not match:
            continue
        own_line = text.split("#", 1)[0].strip() != ""
        expected.setdefault(match.group(1), []).append(
            lineno if own_line else lineno + 1
        )
    return {rule: sorted(nums) for rule, nums in expected.items()}


class TestRuleRegistry:
    def test_ids_unique_and_catalogue_ordered(self):
        assert RULE_IDS == sorted(RULE_IDS)
        assert len(set(RULE_IDS)) == len(RULE_IDS)

    def test_every_rule_has_fixture_pair(self):
        for rule_id in RULE_IDS:
            stem = rule_id.lower()
            assert (FIXTURES / f"{stem}_bad.py").is_file()
            assert (FIXTURES / f"{stem}_ok.py").is_file()


class TestFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_positive_fixture_fires_exactly_where_marked(self, rule_id):
        path = FIXTURES / f"{rule_id.lower()}_bad.py"
        findings = run_rules(path)
        assert findings, f"{path.name} produced no findings"
        assert {f.rule for f in findings} == {rule_id}, (
            f"{path.name} tripped other rules: {findings}"
        )
        marked = expected_lines(path)[rule_id]
        assert sorted(f.line for f in findings) == marked

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_negative_fixture_is_clean_under_all_rules(self, rule_id):
        path = FIXTURES / f"{rule_id.lower()}_ok.py"
        findings = run_rules(path)
        assert not findings, f"{path.name} should be clean: {findings}"

    def test_replication_log_class_append_is_a_log_write_site(self):
        """The log as its own class: the ``append`` it defines is the
        write, wherever the class lives."""
        bad = FIXTURES / "g01_log_class_bad.py"
        assert [(f.rule, f.line) for f in run_rules(bad)] == [
            ("G01", line) for line in expected_lines(bad)["G01"]
        ]
        assert not run_rules(FIXTURES / "g01_log_class_ok.py")

    def test_findings_carry_location_and_symbol(self):
        findings = run_rules(FIXTURES / "g06_bad.py")
        assert all(isinstance(f, Finding) for f in findings)
        assert {f.symbol for f in findings} == {
            "RacyStore.hot_swap",
            "RacyStore.drop_ring",
            "RacyStore.cancel_everything",
        }
        assert all(f.file == "g06_bad.py" for f in findings)
        assert all(f.key == f"{f.rule}:{f.file}:{f.symbol}" for f in findings)


class TestBaselineRatchet:
    def test_fresh_run_matches_committed_baseline_exactly(self):
        """The drift check both ways: every fresh finding is baselined
        (no NEW debt) and every baseline entry still fires (no STALE
        entries — paid-off debt must shrink the baseline)."""
        findings = run_rules(package_root())
        baseline = load_baseline(baseline_path())
        new, matched, stale = classify(findings, baseline)
        assert not new, f"unbaselined finding(s): {[str(f) for f in new]}"
        assert not stale, f"stale baseline entr(ies): {[e.key for e in stale]}"
        assert len(matched) == len(findings)

    def test_every_baseline_entry_has_tracking_note(self):
        for entry in load_baseline(baseline_path()):
            assert entry.note.strip(), f"{entry.key} lacks a tracking note"


class TestAnalyzeCli:
    def test_repo_passes_with_baseline(self, capsys):
        assert main(["analyze", "--baseline"]) == 0
        assert "0 new" in capsys.readouterr().out

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_each_seeded_fixture_fails(self, rule_id, capsys):
        path = FIXTURES / f"{rule_id.lower()}_bad.py"
        assert main(["analyze", "--path", str(path), "--baseline"]) == 1
        assert rule_id in capsys.readouterr().out

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_each_clean_fixture_passes(self, rule_id, capsys):
        path = FIXTURES / f"{rule_id.lower()}_ok.py"
        assert main(["analyze", "--path", str(path), "--baseline"]) == 0
        capsys.readouterr()

    def test_without_baseline_any_finding_fails(self, capsys):
        assert main(["analyze", "--path", str(FIXTURES / "g04_bad.py")]) == 1
        capsys.readouterr()


class TestStoreMutationsCaught:
    """The acceptance criterion: removing a tracked copy-site registration
    or an audit emission from distributed/store.py (or the replication
    log's own module) must fail the linter."""

    def _mutated_findings(
        self, tmp_path, drop_containing, module="distributed/store.py"
    ):
        source = (package_root() / module).read_text().splitlines()
        mutated = []
        dropped = 0
        for line in source:
            if drop_containing in line and not line.lstrip().startswith("#"):
                # Neutralize in place (keeps enclosing blocks parseable).
                indent = line[: len(line) - len(line.lstrip())]
                mutated.append(f"{indent}pass")
                dropped += 1
            else:
                mutated.append(line)
        assert dropped, f"nothing matched {drop_containing!r}"
        mutant = tmp_path / Path(module).name
        mutant.write_text("\n".join(mutated) + "\n")
        return run_rules(mutant)

    @pytest.mark.parametrize(
        "registration, module",
        [
            ("CopyLocation.CACHE, self.name", "distributed/store.py"),
            ("CopyLocation.LOG, self.primary.name", "distributed/store.py"),
            # The WAL site is the engine's own to report, next to the
            # value-carrying append that creates it.
            ("CopyLocation.WAL, self.wal.site_name", "storage/engine.py"),
        ],
    )
    def test_removing_copy_site_registration_fails(
        self, tmp_path, registration, module
    ):
        findings = self._mutated_findings(tmp_path, registration, module)
        assert any(f.rule == "G01" for f in findings), (
            f"linter blind to removal of {registration!r}"
        )

    def test_removing_the_log_class_site_fails(self, tmp_path):
        findings = self._mutated_findings(
            tmp_path,
            "location = CopyLocation.LOG",
            "distributed/replication_log.py",
        )
        assert any(f.rule == "G01" for f in findings)
        assert not run_rules(
            package_root() / "distributed" / "replication_log.py"
        )

    @pytest.mark.parametrize(
        "emission", ["._emit_move(", "._emit_repair("]
    )
    def test_removing_audit_emission_fails(self, tmp_path, emission):
        findings = self._mutated_findings(tmp_path, emission)
        assert any(f.rule == "G02" for f in findings), (
            f"linter blind to removal of {emission!r}"
        )

    def test_unmutated_store_is_clean(self):
        findings = run_rules(package_root() / "distributed" / "store.py")
        assert not findings
