"""Integration: every example script runs end-to-end.

Examples are the public face of the library; a refactor that breaks one
should fail the suite, not a user.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

EXAMPLES = [
    "quickstart.py",
    "metaspace_erasure.py",
    "reldb_compliance.py",
    "multinational.py",
    "privacy_impact_assessment.py",
    "distributed_erasure.py",
    "compliance_service.py",
]

EXPECTED_SNIPPETS = {
    # "— COMPLIANT", not "COMPLIANT": the latter is a substring of
    # "NON-COMPLIANT" and would pass on a failing report.
    "quickstart.py": ("— COMPLIANT",),
    "metaspace_erasure.py": ("DELETE + VACUUM",),
    "reldb_compliance.py": ("Space factor",),
    "multinational.py": ("PIPEDA",),
    "privacy_impact_assessment.py": (
        "forensically recoverable",
        "[PASS] IX-demonstrability (1 units checked, 0 violations)",
    ),
    "distributed_erasure.py": ("verified clean",),
    "compliance_service.py": ("invariant violations: 0",),
}


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_cleanly(script):
    path = os.path.join(EXAMPLES_DIR, script)
    result = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for snippet in EXPECTED_SNIPPETS[script]:
        assert snippet in result.stdout, result.stdout[-2000:]
