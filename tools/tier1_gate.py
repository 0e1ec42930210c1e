"""Run the tier-1 tests and fail unless exactly the known tests fail.

    python3 tools/tier1_gate.py

Runs ``python -m pytest -q --continue-on-collection-errors`` from the
repository root with ``src`` first on ``PYTHONPATH`` (the tier-1 command of
ROADMAP.md), writing a JUnit XML report to a temporary file.  The tests that
failed or errored there, as pytest node ids, must be exactly
``EXPECTED_FAILURES``: a new failure fails the gate, and so does an expected
one that now passes, so the set cannot change quietly.  Exits 0 when the
sets match and 1 otherwise, naming each difference.  Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The grid family's stated law is false (README, "A genuine finding"), and
# acceptance criterion 6 asserts it as stated.
EXPECTED_FAILURES = frozenset({"tests/test_acceptance.py::test_criterion_6_corollary_families"})


def node_id(classname: str, name: str) -> str:
    """The pytest node id of a JUnit test case, its dotted module name read
    back as a path.  A collection error has no classname, and its dotted
    module name is kept as it is."""
    return f"{classname.replace('.', '/')}.py::{name}" if classname else name


def failed_ids(junit: Path) -> set[str]:
    """Node ids of the test cases in ``junit`` with a failure or an error."""
    return {node_id(case.get("classname", ""), case.get("name", ""))
            for case in ET.parse(junit).getroot().iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None}


def differences(failed: set[str]) -> list[str]:
    """One line per test whose outcome differs from ``EXPECTED_FAILURES``."""
    return ([f"unexpected failure: {t}" for t in sorted(failed - EXPECTED_FAILURES)]
            + [f"expected failure passed: {t}" for t in sorted(EXPECTED_FAILURES - failed)])


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp, "tier1.xml")
        subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                        f"--junitxml={junit}"], cwd=ROOT, env=env, check=False)
        if not junit.is_file():
            print("tier-1 gate: pytest wrote no JUnit report", file=sys.stderr)
            return 1
        problems = differences(failed_ids(junit))
    for line in problems:
        print(f"tier-1 gate: {line}", file=sys.stderr)
    if not problems:
        print(f"tier-1 gate: only the {len(EXPECTED_FAILURES)} expected failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
