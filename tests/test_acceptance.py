"""Acceptance gate: every entry of ``hannerfaces.selftest.CHECKS``, one test each.

The table is the one definition of criteria 1-11 and of the invariants
beside them, so this gate and ``hannerfaces selftest`` run the same checks.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per entry.
"""

import pytest

from hannerfaces.selftest import CHECKS


@pytest.mark.parametrize(("name", "check"), CHECKS, ids=[name for name, _ in CHECKS])
def test_check(name, check):
    detail = check()  # raises on failure
    print(f"[{name}] PASS — {detail}")
