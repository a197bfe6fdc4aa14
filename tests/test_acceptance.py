"""The acceptance gate: one test per criterion, exact comparisons throughout.

Each test prints its PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces the criterion's wall-clock budget.
"""

import pytest

from sepgraph.selftest import CRITERIA, DEFAULT_SEED, CriterionResult


@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=[f"criterion-{c.number}" for c in CRITERIA]
)
def test_criterion(criterion):
    result = criterion(DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.detail
    budget = result.budget
    assert result.seconds < budget, (
        f"criterion {result.number} took {result.seconds:.2f}s (budget {budget}s)"
    )


def test_a_criterion_over_its_budget_fails_with_a_note():
    result = CriterionResult(3, "oracle", True, 12.0, 10)
    assert not result.ok
    assert result.line() == "PASS criterion 3 (oracle) [12.00s] [over 10s budget]"
