"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line."""

import pytest

from lpconv import acceptance

SEED = 0


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[f"criterion_{k}" for k in
                              range(1, len(acceptance.ALL_CRITERIA) + 1)])
def test_criterion(criterion):
    result = criterion(SEED)
    print(f"criterion {result.index} [{'PASS' if result.passed else 'FAIL'}] {result.name}")
    assert result.passed, result.details
    # the details go to JSON as they are: plain Python values, no numpy scalars
    assert all(type(v) in (bool, int, str, list) for v in result.details.values())


def test_suite_runner_aggregates():
    report = acceptance.run_suite(seed=SEED, indices=[5, 7])
    assert report["all_passed"]
    assert [r["criterion"] for r in report["results"]] == [5, 7]
