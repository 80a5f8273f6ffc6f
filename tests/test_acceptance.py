"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line."""

import numpy as np
import pytest

from lpconv import acceptance
from lpconv.groups import make_symmetric
from lpconv.pnorm import NormEstimate

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


def _coarse_sphere_grid(p):
    """The criterion-9 grid at step 1e-2 rather than 1e-3, built the same way."""
    i, j = np.divmod(np.arange(101 * 101), 101)
    keep = i + j <= 100
    v = np.stack([i[keep], j[keep], 100 - i[keep] - j[keep]], axis=1) / 100
    return v ** (1.0 / p)


@pytest.fixture
def small(monkeypatch):
    # criterion 8 on one group and criterion 9 on a coarse grid, to keep these fast
    monkeypatch.setattr(acceptance, "zoo", lambda: [("S3", make_symmetric(3))])
    monkeypatch.setattr(acceptance, "_sphere_grid", _coarse_sphere_grid)


@pytest.mark.parametrize("index", [8, 9])
def test_small_criteria_pass_on_the_engine(small, index):
    assert acceptance.ALL_CRITERIA[index - 1](SEED).passed


def broken_engines():
    """Shifts of a few times each criterion's tolerance. Criterion 8 compares
    two complex sandwiches, and on S3 at seed 0 the narrowest overlap is 1.29
    wide; a shift of 1e-5 is caught by its witness check on a lower bound
    and by the majorant's all-ones quotient on an upper bound."""
    for end, sign, word in (("lower", 1.0, "lower-up"), ("upper", -1.0, "upper-down")):
        for index, shift in ((4, 1e-5), (8, 2.0), (9, 1e-2), (8, 1e-5)):
            yield pytest.param(index, shift, end, sign, id=f"{word}-{index}-{shift}")


@pytest.mark.parametrize("index, shift, end, sign", broken_engines())
def test_criteria_fail_on_a_broken_engine(small, monkeypatch, index, shift, end, sign):
    real = acceptance.pnorm_estimate

    def broken(*args, **kwargs):
        est = real(*args, **kwargs)
        bounds = {"lower": est.lower, "upper": est.upper}
        bounds[end] += sign * shift
        return NormEstimate(**bounds, witness=est.witness, iterations=est.iterations,
                            converged=est.converged)

    monkeypatch.setattr(acceptance, "pnorm_estimate", broken)
    assert not acceptance.ALL_CRITERIA[index - 1](SEED).passed
