"""Acceptance gate: every shipped guarantee, one pass/fail line each.

The whole suite runs once (module scope); each test then reports its
criterion with the same line the `boolsurf verify` command prints,
including the measured runtime against the budget.
"""

import pytest

from boolsurf.errors import InputError
from boolsurf.verify import criteria_ids, format_result, run_all

CRITERIA = criteria_ids()


@pytest.fixture(scope="module")
def results():
    out = run_all()
    return {r.cid: r for r in out}


def test_every_criterion_is_covered():
    assert CRITERIA == [f"c{i}" for i in range(1, 15)]


@pytest.mark.parametrize("only, message", [([], "no criteria selected"),
                                           (["c99"], "unknown criteria: c99"),
                                           (["c1", "c99", "c0"], "unknown criteria: c0, c99")])
def test_run_all_rejects_an_empty_or_unknown_selection(only, message):
    with pytest.raises(InputError, match=message):
        run_all(only)


@pytest.mark.parametrize("cid", CRITERIA)
def test_criterion(results, cid):
    result = results[cid]
    print(format_result(result))
    assert result.passed, f"{cid} failed: {result.detail}"
    if result.budget is not None:
        assert result.seconds <= result.budget, (
            f"{cid} exceeded its {result.budget:g}s budget: {result.seconds:.2f}s")
