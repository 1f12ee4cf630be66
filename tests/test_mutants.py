"""Mutation audit of the acceptance criteria (DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 1978): each mutant plants one
small, plausible bug by monkeypatch, and the criterion that checks the
mutated code must fail on it.

`partition` memoises square-root ends and splits, so the caches are cleared
before a mutant runs (else cached ends hide it) and after it is undone (else
its ends leak into later tests).
"""

from math import comb

import numpy as np
import pytest

from boolsurf import core, partition, verify


def _clear_partition_caches():
    for cached in (partition._mean_sqrt, partition._root_floors, partition._split):
        cached.cache_clear()


@pytest.fixture
def mutate(monkeypatch):
    """Patch `target.name` with `mutant` on clean partition caches."""
    def plant(target, name, mutant):
        _clear_partition_caches()
        monkeypatch.setattr(target, name, mutant)

    yield plant
    monkeypatch.undo()
    _clear_partition_caches()


def _hg_weights_off_by_one(population, successes, draws):
    """`partition._hg_weights` dividing the recurrence by (s + 2), not (s + 1)."""
    n, k, m = population, successes, draws
    support = partition._hg_support(n, k, m)
    weight = comb(k, support.start) * comb(n - k, m - support.start)
    weights = [weight]
    for s in support[:-1]:
        weight = weight * (k - s) * (m - s) // ((s + 2) * (n - k - m + s + 1))
        weights.append(weight)
    return support, weights


def _directions_without_top_axis(values):
    """`core._sensitive_directions` that never sets bit n - 1."""
    words = core._sensitive_directions(values)
    return words & np.uint32((len(words) >> 1) - 1)


def _shuffle_table_one_bit_high(ones, sizes):
    """`partition._shuffle_table` reading block l one bit above its offset, so
    the last block runs past bit n - 1."""
    n = sum(sizes)
    words = np.flatnonzero(core.popcount_table(n) == ones)
    roots = core._moment_weights(n, 0.5)
    total = np.zeros(len(words), dtype=np.float64)
    start = 0
    for m in sizes:
        total += roots[np.bitwise_count(words & (((1 << m) - 1) << (start + 1)))]
        start += m
    return words, total / np.sqrt(float(len(sizes)))


@pytest.mark.parametrize("cid, target, name, mutant", [
    ("c9", partition, "_hg_weights", _hg_weights_off_by_one),
    ("c10", partition, "_hg_weights", _hg_weights_off_by_one),
    ("c10", verify, "_sensitive_directions", _directions_without_top_axis),
    ("c9", partition, "_shuffle_table", _shuffle_table_one_bit_high),
], ids=["c9-hg-weights", "c10-hg-weights", "c10-directions", "c9-shuffle-offset"])
def test_criterion_fails_on_mutant(mutate, cid, target, name, mutant):
    mutate(target, name, mutant)
    result = verify.run_criterion(cid)
    assert result.passed is False, result.detail
