import math

import numpy as np
import pytest

from boolsurf.boundary import (_edge_biased_share, boundary_report, edge_threshold_check_exhaustive,
                               level_sign_counts)
from boolsurf.core import TruthTable, bsa, popcount_table, total_influence
from boolsurf.errors import CapacityError, InputError


def test_report_majority5():
    rep = boundary_report(TruthTable.majority(5))
    assert rep.influence == 1.875
    assert abs(rep.bsa - 5.0 * math.sqrt(3.0) / 8.0) < 1e-15
    assert abs(rep.var_sqrt_sens - 0.703125) < 1e-12
    assert rep.vertex_boundary_fraction == 0.625
    # Inf^2 / (4 BSA^2) = (15/8)^2 / (4 * 75/64) = 0.75
    assert abs(rep.threshold - 0.75) < 1e-12
    # all boundary mass sits at s = 3 >= 0.75
    assert rep.edge_biased_prob == 1.0
    assert rep.margin == 0.5
    assert rep.passed is True
    assert not rep.is_constant


def test_report_dictator():
    rep = boundary_report(TruthTable.dictator(4))
    assert rep.influence == 1.0
    assert rep.bsa == 1.0
    assert rep.var_sqrt_sens == 0.0
    assert rep.vertex_boundary_fraction == 1.0
    assert rep.threshold == 0.25
    assert rep.edge_biased_prob == 1.0


def test_report_full_parity_variance_vanishes():
    for n in (3, 4, 5, 8):
        rep = boundary_report(TruthTable.parity(n, (1 << n) - 1))
        assert rep.var_sqrt_sens == 0.0
        assert rep.vertex_boundary_fraction == 1.0
        assert rep.threshold == n / 4


def test_report_one_level_is_exact_for_every_leading_parity():
    # parity of the first k of n coordinates has s = k everywhere: Var(sqrt(s))
    # is exactly 0 and Inf^2 / (4 BSA^2) exactly k / 4, though BSA^2 = k
    # need not hold in float64 (k = 2: sqrt(2)^2 rounds to 2.0000000000000004)
    cases = [(n, k) for n in range(1, 13) for k in range(1, n + 1)]
    assert len(cases) == 78
    for n, k in cases:
        rep = boundary_report(TruthTable.parity(n, (1 << k) - 1))
        assert rep.var_sqrt_sens == 0.0, (n, k)
        assert rep.threshold == k / 4, (n, k)
        assert rep.edge_biased_prob == 1.0 and rep.passed is True


def test_report_constant():
    rep = boundary_report(TruthTable.constant(4, -1))
    assert rep.is_constant
    assert rep.influence == 0.0
    assert rep.bsa == 0.0
    assert rep.vertex_boundary_fraction == 0.0
    assert rep.threshold is None
    assert rep.edge_biased_prob is None


def test_variance_identity_random():
    for seed in range(15):
        f = TruthTable.random(seed % 10 + 1, seed=500 + seed)
        rep = boundary_report(f)
        total, _ = total_influence(f)
        assert abs(rep.var_sqrt_sens - (total - bsa(f) ** 2)) < 1e-12
        assert rep.var_sqrt_sens >= -1e-12


def test_threshold_check_embedded_parity():
    rep = boundary_report(TruthTable.parity(5, 0b00011))
    # Inf = 2, BSA = sqrt(2): threshold 0.5, all mass at s = 2
    assert rep.threshold == 0.5
    assert rep.edge_biased_prob == 1.0
    assert rep.margin == 0.5
    assert rep.passed is True


def test_threshold_check_constant_has_no_verdict():
    for sign in (1, -1):
        rep = boundary_report(TruthTable.constant(2, sign))
        assert rep.is_constant
        assert rep.margin is None and rep.passed is None


def test_threshold_check_random_never_fails():
    for seed in range(20):
        f = TruthTable.random(seed % 9 + 1, seed=600 + seed)
        rep = boundary_report(f)
        if rep.is_constant:
            continue
        assert rep.passed is True
        assert rep.margin == rep.edge_biased_prob - 0.5 >= 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_threshold_check(n):
    rep = edge_threshold_check_exhaustive(n)
    assert rep.functions_checked == (1 << (1 << n)) - 2
    assert rep.failures == 0
    assert rep.min_margin >= 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exhaustive_threshold_check_is_vacuous_up_to_four(n):
    # the threshold is at most n / 4 <= 1, so every edge-biased share is 1
    rep = edge_threshold_check_exhaustive(n)
    assert rep.failures == 0
    assert rep.min_margin == 0.5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_report_verdict_agrees_with_exhaustive_audit(n):
    # every function on n variables, one per word c: f(x) = -1 where bit x of c is set
    bits = np.arange(1 << n)
    reports = [boundary_report(TruthTable(n, np.where((c >> bits) & 1, -1, 1)))
               for c in range(1 << (1 << n))]
    nonconstant = [rep for rep in reports if not rep.is_constant]
    audit = edge_threshold_check_exhaustive(n)
    assert len(nonconstant) == audit.functions_checked
    assert sum(not rep.passed for rep in nonconstant) == audit.failures == 0
    assert min(rep.margin for rep in nonconstant) == audit.min_margin
    constants = [rep for rep in reports if rep.is_constant]
    assert len(constants) == 2
    assert all(rep.margin is None and rep.passed is None for rep in constants)


def test_exhaustive_threshold_caps():
    with pytest.raises(CapacityError):
        edge_threshold_check_exhaustive(5)
    with pytest.raises(InputError):
        edge_threshold_check_exhaustive(0)


def test_golden_edge_biased_mass_random10():
    f = TruthTable.random(10, seed=42)
    assert f.profile().counts.tolist() == [2, 16, 46, 131, 209, 256, 212, 97, 41, 12, 2]
    rep = boundary_report(f)
    assert rep.threshold == 1.2659461444461622
    assert rep.edge_biased_prob == 0.9968152866242038
    # edge-biased probability of s <= t, from the share boundary_report reads
    for t, want in ((0.0, 0.0), (2.0, 0.021496815286624203),
                    (4.5, 0.26612261146496813), (10.0, 1.0)):
        assert _edge_biased_share(f.profile().counts, lambda levels: levels <= t) == want


def test_level_sign_counts_majority5():
    rows = level_sign_counts(TruthTable.majority(5))
    # level = number of -1 inputs; majority flips between levels 2 and 3
    assert rows == [(0, 1, 0), (1, 5, 0), (2, 10, 0),
                    (3, 0, 10), (4, 0, 5), (5, 0, 1)]
    for level, plus, minus in rows:
        assert plus + minus == math.comb(5, level)


def test_level_sign_counts_dictator():
    rows = level_sign_counts(TruthTable.dictator(2))
    assert rows == [(0, 1, 0), (1, 1, 1), (2, 0, 1)]


def _level_sign_counts_by_level(f):
    """Reference: one masked pass per level."""
    weights = popcount_table(f.n)
    rows = []
    for level in range(f.n + 1):
        at_level = f.values[weights == level]
        plus = int((at_level == 1).sum())
        rows.append((level, plus, int(at_level.size - plus)))
    return rows


# n = 0 and n <= 5 pack into one word of under 64 points; n = 12 into 64 words
@pytest.mark.parametrize("n", range(0, 13))
def test_level_sign_counts_matches_per_level_loop(n):
    for seed in range(3):
        f = TruthTable.random(n, seed=seed)
        rows = level_sign_counts(f)
        assert rows == _level_sign_counts_by_level(f)
        assert all(type(v) is int for row in rows for v in row)
