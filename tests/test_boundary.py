import math

import numpy as np
import pytest

from boolsurf.boundary import (boundary_report, chain_tail_bound_holds,
                               edge_biased_cdf, edge_threshold_check,
                               edge_threshold_check_exhaustive,
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
        assert abs(rep.var_sqrt_sens) < 1e-12
        assert rep.vertex_boundary_fraction == 1.0
        assert abs(rep.threshold - n / 4.0) < 1e-12


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


def test_edge_biased_cdf():
    f = TruthTable.majority(3)  # boundary mass: 6 points at s = 2
    assert edge_biased_cdf(f, 1.0) == 0.0
    assert edge_biased_cdf(f, 2.0) == 1.0
    with pytest.raises(InputError):
        edge_biased_cdf(TruthTable.constant(3), 1.0)


def test_threshold_check_embedded_parity():
    chk = edge_threshold_check(TruthTable.parity(5, 0b00011))
    # Inf = 2, BSA = sqrt(2): threshold 0.5, all mass at s = 2
    assert abs(chk.threshold - 0.5) < 1e-12
    assert chk.edge_biased_prob == 1.0
    assert chk.margin == 0.5
    assert chk.passed


def test_threshold_check_constant_errors():
    with pytest.raises(InputError):
        edge_threshold_check(TruthTable.constant(2))


def test_threshold_check_random_never_fails():
    for seed in range(20):
        f = TruthTable.random(seed % 9 + 1, seed=600 + seed)
        if boundary_report(f).is_constant:
            continue
        assert edge_threshold_check(f).passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_threshold_check(n):
    rep = edge_threshold_check_exhaustive(n)
    assert rep.functions_checked == (1 << (1 << n)) - 2
    assert rep.failures == 0
    assert rep.min_margin >= 0.0


def test_exhaustive_threshold_caps():
    with pytest.raises(CapacityError):
        edge_threshold_check_exhaustive(5)
    with pytest.raises(InputError):
        edge_threshold_check_exhaustive(0)


def test_chain_tail_bound_majority9():
    f = TruthTable.majority(9)
    for t in (0.25, 0.5, 1.0, 2.0, 4.0, 9.0):
        ok, lhs, rhs = chain_tail_bound_holds(f, t)
        assert ok
        assert 0.0 <= lhs <= 1.0
    with pytest.raises(InputError):
        chain_tail_bound_holds(f, -1.0)
    with pytest.raises(InputError):
        chain_tail_bound_holds(TruthTable.constant(2), 1.0)


def test_chain_tail_bound_random_grid():
    for seed in range(10):
        f = TruthTable.random(seed % 8 + 1, seed=700 + seed)
        if boundary_report(f).is_constant:
            continue
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            ok, _, _ = chain_tail_bound_holds(f, t)
            assert ok


def test_golden_edge_biased_mass_random10():
    f = TruthTable.random(10, seed=42)
    assert f.profile().counts.tolist() == [2, 16, 46, 131, 209, 256, 212, 97, 41, 12, 2]
    rep = boundary_report(f)
    assert rep.threshold == 1.2659461444461622
    assert rep.edge_biased_prob == 0.9968152866242038
    for t, want in ((0.0, 0.0), (2.0, 0.021496815286624203),
                    (4.5, 0.26612261146496813), (10.0, 1.0)):
        assert edge_biased_cdf(f, t) == want


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


@pytest.mark.parametrize("n", range(1, 11))
def test_level_sign_counts_matches_per_level_loop(n):
    for seed in range(3):
        f = TruthTable.random(n, seed=seed)
        rows = level_sign_counts(f)
        assert rows == _level_sign_counts_by_level(f)
        assert all(type(v) is int for row in rows for v in row)
