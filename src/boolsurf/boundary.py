"""Boundary geometry: where the sensitivity of a function concentrates.

The square root of sensitivity has variance Inf[f] - BSA[f]^2, which is
zero exactly when s is constant on the cube (parities).  Sampling an
edge of the boundary (a point weighted by its sensitivity) instead of a
uniform point shifts mass towards sensitive points: at least half of the
edge-weighted mass sits at sensitivity >= Inf^2 / (4 BSA^2).  These
reports quantify both effects and audit the threshold claim, including
exhaustively over every function on up to 4 variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (TruthTable, _moment_weights, all_functions, popcount_table,
                   sensitivities)
from .errors import InputError


@dataclass(frozen=True)
class BoundaryReport:
    """Summary statistics of the sensitivity distribution of one function."""

    n: int
    influence: float
    bsa: float
    var_sqrt_sens: float
    vertex_boundary_fraction: float
    threshold: float | None
    edge_biased_prob: float | None
    is_constant: bool


def boundary_report(f: TruthTable) -> BoundaryReport:
    """Influence, surface area, Var(sqrt(s)), vertex boundary mass, and
    the edge-biased tail at the threshold Inf^2 / (4 BSA^2).

    Constants get the degenerate report (all zeros, threshold None).
    """
    profile = f.profile()
    influence = profile.moment(1.0)
    area = profile.bsa()
    var = influence - area * area
    vertex_fraction = profile.count_ge(1) / profile.points
    if influence == 0.0:
        return BoundaryReport(f.n, 0.0, 0.0, 0.0, 0.0, None, None, True)
    threshold = influence * influence / (4.0 * area * area)
    tail = _edge_biased_share(profile, lambda levels: levels >= threshold)
    return BoundaryReport(f.n, influence, area, var, vertex_fraction,
                          threshold, tail, False)


def _edge_biased_share(profile, select) -> float:
    """Edge-biased probability that s lies in the levels `select(levels)` picks.

    A boundary edge is sampled by picking a point with probability
    proportional to s(x); for a nonconstant function the chance that s is
    in a set M is sum_{m in M} m * counts[m] / sum_m m * counts[m].
    """
    levels = _moment_weights(profile.n, 1.0)
    mass = levels * profile.counts
    return float(mass[select(levels)].sum() / mass.sum())


def edge_biased_cdf(f: TruthTable, t: float) -> float:
    """Edge-biased probability of sensitivity <= t (complement of the tail)."""
    profile = f.profile()
    if profile.moment(1.0) == 0.0:
        raise InputError("edge-biased sampling is undefined for constant functions")
    return _edge_biased_share(profile, lambda levels: levels <= t)


@dataclass(frozen=True)
class EdgeThresholdCheck:
    """Result of the half-mass-at-threshold audit for one function."""

    threshold: float
    edge_biased_prob: float
    margin: float
    passed: bool


def edge_threshold_check(f: TruthTable) -> EdgeThresholdCheck:
    """Verify that at least half the edge-biased mass has
    s >= Inf^2 / (4 BSA^2).  Errors on constant functions."""
    report = boundary_report(f)
    if report.is_constant:
        raise InputError("threshold check is undefined for constant functions")
    margin = report.edge_biased_prob - 0.5
    return EdgeThresholdCheck(report.threshold, report.edge_biased_prob,
                              margin, margin >= 0.0)


@dataclass(frozen=True)
class ExhaustiveEdgeReport:
    """Aggregate of edge_threshold_check over every nonconstant function."""

    n: int
    functions_checked: int
    failures: int
    min_margin: float


def edge_threshold_check_exhaustive(n: int) -> ExhaustiveEdgeReport:
    """Run the threshold audit on all 2^(2^n) - 2 nonconstant functions.

    Vectorised: one (functions x points) sensitivity matrix instead of
    per-function tables.
    """
    n = int(n)
    sens64 = sensitivities(all_functions(n))[0].astype(np.int64)
    nfuncs = sens64.shape[0]
    edge_sum = sens64.sum(axis=1)  # 2^n * Inf, integer
    nonconstant = edge_sum > 0
    sqrt_sum = np.sqrt(sens64).sum(axis=1)  # 2^n * BSA
    # threshold in integer-comparable form: s >= edge_sum^2 / (4 sqrt_sum^2)
    thresholds = np.zeros(nfuncs)
    thresholds[nonconstant] = (edge_sum[nonconstant] / sqrt_sum[nonconstant]) ** 2 / 4.0
    above = sens64 >= thresholds[:, None]
    heavy = (sens64 * above).sum(axis=1)
    margins = np.full(nfuncs, np.inf)
    margins[nonconstant] = heavy[nonconstant] / edge_sum[nonconstant] - 0.5
    failures = int((margins[nonconstant] < 0.0).sum())
    return ExhaustiveEdgeReport(n, int(nonconstant.sum()), failures,
                                float(margins[nonconstant].min()))


def level_sign_counts(f: TruthTable) -> list[tuple[int, int, int]]:
    """Per Hamming level of the index (number of -1 coordinates):
    (level, count of +1 outputs, count of -1 outputs)."""
    # bucket 2 * level + (value == 1): one pass gives every level's -1, +1 pair
    buckets = 2 * popcount_table(f.n) + (f.values == 1)
    pairs = np.bincount(buckets, minlength=2 * f.n + 2).reshape(-1, 2).tolist()
    return [(level, plus, minus) for level, (minus, plus) in enumerate(pairs)]


def chain_tail_bound_holds(f: TruthTable, t: float) -> tuple[bool, float, float]:
    """Check the low-sensitivity edge-mass bound
    Pr_edge[s <= t] <= sqrt(t) * BSA / Inf; returns (ok, lhs, rhs)."""
    if t < 0:
        raise InputError("threshold t must be nonnegative")
    lhs = edge_biased_cdf(f, t)  # raises for constant functions
    report = boundary_report(f)
    rhs = float(np.sqrt(t) * report.bsa / report.influence)
    return lhs <= rhs + 1e-12, lhs, rhs
