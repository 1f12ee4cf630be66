"""Boundary geometry: where the sensitivity of a function concentrates.

The square root of sensitivity has variance Inf[f] - BSA[f]^2, which is
zero exactly when s is constant on the cube (parities).  Sampling an
edge of the boundary (a point weighted by its sensitivity) instead of a
uniform point shifts mass towards sensitive points: at least half of the
edge-weighted mass sits at sensitivity >= Inf^2 / (4 BSA^2).  One report,
`boundary_report`, quantifies both effects and carries the half-mass
verdict (its margin and whether it passed); the same audit also runs
exhaustively over every function on up to 4 variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import (TruthTable, _moment_weights, all_function_words, pack_signs,
                   popcount_table, sensitivity_histogram)


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
    margin: float | None
    passed: bool | None
    is_constant: bool


def boundary_report(f: TruthTable) -> BoundaryReport:
    """Influence, surface area, Var(sqrt(s)), vertex boundary mass, the
    edge-biased tail at the threshold Inf^2 / (4 BSA^2), and the half-mass
    verdict on it: margin = tail - 1/2, passed when the margin is >= 0.

    When one level c holds every point, Var(sqrt(s)) is 0.0 and the
    threshold c / 4 exactly.  Constants get the degenerate report (all
    zeros; threshold, tail, margin and verdict None).
    """
    profile = f.profile()
    influence = profile.moment(1.0)
    area = profile.bsa()
    vertex_fraction = profile.count_ge(1) / profile.points
    if influence == 0.0:
        return BoundaryReport(f.n, 0.0, 0.0, 0.0, 0.0, None, None, None, None, True)
    (occupied,) = np.nonzero(profile.counts)
    if len(occupied) == 1:  # s = c everywhere: Inf = c, and BSA^2 = c but for rounding
        var, threshold = 0.0, int(occupied[0]) / 4.0
    else:
        var, threshold = influence - area * area, _threshold(influence, area)
    tail = float(_edge_biased_share(profile.counts, lambda levels: levels >= threshold))
    margin = tail - 0.5
    return BoundaryReport(f.n, influence, area, var, vertex_fraction,
                          threshold, tail, margin, margin >= 0.0, False)


def _threshold(influence, area):
    """The level Inf^2 / (4 BSA^2), elementwise."""
    return influence * influence / (4.0 * area * area)


def _edge_biased_share(counts, select):
    """Edge-biased probability that s lies in the levels `select(levels)`
    picks, for sensitivity histograms along the last axis of `counts`.

    A boundary edge is sampled by picking a point with probability
    proportional to s(x); for a nonconstant function the chance that s is
    in a set M is sum_{m in M} m * counts[m] / sum_m m * counts[m], each
    sum an integer below 2^53 and so exact in float64.
    """
    levels = _moment_weights(counts.shape[-1] - 1, 1.0)
    mass = levels * counts
    return (mass * select(levels)).sum(axis=-1) / mass.sum(axis=-1)


@dataclass(frozen=True)
class ExhaustiveEdgeReport:
    """The half-mass verdict of boundary_report, aggregated over every
    nonconstant function on n variables: how many failed, and the smallest
    margin."""

    n: int
    functions_checked: int
    failures: int
    min_margin: float


def edge_threshold_check_exhaustive(n: int) -> ExhaustiveEdgeReport:
    """Run the threshold audit on all 2^(2^n) - 2 nonconstant functions.

    Vectorised: one sensitivity histogram per function (its packed word),
    read by the same threshold and edge-biased share as boundary_report.

    At the sizes it accepts the audit cannot fail.  Pointwise s <= sqrt(n)
    sqrt(s), so Inf <= sqrt(n) BSA and the threshold Inf^2 / (4 BSA^2) is
    at most n / 4 <= 1; every point of edge-biased mass has s >= 1, so
    every share is exactly 1 and min_margin is 0.5.
    """
    words = all_function_words(n)
    n = int(n)
    points = 1 << n
    counts, _ = sensitivity_histogram(words, n)
    counts = counts[counts[:, 0] < points]  # nonconstant
    thresholds = _threshold(counts @ _moment_weights(n, 1.0) / points,
                            counts @ _moment_weights(n, 0.5) / points)
    margins = _edge_biased_share(counts, lambda levels: levels >= thresholds[:, None]) - 0.5
    return ExhaustiveEdgeReport(n, len(counts), int((margins < 0.0).sum()), float(margins.min()))


# Bits of a 64-bit word whose position b has j bits set, for j = 0..6.
_POSITION_CLASSES = np.array([sum(1 << b for b in range(64) if b.bit_count() == j)
                              for j in range(7)], dtype=np.uint64)


def level_sign_counts(f: TruthTable) -> list[tuple[int, int, int]]:
    """Per Hamming level of the index (number of -1 coordinates):
    (level, count of +1 outputs, count of -1 outputs)."""
    words = pack_signs(f.values)
    # point 64 w + b is bit b of word w, at level popcount(w) + popcount(b):
    # each word's -1 count in position class j goes to its own level plus j
    word_levels = popcount_table(max(f.n - 6, 0)).astype(np.intp)
    counts = np.zeros(f.n + 7)
    for j, mask in enumerate(_POSITION_CLASSES):
        per_level = np.bincount(word_levels, weights=np.bitwise_count(words & mask))
        counts[j:j + len(per_level)] += per_level
    # each count is below 2^53 and so exact in float64
    return [(level, comb(f.n, level) - minus, minus)
            for level, minus in enumerate(counts[:f.n + 1].astype(np.int64).tolist())]
