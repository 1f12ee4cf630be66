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

from .core import (TruthTable, _moment_weights, _one_level, all_function_words, pack_signs,
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
    if profile.counts[0] == profile.points:
        return BoundaryReport(f.n, 0.0, 0.0, 0.0, 0.0, None, None, None, None, True)
    influence, area, var, threshold, tail = map(float, _edge_verdict(profile.counts))
    margin = tail - 0.5
    return BoundaryReport(f.n, influence, area, var, profile.count_ge(1) / profile.points,
                          threshold, tail, margin, margin >= 0.0, False)


def _edge_verdict(counts):
    """(Inf, BSA, Var(sqrt(s)), threshold, tail) of nonconstant sensitivity
    histograms along the last axis of `counts`.  One level c gives Var 0.0
    and threshold c / 4 exactly (Inf = c, and BSA^2 = c but for rounding).

    The tail is the edge-biased chance of s >= Inf^2 / (4 BSA^2): an edge
    picks a point with probability proportional to s(x), so it is
    sum_{m >= threshold} m counts[m] / sum_m m counts[m], each sum an
    integer below 2^53 and so exact in float64.
    """
    n = counts.shape[-1] - 1
    levels = _moment_weights(n, 1.0)
    edges = counts @ levels  # sum_m m counts[m]
    influence = edges / (1 << n)
    # vecdot, not @: a batched @ sums a row in another order than a 1-D @ does
    area = np.vecdot(counts, _moment_weights(n, 0.5)) / (1 << n)
    one_level = _one_level(counts)
    var = np.where(one_level, 0.0, influence - area * area)
    threshold = np.where(one_level, influence / 4.0, influence * influence / (4.0 * area * area))
    tail = (levels * counts * (levels >= threshold[..., None])).sum(axis=-1) / edges
    return influence, area, var, threshold, tail


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
    all read at once by the computation behind boundary_report.

    At the sizes it accepts the audit cannot fail.  Pointwise s <= sqrt(n)
    sqrt(s), so Inf <= sqrt(n) BSA and the threshold Inf^2 / (4 BSA^2) is
    at most n / 4 <= 1; every point of edge-biased mass has s >= 1, so
    every share is exactly 1 and min_margin is 0.5.
    """
    words = all_function_words(n)
    n = int(n)
    counts, _ = sensitivity_histogram(words, n)
    counts = counts[counts[:, 0] < 1 << n]  # nonconstant
    margins = _edge_verdict(counts)[-1] - 0.5
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
