"""Exact block-partition averages via the hypergeometric distribution.

Take a 0/1 population of size n with n - k ones, split uniformly at
random into ordered blocks of sizes m_1..m_b.  The partition average

    B = (1 / sqrt(b)) * E[ sum_l sqrt(ones in block l) ]

needs no simulation: block l in isolation is a uniform m_l-subset, so
its ones count is hypergeometric and

    B = (1 / sqrt(b)) * sum_l E[sqrt(X_l)],  X_l ~ Hg(n, n - k, m_l).

This module computes B exactly (rational PMF weights, high-precision
square roots), certifies the sandwich B <= sqrt(n - k) <= B + b for
near-equal block sizes, bounds the gap for arbitrary sizes through a
second-order Jensen estimate, and cross-checks everything against a
shuffle-based Monte Carlo and against restricted sub-function averages
of actual Boolean functions.

Certification convention: an inequality checked at `precision` decimal
digits is accepted with additive slack 10^-precision, while all
arithmetic carries 15 extra guard digits.  Guard rounding therefore sits
many orders below the slack, and the slack is what lets exact-equality
cases (k = 0 with equal sizes, b = 1, k = n) certify cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath as mp
import numpy as np

from .core import TruthTable, bsa, sensitivities
from .errors import DegenerateInputError, InputError, VerificationError
from .seeding import Estimate, mc_values, mean_and_stderr

DEFAULT_PRECISION = 15
CERT_PRECISION = 30
GUARD_DIGITS = 15
ABS_NOISE = 1e-9  # float-conversion allowance when a Monte Carlo stderr is 0


def _slack(precision: int):
    return mp.mpf(10) ** (-precision)


def _check_precision(precision: int) -> int:
    precision = int(precision)
    if not 1 <= precision <= 100:
        raise InputError(f"precision must lie in 1..100 decimal digits, got {precision}")
    return precision


@dataclass(frozen=True)
class HypergeometricParams:
    """Ones count of a uniform `draws`-subset of a `population` with
    `successes` ones."""

    population: int
    successes: int
    draws: int

    def __post_init__(self):
        if self.population < 1:
            raise InputError("population must be >= 1")
        if not 0 <= self.successes <= self.population:
            raise InputError("successes must lie in 0..population")
        if not 1 <= self.draws <= self.population:
            raise InputError("draws must lie in 1..population")

    def support(self) -> range:
        low = max(0, self.draws - (self.population - self.successes))
        high = min(self.draws, self.successes)
        return range(low, high + 1)

    def mean(self) -> Fraction:
        return Fraction(self.draws * self.successes, self.population)

    def variance(self) -> Fraction:
        n, k, m = self.population, self.successes, self.draws
        if n == 1:
            return Fraction(0)
        return Fraction(m * k * (n - k) * (n - m), n * n * (n - 1))


def hg_pmf(params: HypergeometricParams, s: int) -> Fraction:
    """Exact point mass P[X = s]."""
    s = int(s)
    if s not in params.support():
        return Fraction(0)
    n, k, m = params.population, params.successes, params.draws
    return Fraction(comb(k, s) * comb(n - k, m - s), comb(n, m))


@lru_cache(maxsize=None)
def _sqrt_int(s: int, dps: int):
    with mp.workdps(dps):
        return mp.sqrt(s)


@lru_cache(maxsize=None)
def _mean_sqrt_weighted(population: int, successes: int, draws: int, dps: int):
    """E[sqrt(X)] with integer PMF weights summed before one division."""
    n, k, m = population, successes, draws
    low = max(0, m - (n - k))
    high = min(m, k)
    with mp.workdps(dps):
        total = mp.mpf(0)
        for s in range(max(low, 1), high + 1):
            total += comb(k, s) * comb(n - k, m - s) * _sqrt_int(s, dps)
        return total / comb(n, m)


def mean_sqrt_hg(params: HypergeometricParams, precision: int = DEFAULT_PRECISION):
    """E[sqrt(X)] to `precision` digits (carried with guard digits)."""
    precision = _check_precision(precision)
    return _mean_sqrt_weighted(params.population, params.successes, params.draws,
                               precision + GUARD_DIGITS)


@dataclass(frozen=True)
class BlockPartitionSpec:
    """Ordered split of n positions, k of them zeros, into blocks `sizes`."""

    n: int
    k: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if self.n < 1:
            raise InputError("need n >= 1")
        if not 0 <= self.k <= self.n:
            raise InputError(f"k must lie in 0..{self.n}, got {self.k}")
        if not sizes or any(s < 1 for s in sizes):
            raise InputError("block sizes must be positive")
        if sum(sizes) != self.n:
            raise InputError(f"block sizes sum to {sum(sizes)}, expected n={self.n}")

    @property
    def blocks(self) -> int:
        return len(self.sizes)

    @property
    def near_equal(self) -> bool:
        """True when sizes are a permutation of the floor/ceil split of n."""
        m, r = divmod(self.n, self.blocks)
        want = sorted([m + 1] * r + [m] * (self.blocks - r))
        return sorted(self.sizes) == want


def near_equal_sizes(n: int, blocks: int) -> tuple[int, ...]:
    """The canonical floor/ceil split: larger blocks first."""
    if not 1 <= blocks <= n:
        raise InputError(f"blocks must lie in 1..{n}, got {blocks}")
    m, r = divmod(n, blocks)
    return tuple([m + 1] * r + [m] * (blocks - r))


def block_average_B(spec: BlockPartitionSpec, precision: int = DEFAULT_PRECISION):
    """The partition average (1/sqrt(b)) * sum_l E[sqrt(X_l)], exactly."""
    precision = _check_precision(precision)
    dps = precision + GUARD_DIGITS
    with mp.workdps(dps):
        total = mp.mpf(0)
        for m_l in spec.sizes:
            total += _mean_sqrt_weighted(spec.n, spec.n - spec.k, m_l, dps)
        return total / _sqrt_int(spec.blocks, dps)


def gap_bound(spec: BlockPartitionSpec, precision: int = DEFAULT_PRECISION):
    """Certified upper bound on sqrt(n - k) - B from two Jensen steps.

    Undefined (returns None) when k = n, where both sides vanish.
    """
    precision = _check_precision(precision)
    n, k, b = spec.n, spec.k, spec.blocks
    if k == n:
        return None
    dps = precision + GUARD_DIGITS
    with mp.workdps(dps):
        sum_roots = mp.mpf(0)
        sum_ratio = mp.mpf(0)
        for m_l in spec.sizes:
            root = _sqrt_int(m_l, dps)
            sum_roots += root
            sum_ratio += (n - m_l) / root
        first = _sqrt_int(n - k, dps) * (1 - sum_roots / _sqrt_int(b * n, dps))
        if k == 0:
            return first
        second = k * sum_ratio / (2 * (n - 1) * _sqrt_int(b * n * (n - k), dps))
        return first + second


@dataclass(frozen=True)
class SandwichReport:
    """Certified comparison of sqrt(n - k) against the partition average."""

    spec: BlockPartitionSpec
    precision: int
    sqrt_total: object  # mpf: sqrt(n - k)
    block_average: object  # mpf: the average B
    gap: object  # mpf: sqrt_total - block_average
    gap_bound: object  # mpf or None when k = n
    near_equal: bool
    pass_lower: bool
    pass_upper: bool | None
    pass_gap: bool | None

    @property
    def all_passed(self) -> bool:
        return self.pass_lower and self.pass_upper is not False and self.pass_gap is not False


def sandwich_check(spec: BlockPartitionSpec,
                   precision: int = DEFAULT_PRECISION) -> SandwichReport:
    """Certify B <= sqrt(n - k), the gap bound, and (for near-equal
    sizes) sqrt(n - k) <= B + b, each with 10^-precision slack."""
    precision = _check_precision(precision)
    dps = precision + GUARD_DIGITS
    with mp.workdps(dps):
        slack = _slack(precision)
        a_val = _sqrt_int(spec.n - spec.k, dps)
        b_val = block_average_B(spec, precision)
        gap = a_val - b_val
        bound = gap_bound(spec, precision)
        pass_lower = bool(b_val <= a_val + slack)
        pass_gap = None if bound is None else bool(gap <= bound + slack)
        near = spec.near_equal
        pass_upper = bool(a_val <= b_val + spec.blocks + slack) if near else None
    return SandwichReport(spec, precision, a_val, b_val, gap, bound, near,
                          pass_lower, pass_upper, pass_gap)


@dataclass(frozen=True)
class JensenBounds:
    """Two-sided enclosure of E[sqrt(Y)] for Y = scale * X + shift >= 0."""

    lower: object
    upper: object
    mean_sqrt: object


def jensen_bounds(values, probs, precision: int = DEFAULT_PRECISION,
                  scale=1, shift=0) -> JensenBounds:
    """Enclose E[sqrt(Y)], Y = scale * X + shift, between
    sqrt(E[Y]) - scale^2 Var(X) / (2 E[Y]^{3/2}) and sqrt(E[Y]).

    The distribution of X is given by parallel `values` / `probs`
    sequences (Fractions welcome).  Y must be nonnegative with positive
    mean.  The exact mean of sqrt(Y) is computed alongside and the
    enclosure is verified before returning.
    """
    precision = _check_precision(precision)
    dps = precision + GUARD_DIGITS
    values = list(values)
    probs = list(probs)
    if len(values) != len(probs) or not values:
        raise InputError("need matching nonempty values/probs sequences")
    with mp.workdps(dps):
        pr = [mp.mpmathify(p) for p in probs]
        xs = [mp.mpmathify(v) for v in values]
        sc = mp.mpmathify(scale)
        sh = mp.mpmathify(shift)
        if any(p < 0 for p in pr):
            raise InputError("probabilities must be nonnegative")
        total = mp.fsum(pr)
        if abs(total - 1) > mp.mpf("1e-9"):
            raise InputError("probabilities must sum to 1")
        pr = [p / total for p in pr]  # absorb float-level normalisation drift
        ys = [sc * x + sh for x in xs]
        if any(y < 0 for y in ys):
            raise InputError("scale * X + shift must be nonnegative")
        mean_x = mp.fsum(p * x for p, x in zip(pr, xs))
        var_x = mp.fsum(p * (x - mean_x) ** 2 for p, x in zip(pr, xs))
        mean_y = sc * mean_x + sh
        if mean_y <= 0:
            raise DegenerateInputError("E[scale * X + shift] must be positive")
        upper = mp.sqrt(mean_y)
        lower = upper - sc * sc * var_x / (2 * mean_y ** mp.mpf("1.5"))
        mean_sqrt = mp.fsum(p * mp.sqrt(y) for p, y in zip(pr, ys))
        slack = _slack(precision)
        if not lower - slack <= mean_sqrt <= upper + slack:
            raise VerificationError(
                f"E[sqrt(Y)] = {mean_sqrt} escaped the enclosure [{lower}, {upper}]")
    return JensenBounds(lower, upper, mean_sqrt)


def mc_partition_average(y, sizes, trials: int, seed: int = 0,
                         workers: int | None = None):
    """Shuffle-based estimate of the partition average of a fixed 0/1
    sequence, for cross-checking the exact hypergeometric route."""
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or not np.isin(y, (0, 1)).all():
        raise InputError("population must be a 1-D 0/1 sequence")
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 1 for s in sizes) or sum(sizes) != len(y):
        raise InputError("block sizes must be positive and sum to the population size")
    if trials < 1:
        raise InputError("need trials >= 1")
    b = len(sizes)
    offsets = np.cumsum((0,) + sizes[:-1])
    root_b = np.sqrt(float(b))

    def draw(rng, size):
        shuffled = rng.permuted(np.tile(y, (size, 1)), axis=1)
        blocks = np.add.reduceat(shuffled, offsets, axis=1)
        return np.sqrt(blocks).sum(axis=1) / root_b

    values = mc_values(trials, seed, workers, draw)
    return Estimate(*mean_and_stderr(values))


@dataclass(frozen=True)
class BlockBoundReport:
    """Monte Carlo audit of the block-splitting surface-area inequality.

    For any f on n variables and a uniform ordered partition into b
    near-equal blocks, the surface area of f is at most
    (1/sqrt(b)) * E[ sum over blocks of the surface area of f with
    everything outside the block fixed uniformly ] plus b.  `margin` is
    how much room the sampled right side (plus 4 standard errors) left.
    """

    lhs: float
    rhs_estimate: float
    stderr: float
    blocks: int
    sizes: tuple[int, ...]
    trials: int
    margin: float
    passed: bool


def bsa_block_bound(f: TruthTable, blocks: int, trials: int, seed: int = 0,
                    workers: int | None = None) -> BlockBoundReport:
    """Sample the block-splitting bound for a concrete function.

    Each trial draws one uniform permutation of the coordinates (the
    ordered near-equal partition) and one uniform completion per block,
    then computes the exact surface area of every restricted sub-table.
    Raises VerificationError if the bound fails by more than 4 standard
    errors; noise is negligible next to the +b term, so a failure means
    a real bug.
    """
    n = f.n
    sizes = near_equal_sizes(n, blocks)
    if trials < 1:
        raise InputError("need trials >= 1")
    offsets = np.cumsum((0,) + sizes[:-1])
    root_b = np.sqrt(float(blocks))
    sub_bits = {}
    for m_l in set(sizes):
        sub = np.arange(1 << m_l, dtype=np.int64)
        sub_bits[m_l] = ((sub[:, None] >> np.arange(m_l)[None, :]) & 1).astype(np.int64)
    roots = np.sqrt(np.arange(n + 1, dtype=np.float64))
    m_max = max(sizes)
    segment = max(1, 2_000_000 // ((1 << m_max) * m_max))  # bound the index temps

    def draw(rng, size):
        perms = rng.permuted(np.tile(np.arange(n, dtype=np.int64), (size, 1)), axis=1)
        outside = rng.integers(0, 1 << n, size=(size, blocks), dtype=np.int64)
        total = np.zeros(size, dtype=np.float64)
        for start in range(0, size, segment):
            rows = slice(start, min(start + segment, size))
            for l, m_l in enumerate(sizes):
                positions = perms[rows, offsets[l]:offsets[l] + m_l]  # (seg, m_l)
                block_mask = np.bitwise_or.reduce(np.int64(1) << positions, axis=1)
                base = outside[rows, l] & ~block_mask
                inside = sub_bits[m_l][None, :, :] << positions[:, None, :]
                idx = base[:, None] + inside.sum(axis=2)  # (seg, 2^m_l)
                sens, _ = sensitivities(f.values[idx])
                total[rows] += roots[sens].mean(axis=1)
        return total / root_b

    values = mc_values(trials, seed, workers, draw)
    est, err = mean_and_stderr(values)
    lhs = bsa(f)
    margin = est + blocks + 4.0 * err - lhs
    passed = margin >= 0.0
    report = BlockBoundReport(lhs, est, err, blocks, sizes, trials, margin, passed)
    if not passed:
        raise VerificationError(
            f"block bound failed: {lhs} > {est} + {blocks} + 4*{err}")
    return report
