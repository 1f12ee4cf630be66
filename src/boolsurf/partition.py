"""Exact block-partition averages via the hypergeometric distribution.

Take a 0/1 population of size n with n - k ones, split uniformly at
random into ordered blocks of sizes m_1..m_b.  The partition average

    B = (1 / sqrt(b)) * E[ sum_l sqrt(ones in block l) ]

needs no simulation: block l in isolation is a uniform m_l-subset, so
its ones count is hypergeometric and

    B = (1 / sqrt(b)) * sum_l E[sqrt(X_l)],  X_l ~ Hg(n, n - k, m_l).

This module computes B exactly (integer PMF weights, integer square
roots), certifies the sandwich B <= sqrt(n - k) <= B + b for near-equal
block sizes, bounds the gap for arbitrary sizes through a second-order
Jensen estimate, and cross-checks everything against a shuffle-based
Monte Carlo and against restricted sub-function averages of actual
Boolean functions.

Certification convention: every certified quantity is an
`interval.Interval`, an enclosure with integer ends carried at
`precision` decimal digits plus guard bits.  An inequality passes only
by strict separation of the two enclosures (rerun at more bits while
they overlap) or by one of these structural equalities, which hold as
identities:

- B = sqrt(n - k) when k = n, when b = 1, or when k = 0 with equal
  sizes: every block count is then constant and the blocks are alike;
- gap_bound = sqrt(n - k) - B when k = 0, where both equal
  sqrt(n) - sum_l sqrt(m_l) / sqrt(b), and gap_bound = 0 when b = 1;
- the Jensen enclosure collapses to one point when Var(X) = 0.

Nothing passes within a slack.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, lcm
from operator import mul

import numpy as np

from .core import (_CELL_BUDGET, TruthTable, _check_n, _moment_weights, _subset_sums, bsa,
                   popcount_table, sensitivities)
from .errors import DegenerateInputError, InputError, VerificationError, _exact_int
from .interval import Interval, _product, _root, refine, sqrt_sum, working_bits
from .seeding import Estimate, mc_values, mean_and_stderr

DEFAULT_PRECISION = 15
CERT_PRECISION = 30
ABS_NOISE = 1e-9  # float-conversion allowance when a Monte Carlo stderr is 0


def _check_precision(precision: int) -> int:
    precision = _exact_int(precision, "precision")
    if not 10 <= precision <= 50:
        raise InputError(f"precision must lie in 10..50 decimal digits, got {precision}")
    return precision


def _check_k(n: int, k: int) -> int:
    k = _exact_int(k, "k")
    if not 0 <= k <= n:
        raise InputError(f"k must lie in 0..{n}, got {k}")
    return k


@dataclass(frozen=True)
class HypergeometricParams:
    """Ones count of a uniform `draws`-subset of a `population` with
    `successes` ones."""

    population: int
    successes: int
    draws: int

    def __post_init__(self):
        for name in ("population", "successes", "draws"):
            object.__setattr__(self, name, _exact_int(getattr(self, name), name))
        if self.population < 1:
            raise InputError("population must be >= 1")
        if not 0 <= self.successes <= self.population:
            raise InputError("successes must lie in 0..population")
        if not 1 <= self.draws <= self.population:
            raise InputError("draws must lie in 1..population")

    def support(self) -> range:
        return _hg_table(self.population, self.successes, self.draws)[0]


# Bounded: the weights of a large population are huge integers.
@lru_cache(maxsize=64)
def _hg_table(population: int, successes: int, draws: int) -> tuple[range, tuple[int, ...], int]:
    """(support, weights, C(n, m)): the support is the ones counts a uniform
    m-subset of n positions with k ones can hold, max(0, m - (n - k)) ..
    min(m, k), and P[X = s] is the integer weight C(k, s) C(n - k, m - s)
    at s over C(n, m)."""
    n, k, m = population, successes, draws
    support = range(max(0, m - (n - k)), min(m, k) + 1)
    return support, tuple(comb(k, s) * comb(n - k, m - s) for s in support), comb(n, m)


def hg_pmf(params: HypergeometricParams, s: int) -> Fraction:
    """Exact point mass P[X = s]."""
    support, weights, total = _hg_table(params.population, params.successes, params.draws)
    s = _exact_int(s, "ones count")
    if s not in support:
        return Fraction(0)
    return Fraction(weights[s - support.start], total)


@lru_cache(maxsize=None)
def _mean_sqrt(population: int, successes: int, draws: int, bits: int) -> Interval:
    """E[sqrt(X)]: integer PMF weights times integer root enclosures,
    summed before one outward division by C(n, m)."""
    support, weights, total = _hg_table(population, successes, draws)
    lo = hi = 0
    for s, weight in zip(support, weights):
        root = Interval.sqrt(s, bits)  # cached: every sweep reuses the same few s
        lo += weight * root.lo
        hi += weight * root.hi
    return Interval(lo, hi, bits) / total


def mean_sqrt_hg(params: HypergeometricParams, precision: int = DEFAULT_PRECISION) -> Interval:
    """E[sqrt(X)] enclosed at `precision` digits, refined until settled."""
    args = params.population, params.successes, params.draws
    return refine(lambda bits: (mean := _mean_sqrt(*args, bits), mean.settled),
                  working_bits(_check_precision(precision)))


@dataclass(frozen=True)
class BlockPartitionSpec:
    """Ordered split of n positions, k of them zeros, into blocks `sizes`."""

    n: int
    k: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        n, sizes = _check_split(self.n, self.sizes)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", _check_k(n, self.k))
        object.__setattr__(self, "sizes", sizes)


def _check_split(n: int, sizes) -> tuple[int, tuple[int, ...]]:
    """n and `sizes` as ints: the sizes each positive, summing to n."""
    n = _exact_int(n, "n")
    sizes = tuple(_exact_int(m, "block size") for m in sizes)
    if not sizes or min(sizes) < 1:
        raise InputError("block sizes must be positive")
    if sum(sizes) != n:
        raise InputError(f"block sizes sum to {sum(sizes)}, expected n={n}")
    return n, sizes


def near_equal_sizes(n: int, blocks: int) -> tuple[int, ...]:
    """The canonical floor/ceil split: larger blocks first."""
    n, blocks = _exact_int(n, "n"), _exact_int(blocks, "blocks")
    if not 1 <= blocks <= n:
        raise InputError(f"blocks must lie in 1..{n}, got {blocks}")
    m, r = divmod(n, blocks)
    return tuple([m + 1] * r + [m] * (blocks - r))


def near_equal_sweep(ns):
    """Every group (n, sizes) with `sizes` the near-equal split of n into b
    blocks, for n in `ns` and b in 1..n, in that nesting order; each group
    certifies k in 0..n, so n(n + 1) cases per n.  Raises InputError for
    an n below 1 before yielding anything."""
    ns = [_exact_int(n, "n") for n in ns]
    if ns and min(ns) < 1:
        raise InputError(f"near-equal sweeps need n >= 1, got {min(ns)}")
    return ((n, near_equal_sizes(n, b)) for n in ns for b in range(1, n + 1))


@dataclass(frozen=True, slots=True)
class _Split:
    """The k-free facts of a split of n into b blocks of sizes m_l."""

    blocks: int
    near_equal: bool  # the sizes permute the floor/ceil split of n
    size_counts: tuple[tuple[int, int], ...]  # (distinct size, count) pairs
    inv_root_b: Interval  # 1 / sqrt(b)
    # the gap bound's tilt = 1 - sum_l sqrt(m_l) / sqrt(b n) and
    # slope = sum_l (n - m_l) / sqrt(m_l) / (2 (n - 1) sqrt(b n));
    # None for one block, whose gap bound is 0
    tilt: Interval | None
    slope: Interval | None


@lru_cache(maxsize=None)
def _split(n: int, sizes: tuple[int, ...], bits: int) -> _Split:
    size_counts = tuple(Counter(sizes).items())
    blocks = len(sizes)
    low = n // blocks  # near-equal sizes lie in {low, low + 1}
    tilt = slope = None
    if blocks > 1:
        root_bn = Interval.sqrt(blocks * n, bits)
        sum_roots = sum_ratio = Interval.exact(0, bits)
        for m, count in size_counts:
            root = Interval.sqrt(m, bits)
            sum_roots += count * root
            sum_ratio += Interval.exact(count * (n - m), bits) / root
        tilt = (root_bn - sum_roots) / root_bn
        slope = sum_ratio / (2 * (n - 1) * root_bn)
    return _Split(blocks, low <= min(sizes) and max(sizes) <= low + 1, size_counts,
                  1 / Interval.sqrt(blocks, bits), tilt, slope)


def _sandwich(split: _Split, n: int, k: int, bits: int) -> tuple:
    """The sandwich of k zeros among the n positions of `split` at `bits`,
    as integer ends: the one arithmetic behind B, the gap bound and every
    sandwich certificate.

    Returns (a_lo, a_hi, b_lo, b_hi, gap_lo, gap_hi, bound, pass_lower,
    pass_upper, pass_gap): A = sqrt(n - k), the average B, gap = A - B,
    the gap bound's (lo, hi) ends or None when k = n, and the three
    certificates (pass_upper None off near-equal sizes, pass_gap None
    when k = n).  Products round outward as `Interval.__mul__` does.
    """
    root = _root(n - k, bits)
    a_lo, a_hi = root.lo, root.hi
    if k == n or split.blocks == 1 or (k == 0 and len(split.size_counts) == 1):
        # B = sqrt(n - k) identically: every block count is constant, so
        # the gap and its bound are 0 (the bound is undefined at k = n)
        b_lo, b_hi, gap_lo, gap_hi, lower = a_lo, a_hi, 0, 0, True
        bound, gap_ok = (None, None) if k == n else ((0, 0), True)
    else:
        lo = hi = 0
        for m, count in split.size_counts:
            mean = _mean_sqrt(n, n - k, m, bits)
            lo += count * mean.lo
            hi += count * mean.hi
        inv = split.inv_root_b
        b_lo, b_hi = _product(lo, hi, inv.lo, inv.hi, bits)
        gap_lo, gap_hi = a_lo - b_hi, a_hi - b_lo
        lower = b_hi < a_lo
        # sqrt(n - k) * (tilt + k * slope / (n - k)): the Jensen steps
        # sqrt(n - k) * tilt and k * slope / sqrt(n - k), the sum rounded
        # outward in one step
        tilt, slope = split.tilt, split.slope
        lo, hi = tilt.lo, tilt.hi
        if k:
            lo += slope.lo * k // (n - k)
            hi -= -slope.hi * k // (n - k)
        bound = _product(a_lo, a_hi, lo, hi, bits)
        gap_ok = k == 0 or gap_hi < bound[0]  # at k = 0 the bound is the gap itself
    upper = gap_hi < split.blocks << bits if split.near_equal else None  # A <= B + b
    return a_lo, a_hi, b_lo, b_hi, gap_lo, gap_hi, bound, lower, upper, gap_ok


def _all_passed(pass_lower: bool, pass_upper: bool | None, pass_gap: bool | None) -> bool:
    """The lower certificate passes and neither other one fails (None: it
    does not apply)."""
    return pass_lower and pass_upper is not False and pass_gap is not False


def _certified(ends: tuple, bits: int) -> bool:
    """Every certificate of `_sandwich`'s `ends` passes or does not apply,
    and A, B, the gap and the bound are each settled (`Interval.settled`)."""
    a_lo, a_hi, b_lo, b_hi, gap_lo, gap_hi, bound, lower, upper, gap_ok = ends
    scale = 1 << bits
    bound_lo, bound_hi = (0, 0) if bound is None else bound
    return (_all_passed(lower, upper, gap_ok) and a_lo / scale == a_hi / scale
            and b_lo / scale == b_hi / scale and gap_lo / scale == gap_hi / scale
            and bound_lo / scale == bound_hi / scale)


def _case(n: int, sizes: tuple[int, ...], k: int, bits: int) -> tuple[tuple, int]:
    """(`_sandwich`'s ends, their bits) for k zeros among n positions split
    into `sizes`, refined from `bits` until `_certified`: the one driver
    behind sandwich_check, sandwich_rows, block_average_B and gap_bound."""
    def step(at):
        ends = _sandwich(_split(n, sizes, at), n, k, at)
        return (ends, at), _certified(ends, at)
    return refine(step, bits)


@dataclass(frozen=True, slots=True)
class SandwichReport:
    """Certified comparison of sqrt(n - k) against the partition average."""

    spec: BlockPartitionSpec
    precision: int
    sqrt_total: Interval  # sqrt(n - k)
    block_average: Interval  # the average B
    gap: Interval  # sqrt_total - block_average
    gap_bound: Interval | None  # None when k = n
    near_equal: bool
    pass_lower: bool
    pass_upper: bool | None
    pass_gap: bool | None

    @property
    def all_passed(self) -> bool:
        return _all_passed(self.pass_lower, self.pass_upper, self.pass_gap)


def sandwich_check(spec: BlockPartitionSpec,
                   precision: int = DEFAULT_PRECISION) -> SandwichReport:
    """Certify B <= sqrt(n - k), the gap bound, and (for near-equal
    sizes) sqrt(n - k) <= B + b, each by strict separation or by a
    structural equality."""
    precision = _check_precision(precision)
    n, k, sizes = spec.n, spec.k, spec.sizes
    ends, bits = _case(n, sizes, k, working_bits(precision))
    a_lo, a_hi, b_lo, b_hi, gap_lo, gap_hi, bound, lower, upper, gap_ok = ends
    return SandwichReport(spec, precision, Interval(a_lo, a_hi, bits), Interval(b_lo, b_hi, bits),
                          Interval(gap_lo, gap_hi, bits),
                          None if bound is None else Interval(*bound, bits),
                          _split(n, sizes, bits).near_equal, lower, upper, gap_ok)


def block_average_B(spec: BlockPartitionSpec, precision: int = DEFAULT_PRECISION) -> Interval:
    """The partition average (1/sqrt(b)) * sum_l E[sqrt(X_l)], enclosed:
    `sandwich_check`'s `block_average`."""
    return sandwich_check(spec, precision).block_average


def gap_bound(spec: BlockPartitionSpec, precision: int = DEFAULT_PRECISION) -> Interval | None:
    """`sandwich_check`'s certified upper bound on sqrt(n - k) - B from two
    Jensen steps; None when k = n, where both sides vanish."""
    return sandwich_check(spec, precision).gap_bound


def sandwich_rows(n: int, sizes, ks, precision: int = DEFAULT_PRECISION):
    """For each k in `ks`, `sandwich_check`'s certificate of k zeros among
    n positions split into blocks `sizes`, as the row (n, k, label, A, B,
    gap, gap_bound, pass_lower, pass_upper, pass_gap): label is the
    dash-joined sizes, each number the float of its enclosure (gap_bound
    None when k = n).  The sizes and the precision are checked once."""
    n, sizes = _check_split(n, sizes)
    precision = _check_precision(precision)
    label = "-".join(map(str, sizes))
    start = working_bits(precision)
    for k in ks:
        k = _check_k(n, k)
        ends, bits = _case(n, sizes, k, start)
        a_lo, a_hi, b_lo, b_hi, gap_lo, gap_hi, bound, lower, upper, gap_ok = ends
        scale = 2 << bits  # float(Interval) is (lo + hi) / 2^(bits + 1)
        yield (n, k, label, (a_lo + a_hi) / scale, (b_lo + b_hi) / scale,
               (gap_lo + gap_hi) / scale,
               None if bound is None else (bound[0] + bound[1]) / scale,
               lower, upper, gap_ok)


@dataclass(frozen=True)
class JensenBounds:
    """Two-sided enclosure of E[sqrt(X)] for X >= 0."""

    lower: Interval
    upper: Interval
    mean_sqrt: Interval


def _over_common_denominator(numbers) -> tuple[list[int], int]:
    """Integer numerators over one common positive denominator, read from finite
    ints, floats, Fractions and numpy integer or float scalars; else InputError."""
    pairs = []
    for x in numbers:
        if type(x) not in (int, float, Fraction):
            if not isinstance(x, (np.integer, np.floating)):
                raise InputError(f"{x!r} is not an int, float, Fraction or numpy number")
            x = int(x) if isinstance(x, np.integer) else x
        try:
            pairs.append(x.as_integer_ratio())
        except (ValueError, OverflowError):  # NaN, infinities
            raise InputError(f"{x!r} is not finite") from None
    common = lcm(*(d for _, d in pairs))
    return [n * (common // d) for n, d in pairs], common


def jensen_bounds(values, probs, precision: int = DEFAULT_PRECISION) -> JensenBounds:
    """Enclose E[sqrt(X)] between sqrt(E[X]) - Var(X) / (2 E[X]^{3/2})
    and sqrt(E[X]).

    The distribution of X is given by parallel `values` / `probs`
    sequences of finite ints, floats, Fractions or numpy numbers, read exactly.
    X must be nonnegative with positive mean; for an affine image
    a X + c, pass the values a x + c.  The exact mean of sqrt(X) is
    computed alongside, and the enclosure is certified by strict
    separation before returning.
    """
    precision = _check_precision(precision)
    values = list(values)
    probs = list(probs)
    if len(values) != len(probs) or not values:
        raise InputError("need matching nonempty values/probs sequences")
    weights, weight_den = _over_common_denominator(probs)
    if min(weights) < 0:
        raise InputError("probabilities must be nonnegative")
    total = sum(weights)
    if abs(total - weight_den) * 10**9 > weight_den:
        raise InputError("probabilities must sum to 1")
    # P[X = x_i] = weights[i] / total: dividing by the total absorbs
    # float-level normalisation drift.  x_i = xs[i] / x_den exactly.
    xs, x_den = _over_common_denominator(values)
    if min(xs) < 0:
        raise InputError("values must be nonnegative")
    # E[X] = first / den and Var(X) = spread / den^2
    den = total * x_den
    first = sum(map(mul, weights, xs))
    if first <= 0:
        raise DegenerateInputError("E[X] must be positive")
    spread = total * sum(map(mul, weights, map(mul, xs, xs))) - first * first

    def enclose(bits):
        root = Interval.exact(first * den, bits).root()
        upper = root / den  # sqrt(E[X])
        if spread == 0:
            return JensenBounds(upper, upper, upper), upper.settled
        # sqrt(E[X]) - Var(X) / (2 E[X]^{3/2}) = (2 first^2 - spread) / (2 first root),
        # exactly 0 when E[X^2] = 3 E[X]^2
        lower = Interval.exact(2 * first * first - spread, bits) / (root * (2 * first))
        mean_sqrt = sqrt_sum(zip(weights, (x * x_den for x in xs)), bits) / den
        bounds = JensenBounds(lower, upper, mean_sqrt)
        return bounds, (lower < mean_sqrt < upper and lower.settled and upper.settled
                        and mean_sqrt.settled)

    bounds = refine(enclose, working_bits(precision))
    if spread and not bounds.lower < bounds.mean_sqrt < bounds.upper:
        raise VerificationError(
            f"E[sqrt(X)] = {float(bounds.mean_sqrt)!r} is not certified inside "
            f"[{float(bounds.lower)!r}, {float(bounds.upper)!r}]")
    return bounds


def _shuffle_table(ones: int, sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every placement of `ones` ones among n = sum(sizes) positions, as the
    ascending n-bit words with that popcount (bit t is position t, block l
    the next sizes[l] bits), and each one's block average
    (1 / sqrt(b)) sum_l sqrt(ones in block l), summed in block order.
    A uniform shuffle is one uniform pick of a word (TAOCP 4A, 7.2.1.3)."""
    n = sum(sizes)
    words = np.flatnonzero(popcount_table(n) == ones)
    roots = _moment_weights(n, 0.5)
    total = np.zeros(len(words), dtype=np.float64)
    start = 0
    for m in sizes:
        total += roots[np.bitwise_count(words & (((1 << m) - 1) << start))]
        start += m
    return words, total / np.sqrt(float(len(sizes)))


def _picks(rng, size: int, table: np.ndarray) -> np.ndarray:
    """`size` exactly uniform picks from `table`, one index each."""
    return table[rng.integers(0, len(table), size)]


def mc_partition_average(y, sizes, trials: int, seed: int = 0,
                         workers: int | None = None):
    """Shuffle-based estimate of the partition average of a fixed 0/1
    sequence of at most EXACT_CAP positions, for cross-checking the exact
    hypergeometric route."""
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or not np.isin(y, (0, 1)).all():
        raise InputError("population must be a 1-D 0/1 sequence")
    _check_n(len(y))
    _, table = _shuffle_table(int(y.sum()), _check_split(len(y), sizes)[1])
    # a trial holds an int64 index and its value; the table, fixed per call,
    # is C(n, ones) float64 values: 103 KB at n = 16, 21.6 MB at n = 24
    values = mc_values(trials, seed, workers, partial(_picks, table=table), 8 + 8)
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


def _block_values(f: TruthTable, sizes: tuple[int, ...], rng, size: int) -> np.ndarray:
    """One chunk of bsa_block_bound: per trial the right side's block sum
    over one uniform ordered partition into `sizes`, divided by sqrt(b)."""
    offsets = np.cumsum((0,) + sizes[:-1])
    roots = _moment_weights(f.n, 0.5)
    segment = max(1, _CELL_BUDGET >> max(sizes))  # rows per (rows, 2^m) index array
    perms = rng.permuted(np.tile(np.arange(f.n, dtype=np.int64), (size, 1)), axis=1)
    outside = rng.integers(0, 1 << f.n, size=(size, len(sizes)), dtype=np.int64)
    total = np.zeros(size, dtype=np.float64)
    for start in range(0, size, segment):
        rows = slice(start, min(start + segment, size))
        for l, m_l in enumerate(sizes):
            positions = perms[rows, offsets[l]:offsets[l] + m_l]  # (seg, m_l)
            sub = _subset_sums(positions)  # (seg, 2^m_l); the last column is the block mask
            idx = (outside[rows, l] & ~sub[:, -1])[:, None] + sub
            sens, _ = sensitivities(f.values[idx])
            total[rows] += roots[sens].mean(axis=1)
    return total / np.sqrt(float(len(sizes)))


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
    sizes = near_equal_sizes(f.n, blocks)
    # the tiled and the permuted (trials, n) int64 arrays, the completions
    # and the totals; the sub-table indices are bounded per segment
    values = mc_values(trials, seed, workers, partial(_block_values, f, sizes),
                       8 * (2 * f.n + blocks + 2))
    est, err = mean_and_stderr(values)
    lhs = bsa(f)
    margin = est + blocks + 4.0 * err - lhs
    passed = margin >= 0.0
    report = BlockBoundReport(lhs, est, err, len(sizes), sizes, len(values), margin, passed)
    if not passed:
        raise VerificationError(
            f"block bound failed: {lhs} > {est} + {blocks} + 4*{err}")
    return report
