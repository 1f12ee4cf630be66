"""Random restrictions and how functions collapse under them.

A restriction fixes a random subset of coordinates to random signs and
leaves the rest free.  Restricting a threshold function usually leaves
it close to a constant; the routines here measure that collapse exactly
(on small tables) and by Monte Carlo (through the polynomial), and
verify the tail/coupling inequalities that convert "close to constant"
into sensitivity statements.

Monte Carlo trials build no Restriction objects.  restriction_failure_prob
draws a chunk's patterns as one (trials, n) array and groups the trials by
their free count f.  For each batch of a group it computes every row's
signed coefficients and free-bit-compressed term masks as (rows, terms)
arrays, and ptf.eval_on_cube evaluates the whole stack, its terms
uncollected, on the rows' free cubes.  Each row's closeness to a constant
is read from its +1 count, with the signs of sign_table (ptf._exact_signs
decides those within ptf._rounding_radius of zero).  A batch holds at most
core._CELL_BUDGET = 2^16 cells in either array, the one budget every
batched computation shares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import nan

import numpy as np

from .core import (_CELL_BUDGET, EXACT_CAP, TruthTable, _check_n, _pack_bits, _subset_sums,
                   _unpack_bits, all_function_words, gather_bits, minus_mask, scatter_bits,
                   sensitivity_histogram)
from .errors import InputError, VerificationError, _exact_int
from .ptf import SparsePolynomial, _characters, _exact_signs, _rounding_radius, eval_on_cube
from .seeding import mc_values, substream

RATE_GUIDELINE = 1.0 / 16.0


class Restriction:
    """Partial assignment on n coordinates: +1 or -1 fixed, 0 free."""

    __slots__ = ("n", "pattern", "_free", "_base")

    def __init__(self, pattern):
        try:
            flat = np.ndim(pattern) == 1
        except ValueError:  # a ragged nesting such as [[1], [1, 0]]
            flat = False
        if not flat:
            raise InputError("restriction pattern must be one-dimensional")
        # each entry by the integer rule: an int8 cast would truncate 0.5 to
        # 0 (free) and read True as 1
        entries = [_exact_int(v, "pattern entry") for v in pattern]
        if not {-1, 0, 1}.issuperset(entries):
            raise InputError("pattern entries must be -1, 0, or +1")
        arr = np.array(entries, dtype=np.int8)
        arr.flags.writeable = False
        free = np.flatnonzero(arr == 0)
        free.flags.writeable = False
        self.n = arr.shape[0]
        self.pattern = arr
        self._free = free
        self._base = minus_mask(arr)

    @classmethod
    def from_string(cls, text: str) -> "Restriction":
        """Compact form: '+' fixed to +1, '-' fixed to -1, '*' free."""
        table = {"+": 1, "-": -1, "*": 0}
        try:
            return cls([table[ch] for ch in text])
        except KeyError as exc:
            raise InputError(f"bad restriction character {exc.args[0]!r}")

    def free_indices(self) -> np.ndarray:
        """Free coordinates in increasing order, read-only."""
        return self._free

    @property
    def free_count(self) -> int:
        return len(self._free)

    def fixed_base_index(self) -> int:
        """Point-index bits contributed by coordinates fixed to -1."""
        return self._base

    def __repr__(self):
        chars = {1: "+", -1: "-", 0: "*"}
        return f"Restriction({''.join(chars[int(v)] for v in self.pattern)!r})"


def sample_restriction(n: int, rate: float, seed: int = 0) -> Restriction:
    """Leave each coordinate free independently with probability `rate`,
    otherwise fix it to a uniform sign."""
    return Restriction(_sample_patterns(n, rate, substream(seed, 0), 1)[0])


def _open_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise InputError(f"{name} must lie strictly in (0, 1), got {value}")
    return value


def _sample_patterns(n: int, rate: float, rng, count: int) -> np.ndarray:
    """(count, n) int8 restriction patterns, one per row: each entry 0
    (free) with probability `rate`, otherwise a uniform sign."""
    n = _exact_int(n, "variable count")
    if n < 1:
        raise InputError("restrictions need n >= 1")
    rate = _open_unit("free-rate", rate)
    free = rng.random((count, n)) < rate
    signs = 1 - 2 * rng.integers(0, 2, size=(count, n), dtype=np.int8)
    return np.where(free, 0, signs)


def restrict_table(f: TruthTable, rho: Restriction) -> TruthTable:
    """Sub-table on the free coordinates, renumbered in increasing order."""
    if rho.n != f.n:
        raise InputError(f"restriction is on {rho.n} variables, table on {f.n}")
    ell = _check_n(rho.free_count)
    idx = _subset_sums(rho.free_indices()) | rho.fixed_base_index()
    return TruthTable(ell, f.values[idx])


def closeness_to_constant(f: TruthTable) -> tuple[float, int]:
    """Smallest disagreement fraction with a constant, and that constant.

    Returns (delta, sign) with delta = min_a Pr[f != a]; ties between the
    two constants resolve to +1.  Always delta <= 1/2.
    """
    delta, sign = _closeness(int((f.values == 1).sum()), 1 << f.n)
    return float(delta), int(sign)


def _closeness(plus, size):
    """(min_a Pr[f != a], a) from the number `plus` of +1 values among
    `size` signs; elementwise on arrays, ties resolve to +1."""
    minus = size - plus
    return np.minimum(plus, minus) / size, np.where(minus <= plus, 1, -1)


def _plus_counts(p: SparsePolynomial, patterns: np.ndarray, f: int, radius: float) -> np.ndarray:
    """The exact +1 count of p restricted by each row of `patterns` (each leaves
    exactly f coordinates free); sign_table(restrict_poly(p, rho)) agrees whenever
    every combined coefficient is exact (README has a case where one is not).  The
    rows' terms go to eval_on_cube as one uncollected stack, so every value lies
    within radius = _rounding_radius(p)."""
    rows = len(patterns)
    base = _pack_bits(patterns == -1)  # each row's -1 mask
    signed = _characters(p, base[:, None]) * p.coefs  # (rows, terms)
    # each term's mask bits at the row's free coordinates
    free = np.nonzero(patterns == 0)[1].astype(np.uint64).reshape(rows, f)
    blocks = eval_on_cube(gather_bits(p.masks, free[:, None]), signed, f)

    def points(at):  # the row's -1 mask, the cell's bits at the row's free coordinates
        row = at >> f
        return base[row] | scatter_bits(at & (1 << f) - 1, free[row])

    signs, _ = _exact_signs(p, blocks, rows << f, radius, points)
    return (signs.reshape(rows, 1 << f).sum(axis=-1) + (1 << f)) >> 1  # sum = plus - minus


def _trial_values(p: SparsePolynomial, rate: float, delta: float, max_free: int,
                  radius: float, rng, size: int) -> np.ndarray:
    """One chunk of restriction_failure_prob: per trial 1.0 far from
    constant, 0.0 close, NaN rejected (more than max_free free)."""
    patterns = _sample_patterns(p.n, rate, rng, size)
    counts = np.count_nonzero(patterns == 0, axis=1)
    values = np.full(size, nan)
    for f in np.unique(counts[counts <= max_free]).tolist():
        group = np.flatnonzero(counts == f)
        step = max(1, _CELL_BUDGET // max(len(p.masks), 1 << f))
        for start in range(0, len(group), step):
            rows = group[start:start + step]
            plus = _plus_counts(p, patterns[rows], f, radius)
            values[rows] = _closeness(plus, 1 << f)[0] > delta
    return values


@dataclass(frozen=True)
class FailureProbEstimate:
    """Share of sampled restrictions leaving the sign function far from constant."""

    estimate: float
    stderr: float
    rejection_rate: float
    trials: int
    rejected: int


def restriction_failure_prob(p: SparsePolynomial, rate: float, delta: float,
                             trials: int, seed: int = 0, workers: int | None = None,
                             max_free: int = EXACT_CAP) -> FailureProbEstimate:
    """Probability that sign(p) restricted by a random restriction stays
    farther than `delta` from every constant.

    Samples restrictions with free-rate `rate`, restricts the polynomial,
    signs it over the free cube, and tests delta-closeness exactly, in
    batches (see the module docstring).
    Samples with more than `max_free` free coordinates are rejected and
    reported through `rejection_rate` (the estimate conditions on
    acceptance).  Rates or deltas above 1/16 are allowed but draw a
    warning, issued once every input has passed its checks, since the
    collapse guarantees degrade quickly there.
    """
    rate = _open_unit("free-rate", rate)
    delta = _open_unit("delta", delta)
    max_free = _exact_int(max_free, "max_free")
    if not 1 <= max_free <= EXACT_CAP:
        raise InputError(f"max_free must lie in 1..{EXACT_CAP}")

    draw = partial(_trial_values, p, rate, delta, max_free, _rounding_radius(p))
    # the (trials, n) float64 draw and its mask while patterns are sampled,
    # then the int8 patterns plus per-trial counts, group indices and values;
    # the batches are bounded by the cell budget
    trial_bytes = 9 * p.n + 32
    values = mc_values(trials, seed, workers, draw, trial_bytes)  # checks trials, workers, seed
    trials = len(values)
    if rate > RATE_GUIDELINE or delta > RATE_GUIDELINE:
        warnings.warn(
            f"rate={rate} delta={delta}: values above {RATE_GUIDELINE} are outside the "
            "regime where restriction collapse is guaranteed",
            stacklevel=2)
    accepted = int(np.count_nonzero(~np.isnan(values)))
    rejected = trials - accepted
    if accepted == 0:
        return FailureProbEstimate(nan, nan, 1.0, trials, rejected)
    est = int(np.count_nonzero(values == 1.0)) / accepted
    stderr = float(np.sqrt(est * (1.0 - est) / accepted))
    return FailureProbEstimate(est, stderr, rejected / trials, trials, rejected)


@dataclass(frozen=True)
class TailReport:
    """Exact tail mass at level m and its coupling certificate.

    p_e is Pr[s >= m].  coupling_lb is E[(1 - (1 - 1/m)^s) 1{s >= m}],
    the success probability of m coordinate resamplings coupled to hit a
    sensitive direction; it always sits between
    (1 - (1 - 1/m)^m) p_e >= (1 - 1/e) p_e and p_e itself.
    bound_ratio is coupling_lb / p_e (None when the tail is empty).
    """

    m: int
    p_e: Fraction
    coupling_lb: Fraction
    bound_ratio: Fraction | None
    floor: Fraction


def tail_coupling_check(f: TruthTable, m: int) -> TailReport:
    """Exact rational tail/coupling quantities at level m, with the
    sandwich floor <= coupling_lb / p_e <= 1 checked en route."""
    m = _exact_int(m, "level m")
    if f.n < 1:
        raise InputError("tail levels need a function on n >= 1 variables")
    if not 1 <= m <= f.n:
        raise InputError(f"level m must lie in 1..{f.n}, got {m}")
    profile = f.profile()
    counts, points = profile.counts, profile.points
    p_e = Fraction(profile.count_ge(m), points)
    keep = 1 - Fraction(1, m)
    coupling = Fraction(0)
    for s in range(m, f.n + 1):
        c = int(counts[s])
        if c:
            coupling += c * (1 - keep ** s)
    coupling /= points
    floor = 1 - keep ** m
    if not floor * p_e <= coupling <= p_e:
        raise VerificationError(
            f"coupling mass {coupling} escaped [{floor * p_e}, {p_e}] at level {m}")
    ratio = coupling / p_e if p_e else None
    return TailReport(m, p_e, coupling, ratio, floor)


@dataclass(frozen=True)
class SensitiveFractionReport:
    """Exhaustive audit of Pr[s >= 1] <= (ell + 1) * closeness over all
    functions on ell variables."""

    ell: int
    functions_checked: int
    violations: int
    max_ratio: float
    witness: TruthTable | None


def sensitive_fraction_bound_exhaustive(ell: int) -> SensitiveFractionReport:
    """Check, for every function on ell variables, that the fraction of
    sensitive points is at most (ell + 1) times the distance to the
    nearest constant.  Vectorised over all 2^(2^ell) functions."""
    words = all_function_words(ell)
    ell = int(ell)
    nfuncs, size = len(words), 1 << ell
    sensitive = size - sensitivity_histogram(words, ell)[0][:, 0]  # points with s >= 1
    ones = np.bitwise_count(words[:, 0]).astype(np.int64)
    miscount = np.minimum(ones, size - ones)  # 2^ell * closeness
    allowed = (ell + 1) * miscount
    violations = int((sensitive > allowed).sum())
    nontrivial = miscount > 0
    ratios = sensitive[nontrivial] / allowed[nontrivial]
    if ratios.size:
        arg = int(np.flatnonzero(nontrivial)[int(ratios.argmax())])
        witness = TruthTable(ell, 1 - 2 * _unpack_bits(words[arg, 0], size))
        max_ratio = float(ratios.max())
    else:
        witness = None
        max_ratio = 0.0
    return SensitiveFractionReport(ell, nfuncs, violations, max_ratio, witness)
