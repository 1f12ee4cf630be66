"""Exact analysis of Boolean functions on the signed hypercube.

A function f: {-1,+1}^n -> {-1,+1} is stored as its full table of 2^n
signs.  Bit i of the table index is 0 where coordinate i equals +1 and 1
where it equals -1, so ``x ^ (1 << i)`` is the neighbour of ``x`` across
coordinate i.

The pointwise sensitivity s(x) counts coordinates whose flip changes f
at x.  Everything downstream is a moment of the sensitivity histogram:
average sensitivity (total influence) is E[s], Boolean surface area is
E[sqrt(s)], and the general fractional moment is E[s^alpha].  One
kernel, ``sensitivities``, scans a batch of tables in O(n 2^n) per table
and returns s at every point plus the per-axis disagreeing-pair counts
(the per-coordinate influences); every histogram and audit uses it.
Moments are dot products against cached weight tables, so quantities
related by "same summation" claims (surface area vs the alpha = 1/2
moment, influence vs the alpha = 1 moment) are bit-for-bit identical.

Tables are capped at EXACT_CAP variables and the all-functions audits at
EXHAUSTIVE_CAP; anything larger goes through the Monte Carlo paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InputError
from .seeding import substream

EXACT_CAP = 24
EXHAUSTIVE_CAP = 4


@lru_cache(maxsize=None)
def popcount_table(n: int) -> np.ndarray:
    """Popcount of every index in [0, 2^n), as a read-only uint8 array."""
    table = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.uint8)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _moment_weights(n: int, alpha: float) -> np.ndarray:
    weights = np.arange(n + 1, dtype=np.float64) ** alpha
    weights.flags.writeable = False
    return weights


def _check_n(n: int) -> int:
    n = int(n)
    if n < 0:
        raise InputError(f"variable count must be >= 0, got {n}")
    if n > EXACT_CAP:
        raise CapacityError(f"n={n} exceeds the exact-enumeration cap of {EXACT_CAP}")
    return n


def _check_index(value: int, n: int, what: str) -> int:
    """`value` as an int in [0, 2^n): a point index or a subset mask on n variables."""
    value = int(value)
    if not 0 <= value < 1 << n:
        raise InputError(f"{what} {value} out of range for n={n}")
    return value


def to_signs(values) -> np.ndarray:
    """int8 +1/-1 by the sign of each value; sign(0) = +1."""
    return np.where(np.asarray(values) >= 0, np.int8(1), np.int8(-1))


def _parity(masks, points) -> np.ndarray:
    """|S & x| mod 2, for subset masks S and point indices x broadcast together."""
    return np.bitwise_count(masks & points) & 1


def spread_bits(sub, positions) -> np.ndarray:
    """int64 indices with bit j of each sub-cube index `sub` moved to bit
    positions[..., j]; the shape is that of `sub` and positions[..., 0]
    broadcast together."""
    sub = np.asarray(sub, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    out = np.zeros(np.broadcast_shapes(sub.shape, positions.shape[:-1]), dtype=np.int64)
    for j in range(positions.shape[-1]):
        out |= (sub >> j & 1) << positions[..., j]
    return out


# walsh_hadamard works on blocks of 2^16 float64 entries (512 KiB), rows for
# the low stages and strips of columns for the high ones: with their
# temporaries they stay inside a 2 MiB L2 cache.
_BLOCK_BITS = 16
# Cells one batch of stacked work (restriction trials, block-bound index
# temporaries) may hold in any of its arrays: the transform's block, so a
# batch and its temporaries stay in cache too.  At 2^20 the stacked
# transform streams from memory, and restriction trials on
# rands:d=3,n=40,terms=60 at rate 1/4 ran slower than one at a time.
_CELL_BUDGET = 1 << _BLOCK_BITS
# Below 2^10 entries the transposed copy of a row costs more than it saves.
_SPLIT_BITS = 10


def _butterflies(x: np.ndarray, stages: int) -> None:
    """Radix-2 stages 0..stages-1 along axis 0 of x, shape (2^stages, w), in place.

    Stages run in pairs as radix-4 butterflies; an odd last stage runs alone.
    x may be a strided view; every reshape here splits axis 0 only, so it
    stays a view of x.
    """
    h = 1
    w = x.shape[1]
    for _ in range(stages >> 1):
        v = x.reshape(-1, 4, h, w)
        a = v[:, 0]
        b = v[:, 1]
        c = v[:, 2]
        d = v[:, 3]
        s = a + b
        t = a - b
        u = c + d
        e = c - d
        a[...] = s + u
        b[...] = t + e
        c[...] = s - u
        d[...] = t - e
        h <<= 2
    if stages & 1:
        v = x.reshape(2, h, w)
        a = v[0]
        b = v[1]
        s = a + b
        b[...] = a - b
        a[...] = s


def walsh_hadamard(vec: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform, in place on a float64 copy.

    Self-inverse up to a factor of len(vec).  The kernel is
    (-1)^popcount(S & x) under the index encoding above, which matches
    evaluating multilinear monomials at sign vectors.

    Stage i replaces each pair (y[x], y[x + 2^i]), bit i of x clear, by
    (sum, difference); stages run in the order i = 0, 1, ..., n - 1.
    Rather than sweep the whole table once per stage, the stages are
    cache-blocked (as in FFTW; Frigo & Johnson, Proc. IEEE 2005):

    - the low min(n, 16) stages only pair entries inside one contiguous
      row of 2^16, so they run a row at a time while it sits in cache;
      the lower half of them runs on a transposed copy of the row, so
      each butterfly spans contiguous runs of 2^8 entries in a full row
      rather than 1, 4, 16, ...;
    - the high stages only pair entries in the same column of the
      (rows, 2^16) matrix, so they run one strip of columns, again 2^16
      entries, at a time;
    - stages run in pairs as radix-4 butterflies, so every temporary is
      bounded by a row or a strip, not by the table.

    The result equals the plain radix-2 loop bit for bit.  A fused pair
    computes (a+b)+(c+d), (a-b)+(c-d), (a+b)-(c+d) and (a-b)-(c-d): the
    same IEEE operations on the same operands as two radix-2 stages.
    Each output depends only on its own chain of butterflies, so the
    order in which rows, strips and blocks are visited changes no bit;
    only the stage order matters, and it is kept.

    A stack of shape (..., 2^n) with more than one row, and a single
    table of under 2^10 entries (a stack of one row, where the transposed
    copy costs more than it saves), is transformed along its last axis:
    the rows are copied once into the columns of a (2^n, rows) array,
    whose stages then run over every row together, so each row equals
    its own transform bit for bit.  The result has the input's shape.
    """
    vec = np.asarray(vec)
    size = vec.shape[-1]
    if size == 0 or size & (size - 1):
        raise InputError(f"length must be a power of two, got {size}")
    n = size.bit_length() - 1
    if vec.size != size or n < _SPLIT_BITS:
        stack = np.array(vec.reshape(-1, size).T, dtype=np.float64, order="C")
        _butterflies(stack, n)
        return np.ascontiguousarray(stack.T).reshape(vec.shape)
    out = np.array(vec, dtype=np.float64, copy=True)
    low = min(n, _BLOCK_BITS)
    half = low >> 1
    rows = out.reshape(-1, 1 << low)
    for row in rows:
        square = row.reshape(-1, 1 << half)
        flipped = square.T.copy()
        _butterflies(flipped, half)
        square[...] = flipped.T
        _butterflies(square, low - half)
    if n > low:
        width = 1 << max(_BLOCK_BITS - (n - low), 0)
        for j in range(0, rows.shape[1], width):
            _butterflies(rows[:, j:j + width], n - low)
    return out


@dataclass(frozen=True)
class SensitivityProfile:
    """Histogram of pointwise sensitivity: counts[m] points have s(x) = m."""

    n: int
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (self.n + 1,):
            raise InputError("profile needs exactly n + 1 buckets")
        if (counts < 0).any() or int(counts.sum()) != 1 << self.n:
            raise InputError("profile buckets must be nonnegative and sum to 2^n")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def points(self) -> int:
        return 1 << self.n

    def count_ge(self, m: int) -> int:
        """Number of points with sensitivity >= m."""
        if m <= 0:
            return self.points
        if m > self.n:
            return 0
        return int(self.counts[m:].sum())

    def moment(self, alpha: float) -> float:
        """E[s^alpha] over a uniform point."""
        return float(self.counts @ _moment_weights(self.n, float(alpha))) / self.points

    def bsa(self) -> float:
        return self.moment(0.5)


class TruthTable:
    """Dense sign table of a Boolean function on n <= EXACT_CAP variables."""

    __slots__ = ("n", "values", "_profile", "_edges", "_spectrum")

    def __init__(self, n: int, values):
        n = _check_n(n)
        arr = np.asarray(values)
        if arr.shape != (1 << n,):
            raise InputError(f"need exactly 2^{n} values, got shape {arr.shape}")
        # check the given values, not their int8 cast, which wraps 255 to -1
        # and truncates 1.5 to 1
        if np.count_nonzero(arr == 1) + np.count_nonzero(arr == -1) != arr.size:
            raise InputError("table entries must be +1 or -1")
        arr = arr.astype(np.int8)
        arr.flags.writeable = False
        self.n = n
        self.values = arr
        self._profile = None
        self._edges = None
        self._spectrum = None

    def __eq__(self, other):
        return (
            isinstance(other, TruthTable)
            and self.n == other.n
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.n, self.values.tobytes()))

    def __repr__(self):
        return f"TruthTable(n={self.n}, plus={int((self.values == 1).sum())}/{1 << self.n})"

    @classmethod
    def constant(cls, n: int, sign: int = 1) -> "TruthTable":
        if sign not in (-1, 1):
            raise InputError("sign must be +1 or -1")
        return cls(n, np.full(1 << _check_n(n), sign, dtype=np.int8))

    @classmethod
    def dictator(cls, n: int, i: int = 0) -> "TruthTable":
        """f(x) = x_{i+1}: +1 where bit i of the index is clear."""
        n = _check_n(n)
        if not 0 <= i < n:
            raise InputError(f"coordinate {i} out of range for n={n}")
        return cls.parity(n, 1 << i)

    @classmethod
    def parity(cls, n: int, mask: int) -> "TruthTable":
        """Product of the coordinates in `mask` (a bitmask; 0 gives constant +1)."""
        n = _check_n(n)
        mask = _check_index(mask, n, "subset mask")
        return cls(n, np.where(_parity(np.arange(1 << n), mask), -1, 1).astype(np.int8))

    @classmethod
    def majority(cls, n: int) -> "TruthTable":
        """Sign of the coordinate sum; ties (even n) resolve to +1."""
        n = _check_n(n)
        if n < 1:
            raise InputError("majority needs n >= 1")
        # coordinate sum = n - 2 * (number of -1 coordinates) = n - 2 * popcount
        total = n - 2 * popcount_table(n).astype(np.int32)
        return cls(n, to_signs(total))

    @classmethod
    def random(cls, n: int, seed: int = 0) -> "TruthTable":
        n = _check_n(n)
        bits = substream(seed, 0).integers(0, 2, size=1 << n, dtype=np.int8)
        return cls(n, 1 - 2 * bits)

    def profile(self) -> SensitivityProfile:
        if self._profile is None:
            sens, self._edges = sensitivities(self.values)
            counts = np.bincount(sens, minlength=self.n + 1)
            self._profile = SensitivityProfile(self.n, counts)
        return self._profile

    def spectrum(self) -> "FourierSpectrum":
        if self._spectrum is None:
            coeffs = walsh_hadamard(self.values) / (1 << self.n)
            self._spectrum = FourierSpectrum(self.n, coeffs)
        return self._spectrum


def sensitivities(values) -> tuple[np.ndarray, np.ndarray]:
    """(s, edges) for tables along the last axis of `values` (..., 2^n).

    s is C-contiguous uint8 of the input's shape: s[..., x] counts the
    axes whose flip changes that table at x.  edges[i] counts the pairs
    {x, x ^ (1 << i)} that disagree, summed over every table.  The scan
    runs points-major (tables on the contiguous inner axis), which keeps
    batches of many small tables as fast as one large table.
    """
    values = np.asarray(values)
    size = values.shape[-1]
    if size == 0 or size & (size - 1):
        raise InputError(f"table length must be a power of two, got {size}")
    n = size.bit_length() - 1
    cols = np.ascontiguousarray(values.reshape(-1, size).T)  # (2^n, tables)
    sens = np.zeros(cols.shape, dtype=np.uint8)
    edges = np.empty(n, dtype=np.int64)
    for i in range(n):
        stride = (1 << i) * cols.shape[1]
        pairs = cols.reshape(-1, 2, stride)
        differs = pairs[:, 0, :] != pairs[:, 1, :]
        edges[i] = np.count_nonzero(differs)
        halves = sens.reshape(-1, 2, stride)
        halves[:, 0, :] += differs
        halves[:, 1, :] += differs
    return np.ascontiguousarray(sens.T).reshape(values.shape), edges


def all_functions(n: int) -> np.ndarray:
    """All 2^(2^n) functions on n >= 1 variables: row c of this 0/1 int8
    matrix has bit x of c at column x."""
    n = int(n)
    if n < 1:
        raise InputError("need n >= 1")
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(
            f"n={n} means 2^{1 << n} functions; the cap is n <= {EXHAUSTIVE_CAP}")
    size = 1 << n
    codes = np.arange(1 << size, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(size, dtype=np.uint32)[None, :]) & 1).astype(np.int8)


class FourierSpectrum:
    """Walsh coefficients indexed by subset bitmask."""

    __slots__ = ("n", "coefficients")

    def __init__(self, n: int, coefficients):
        n = _check_n(n)
        arr = np.asarray(coefficients, dtype=np.float64)
        if arr.shape != (1 << n,):
            raise InputError(f"need exactly 2^{n} coefficients")
        arr = arr.copy()
        arr.flags.writeable = False
        self.n = n
        self.coefficients = arr

    def parseval_sum(self) -> float:
        """Sum of squared coefficients; equals E[f^2] = 1 for Boolean f."""
        return float(self.coefficients @ self.coefficients)

    def inverse_values(self) -> np.ndarray:
        """Pointwise values of the represented function."""
        return walsh_hadamard(self.coefficients)

    def inverse_table(self) -> TruthTable:
        """Round the inverse back to signs; exact for spectra of sign tables."""
        return TruthTable(self.n, to_signs(self.inverse_values()))


class Influence(NamedTuple):
    total: float
    per_coordinate: np.ndarray


def sensitivity(f: TruthTable, x: int) -> int:
    """Number of coordinate flips that change f at point index x."""
    x = _check_index(x, f.n, "point index")
    return int(sum(f.values[x] != f.values[x ^ (1 << i)] for i in range(f.n)))


def bsa(f: TruthTable) -> float:
    """Boolean surface area E[sqrt(s(x))]."""
    return f.profile().bsa()


def fractional_moment(f: TruthTable, alpha: float) -> float:
    """E[s(x)^alpha] for 0 < alpha <= 1."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InputError(f"alpha must lie in (0, 1], got {alpha}")
    return f.profile().moment(alpha)


def bsa_via_tails(f: TruthTable) -> float:
    """Surface area through the tail sum over levels m of sqrt.

    E[sqrt(s)] = sum_{m>=1} (sqrt(m) - sqrt(m-1)) P[s >= m]; this is the
    summation-by-parts route and must agree with the histogram route.
    """
    profile = f.profile()
    counts = profile.counts
    tail = np.cumsum(counts[::-1])[::-1]  # tail[m] = #points with s >= m
    roots = _moment_weights(profile.n, 0.5)
    steps = roots[1:] - roots[:-1]
    return float(steps @ tail[1:]) / profile.points


def total_influence(f: TruthTable) -> Influence:
    """Average sensitivity, total and split by coordinate.

    total is the alpha = 1 moment of the sensitivity histogram; the
    per-coordinate values are the per-axis edge counts of the same scan,
    and their exact integer sums agree by the handshake count.
    """
    profile = f.profile()
    return Influence(profile.moment(1.0), 2 * f._edges / profile.points)


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < 0.5:
        raise InputError(f"noise rate must lie strictly in (0, 1/2), got {delta}")
    return delta


def noise_sensitivity(f: TruthTable, delta: float) -> float:
    """Probability that rerandomising each coordinate w.p. delta flips f.

    Computed from the spectrum as sum_S w(|S|) coeff(S)^2 with the level
    weight accumulated in the geometric form
    w(k) = delta * (1 + rho + ... + rho^(k-1)), rho = 1 - 2 delta,
    which keeps single-coordinate functions exactly at delta.
    """
    delta = _check_delta(delta)
    rho = 1.0 - 2.0 * delta
    powers = rho ** np.arange(f.n + 1, dtype=np.float64)
    weights = np.concatenate(([0.0], delta * np.cumsum(powers[:-1])))
    coeffs = f.spectrum().coefficients
    return float(weights[popcount_table(f.n)] @ (coeffs * coeffs))


def noise_sensitivity_semigroup(f: TruthTable, delta: float) -> float:
    """Same quantity through the smoothing route E|f - T_rho f| / 2."""
    delta = _check_delta(delta)
    rho = 1.0 - 2.0 * delta
    coeffs = f.spectrum().coefficients * rho ** popcount_table(f.n).astype(np.float64)
    smoothed = walsh_hadamard(coeffs)
    return float(np.abs(f.values - smoothed).mean() / 2.0)


def index_to_point(n: int, x: int) -> np.ndarray:
    """Coordinate signs of point index x (bit set means -1)."""
    n = _check_n(n)
    x = _check_index(x, n, "point index")
    bits = (x >> np.arange(n)) & 1
    return (1 - 2 * bits).astype(np.int8)


def point_to_index(signs) -> int:
    """Inverse of index_to_point."""
    arr = np.asarray(signs, dtype=np.int8)
    if arr.ndim != 1 or not np.isin(arr, (-1, 1)).all():
        raise InputError("point must be a 1-D sequence of +1/-1 signs")
    return minus_mask(arr)


def minus_mask(signs) -> int:
    """Index bits of the coordinates equal to -1, as a Python int, exact
    past 63 coordinates."""
    return sum(1 << i for i in np.flatnonzero(np.asarray(signs) == -1).tolist())


def all_points_signs(n: int) -> np.ndarray:
    """Matrix of coordinate signs, shape (2^n, n): row x is the point for index x."""
    n = _check_n(n)
    idx = np.arange(1 << n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1
    return (1 - 2 * bits).astype(np.float64)
