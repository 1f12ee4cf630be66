"""Exact analysis of Boolean functions on the signed hypercube.

A function f: {-1,+1}^n -> {-1,+1} is stored as its full table of 2^n
signs.  Bit i of the table index is 0 where coordinate i equals +1 and 1
where it equals -1, so ``x ^ (1 << i)`` is the neighbour of ``x`` across
coordinate i.  Only this module writes the encoding out: ``_unpack_bits``,
``_pack_bits``, ``_subset_sums``/``gather_bits``/``scatter_bits``,
``broadcast_bits``, ``_chi``, ``to_signs``, ``minus_mask``, ``pack_signs``,
``_sensitive_directions``.

The pointwise sensitivity s(x) counts coordinates whose flip changes f
at x.  Everything downstream is a moment of the sensitivity histogram:
average sensitivity (total influence) is E[s], Boolean surface area is
E[sqrt(s)], and the general fractional moment is E[s^alpha].  One
kernel, ``sensitivity_histogram``, counts it on tables packed to bits
by ``pack_signs``, together with the per-axis disagreeing-pair counts
(the per-coordinate influences); profiles and the exhaustive audits read
it.  The block-bound trials read ``_sensitive_directions`` instead: one
word D(x) per point whose bit i is set where flipping coordinate i
changes f at x, so the sensitivity at x of f restricted to a block S,
every other coordinate fixed as in x, is popcount(D(x) & S).
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

from .errors import CapacityError, InputError, _exact_int
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
    n = _exact_int(n, "variable count")
    if n < 0:
        raise InputError(f"variable count must be >= 0, got {n}")
    if n > EXACT_CAP:
        raise CapacityError(f"n={n} exceeds the exact-enumeration cap of {EXACT_CAP}")
    return n


def _check_index(value: int, n: int, what: str) -> int:
    """`value` as an int in [0, 2^n): a point index or a subset mask on n variables."""
    value = _exact_int(value, what)
    if not 0 <= value < 1 << n:
        raise InputError(f"{what} {value} out of range for n={n}")
    return value


def to_signs(values) -> np.ndarray:
    """int8 +1/-1 by the sign of each value; sign(0) = +1 and sign(NaN) = -1."""
    # arithmetic on the 0/1 compare: np.where with int8 scalars is ~5x slower
    return 2 * (np.asarray(values) >= 0).view(np.int8) - 1


def _chi(masks, points) -> np.ndarray:
    """int8 chi_S(x) = (-1)^|S & x|, subset masks S and point indices x broadcast together."""
    return 1 - 2 * (np.bitwise_count(masks & points) & 1).view(np.int8)


def _unpack_bits(idx, n: int) -> np.ndarray:
    """int8 0/1 columns: out[..., i] is bit i of idx[...], for i < n."""
    return (idx[..., None] >> np.arange(n, dtype=idx.dtype) & 1).astype(np.int8)


def _pack_bits(bits) -> np.ndarray:
    """uint64 indices from 0/1 rows: bit i of out[...] is bits[..., i]."""
    return bits.astype(np.uint64) @ (np.uint64(1) << np.arange(bits.shape[-1], dtype=np.uint64))


def _subset_sums(positions) -> np.ndarray:
    """int64 full indices of every sub-cube index sub in [0, 2^m), for
    positions of shape (..., m): bit j of sub moves to bit positions[..., j]
    of out[..., sub].  Built by doubling (TAOCP 4A, 7.1.3): 2^m cell
    writes, not m 2^m."""
    positions = np.asarray(positions, dtype=np.int64)
    out = np.zeros(positions.shape[:-1] + (1 << positions.shape[-1],), dtype=np.int64)
    for j in range(positions.shape[-1]):
        half = 1 << j
        out[..., half:2 * half] = out[..., :half] | np.int64(1) << positions[..., j, None]
    return out


def gather_bits(idx, positions) -> np.ndarray:
    """The inverse of _subset_sums: uint64 sub-cube indices whose bit j is bit
    positions[..., j] of `idx`, shaped like idx and positions[..., 0] broadcast."""
    idx = np.asarray(idx, dtype=np.uint64)
    positions = np.asarray(positions, dtype=np.uint64)
    out = np.zeros(np.broadcast_shapes(idx.shape, positions.shape[:-1]), dtype=np.uint64)
    for j in range(positions.shape[-1]):
        out |= (idx >> positions[..., j] & 1) << j
    return out


def scatter_bits(sub, positions) -> np.ndarray:
    """The per-point inverse of gather_bits, _subset_sums(positions)[..., sub]:
    uint64 indices whose bit positions[..., j] is bit j of `sub`."""
    sub = np.asarray(sub, dtype=np.uint64)
    positions = np.asarray(positions, dtype=np.uint64)
    out = np.zeros(np.broadcast_shapes(sub.shape, positions.shape[:-1]), dtype=np.uint64)
    for j in range(positions.shape[-1]):
        out |= (sub >> j & 1) << positions[..., j]
    return out


def broadcast_bits(out: np.ndarray, sub: np.ndarray, positions) -> None:
    """Write out[x] = sub[gather_bits(x, positions)] for every index x of
    the flat 2^b array `out`: each of sub's 2^m entries, m = len(positions)
    distinct bit positions below b, is copied to the 2^(b - m) indices
    whose bits at `positions` spell its sub-cube index.  out is viewed as
    b axes of 2 (bit b - 1 first) and sub as m axes put on the axes of
    their positions, so the copy is one broadcast assignment."""
    positions = [int(q) for q in positions]
    bits, m = out.size.bit_length() - 1, len(positions)
    # axis a of sub's (2,) * m view is bit m - 1 - a, at positions[m - 1 - a];
    # out's axes run from bit b - 1 down, so sub's go by descending position
    order = sorted(range(m), key=lambda a: positions[m - 1 - a], reverse=True)
    shape = [1] * bits
    for q in positions:
        shape[bits - 1 - q] = 2
    out.reshape((2,) * bits)[...] = sub.reshape((2,) * m).transpose(order).reshape(shape)


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
    """Unnormalised Walsh-Hadamard transform: _transform's result as float64.

    Self-inverse up to a factor of len(vec).  The kernel is
    (-1)^popcount(S & x) under the index encoding above, which matches
    evaluating multilinear monomials at sign vectors.
    """
    return _transform(vec).astype(np.float64, copy=False)


def _transform(vec: np.ndarray) -> np.ndarray:
    """walsh_hadamard in its working dtype, in place on a C-contiguous copy:
    int32 for an int8 input on n <= EXACT_CAP, float64 otherwise.

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

    A stack of shape (..., 2^n) is transformed along its last axis, each
    row equal to its own transform bit for bit; the result has the
    input's shape.  A single table of at least 2^10 entries, and every
    row of a stack of rows of at least 2^16, runs one row at a time
    through the blocked stages above (a stack of 2^16-entry rows run
    together streams from memory).  Other stacks, and a single table of
    under 2^10 entries (where the transposed copy of one row costs more
    than it saves), are copied once into the columns of a (2^n, rows)
    array, whose stages then run over every row together.

    One shortcut keeps walsh_hadamard's bytes: an int8 input (a sign
    table) on n <= EXACT_CAP runs in int32, which is exact: every partial
    sum has |value| <= 255 * 2^23 < 2^31, and float64 sums of such
    integers are exact too.
    """
    vec = np.asarray(vec)
    size = vec.shape[-1]
    if size == 0 or size & (size - 1):
        raise InputError(f"length must be a power of two, got {size}")
    n = size.bit_length() - 1
    work = np.int32 if vec.dtype == np.int8 and n <= EXACT_CAP else np.float64
    if n < _SPLIT_BITS or (vec.size != size and n < _BLOCK_BITS):
        stack = np.array(vec.reshape(-1, size).T, dtype=work, order="C")
        _butterflies(stack, n)
        return np.ascontiguousarray(stack.T).reshape(vec.shape)
    out = np.array(vec, dtype=work, copy=True)
    low = min(n, _BLOCK_BITS)
    half = low >> 1
    for row in out.reshape(-1, 1 << low):
        square = row.reshape(-1, 1 << half)
        flipped = square.T.copy()
        _butterflies(flipped, half)
        square[...] = flipped.T
        _butterflies(square, low - half)
    if n > low:
        width = 1 << max(_BLOCK_BITS - (n - low), 0)
        for table in out.reshape(-1, 1 << (n - low), 1 << low):
            for j in range(0, 1 << low, width):
                _butterflies(table[:, j:j + width], n - low)
    return out


_MASS_BITS = 12  # _level_masses sorts squares by popcount in rows of 2^12


def _level_masses(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Read-only float64 masses[k] = sum over popcount(S) = k of coeffs[S]^2
    for integer coeffs whose squares sum below 2^53: every sum is exact.

    Row h of coeffs as (2^(n - low), 2^low), low = min(n, 12), squared a
    block of 2^16 at a time and times the (2^low, low + 1) one-hot matrix
    of popcounts, gives row h's masses by low popcount, which count at
    level popcount(h) + that.
    """
    low = min(n, _MASS_BITS)
    onehot = (popcount_table(low)[:, None] == np.arange(low + 1)).astype(np.float64)
    rows = coeffs.reshape(-1, 1 << low)
    step = max(1, (1 << _BLOCK_BITS) >> low)
    by_low = np.concatenate([np.square(rows[i:i + step], dtype=np.float64) @ onehot
                             for i in range(0, len(rows), step)])
    levels = popcount_table(n - low)[:, None] + np.arange(low + 1)
    masses = np.bincount(levels.ravel(), weights=by_low.ravel(), minlength=n + 1)
    masses.flags.writeable = False
    return masses


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


def _one_level(counts) -> np.ndarray:
    """Whether one level holds every point, for sensitivity histogram rows
    along the last axis of `counts`."""
    return np.count_nonzero(counts, axis=-1) == 1


class TruthTable:
    """Dense sign table of a Boolean function on n <= EXACT_CAP variables."""

    __slots__ = ("n", "values", "_profile", "_edges", "_masses")

    def __init__(self, n: int, values):
        n = _check_n(n)
        arr = np.asarray(values)
        if arr.shape != (1 << n,):
            raise InputError(f"need exactly 2^{n} values, got shape {arr.shape}")
        # check the given values, not their int8 cast, which wraps 255 to -1
        # and truncates 1.5 to 1
        if np.count_nonzero(arr == 1) + np.count_nonzero(arr == -1) != arr.size:
            raise InputError("table entries must be +1 or -1")
        self._store(n, arr.astype(np.int8))

    @classmethod
    def _from_signs(cls, n: int, signs: np.ndarray) -> "TruthTable":
        """Wrap without validation or copy: n within the cap and `signs` a
        fresh int8 array of 2^n entries, each +1 or -1 (to_signs output)."""
        table = object.__new__(cls)
        table._store(n, signs)
        return table

    def _store(self, n: int, values: np.ndarray) -> None:
        values.flags.writeable = False
        self.n = n
        self.values = values
        self._profile = None
        self._edges = None
        self._masses = None

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
        return cls(n, _chi(np.arange(1 << n), mask))

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
            counts, self._edges = sensitivity_histogram(pack_signs(self.values), self.n)
            self._profile = SensitivityProfile(self.n, counts)
        return self._profile

    def level_masses(self) -> np.ndarray:
        """W[k] = sum over |S| = k of N_S^2, where N_S = 2^n fhat(S) is the
        integer unnormalised Walsh coefficient: read-only float64, exact."""
        if self._masses is None:
            self._masses = _level_masses(_transform(self.values), self.n)
        return self._masses


def pack_signs(values) -> np.ndarray:
    """Sign tables along the last axis of `values` (..., 2^n), packed to
    uint64 words: bit x % 64 of word x // 64 is set where values[..., x] < 0.
    A table of under 64 points takes one word, zero above its 2^n bits."""
    packed = np.packbits(np.asarray(values) < 0, axis=-1, bitorder="little")
    pad = -packed.shape[-1] % 8
    if pad:
        packed = np.concatenate(
            (packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)), axis=-1)
    return packed.view("<u8")


# Bits of a word whose position has bit i clear, for the axes i < 6 that
# pair bits inside one word.
_IN_WORD_MASKS = tuple(np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF))
# sensitivity_histogram counts strips of 2^14 words (2^20 points): its
# dozen strip-sized arrays stay near the 2 MiB L2 cache.  Measured at
# n = 24 on a 2-core Xeon: 2^13 and 2^14 words ran in 52-53 ms, 2^16 in 66.
_STRIP_BITS = 14


def sensitivity_histogram(words, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, edges) of the n-variable tables that pack_signs packed into
    the rows of `words` (..., max(1, 2^n / 64)).

    counts[..., v] is the number of points with s(x) = v and edges[..., i]
    the number of pairs {x, x ^ (1 << i)} that disagree, both int64.

    The kernel is broadword (Knuth, TAOCP 4A, 7.1.3): per axis i it forms
    the word D whose bit x is set where x and its neighbour across i
    disagree (a masked shift by 2^i for i < 6, an XOR of the paired words
    above that) and adds D to every point's counter at once.  The
    counters are bit-sliced: plane b holds bit b of each point's s, and
    D ripples into the planes as a carry.  Then counts[v] is the popcount
    of the AND of the planes, or of their complements, that spell v in
    binary.  The table runs one strip of words at a time; an axis whose
    pair lies in another strip reads that strip's words.
    """
    n = _exact_int(n, "variable count")
    words = np.asarray(words, dtype=np.uint64)
    width = words.shape[-1]
    if width != max(1, (1 << n) >> 6):
        raise InputError(f"a table on {n} variables packs into {max(1, (1 << n) >> 6)} "
                         f"words, got {width}")
    flat = words.reshape(-1, width)
    tables = flat.shape[0]
    depth = n.bit_length()  # planes: s <= n has depth binary digits
    strip = min(width, 1 << _STRIP_BITS)
    in_strip = 6 + strip.bit_length() - 1  # axes whose pairs share a strip
    counts = np.zeros((tables, n + 1), dtype=np.int64)
    edges = np.zeros((tables, n), dtype=np.int64)
    planes = np.empty((depth, tables, strip), dtype=np.uint64)
    complements = np.empty_like(planes)
    prefixes = np.empty_like(planes)
    diff = np.empty((tables, strip), dtype=np.uint64)
    spare = np.empty_like(diff)
    ones = np.empty((tables, strip), dtype=np.uint8)
    for start in range(0, width, strip):
        block = flat[:, start:start + strip]
        planes[...] = 0
        for i in range(n):
            if i < 6:
                shift = np.uint64(1 << i)
                np.right_shift(block, shift, out=diff)
                np.bitwise_xor(diff, block, out=diff)
                np.bitwise_and(diff, _IN_WORD_MASKS[i], out=diff)  # lower end of each pair
                np.left_shift(diff, shift, out=spare)
                np.bitwise_or(diff, spare, out=diff)
            elif i < in_strip:
                pairs = block.reshape(tables, -1, 2, 1 << (i - 6))
                both = diff.reshape(pairs.shape)
                np.bitwise_xor(pairs[:, :, 0], pairs[:, :, 1], out=both[:, :, 0])
                both[:, :, 1] = both[:, :, 0]
            else:
                partner = start ^ (1 << (i - 6))
                np.bitwise_xor(block, flat[:, partner:partner + strip], out=diff)
            np.bitwise_count(diff, out=ones)
            edges[:, i] += ones.sum(axis=-1, dtype=np.int64)
            # add D: after axis i every counter is at most i + 1, so only
            # the planes below its bit length can change
            top = (i + 1).bit_length() - 1
            carry, scratch = diff, spare
            for plane in planes[:top]:
                np.bitwise_and(plane, carry, out=scratch)
                np.bitwise_xor(plane, carry, out=plane)
                carry, scratch = scratch, carry
            np.bitwise_xor(planes[top], carry, out=planes[top])
        if depth:
            np.invert(planes, out=complements)
            _spell_levels(planes, complements, prefixes, depth - 1, 0, None, counts, ones)
    # level 0 by subtraction: above a short table's 2^n bits every plane is 0
    counts[:, 0] = (1 << n) - counts[:, 1:].sum(axis=-1)
    edges //= 2  # each disagreeing pair was counted at both of its ends
    lead = words.shape[:-1]
    return counts.reshape(lead + (n + 1,)), edges.reshape(lead + (n,))


def _spell_levels(planes, complements, prefixes, b, high, selected, counts, ones):
    """Add to counts[:, v] the points whose counter is v, for every v <= n
    whose digits above b spell `high`; `selected` marks the points whose
    counter has those digits (None: no digit fixed yet)."""
    n = counts.shape[1] - 1
    for digit, bits in ((0, complements[b]), (1, planes[b])):
        level = high | digit << b
        if level > n:
            return
        if selected is not None:
            bits = np.bitwise_and(selected, bits, out=prefixes[b])
        if b:
            _spell_levels(planes, complements, prefixes, b - 1, level, bits, counts, ones)
        elif level:
            np.bitwise_count(bits, out=ones)
            counts[:, level] += ones.sum(axis=-1, dtype=np.int64)


def _sensitive_directions(values) -> np.ndarray:
    """uint32 words D of one table of 2^n signs, n <= EXACT_CAP: bit i of
    D[x] is set where x and x ^ (1 << i) disagree, so s(x) = popcount(D[x])."""
    values = np.asarray(values)
    words = np.zeros(values.shape, dtype=np.uint32)
    for i in range(values.size.bit_length() - 1):
        pairs = values.reshape(-1, 2, 1 << i)
        bit = (pairs[:, 0] != pairs[:, 1]).astype(np.uint32) << np.uint32(i)
        halves = words.reshape(pairs.shape)
        halves[:, 0] |= bit
        halves[:, 1] |= bit
    return words


def all_function_words(n: int) -> np.ndarray:
    """All 2^(2^n) functions on n >= 1 variables as pack_signs packs them:
    row c of this (2^(2^n), 1) uint64 array is the word c, so f(x) = -1
    exactly where bit x of c is set."""
    n = _exact_int(n, "variable count")
    if n < 1:
        raise InputError("need n >= 1")
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(
            f"n={n} means 2^{1 << n} functions; the cap is n <= {EXHAUSTIVE_CAP}")
    return np.arange(1 << (1 << n), dtype=np.uint64)[:, None]


class Influence(NamedTuple):
    total: float
    per_coordinate: np.ndarray


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

    sum_k w(k) W_k / 4^n over f.level_masses(), with the level weight in
    the geometric form w(k) = delta * (1 + rho + ... + rho^(k-1)),
    rho = 1 - 2 delta, which keeps single-coordinate functions exactly at
    delta.  The masses are exact: by Parseval their partial sums are at
    most 4^n <= 2^48 < 2^53.  Each weight is num / 2^e, so the sum is
    exact in Python ints and rounded once by the int division.
    """
    delta = _check_delta(delta)
    rho = 1.0 - 2.0 * delta
    powers = rho ** np.arange(f.n + 1, dtype=np.float64)
    weights = np.concatenate(([0.0], delta * np.cumsum(powers[:-1])))
    ratios = [w.as_integer_ratio() for w in weights.tolist()]
    scale = max(den for _, den in ratios)
    total = sum(num * (scale // den) * int(m) for (num, den), m in zip(ratios, f.level_masses()))
    return total / (scale << 2 * f.n)


def noise_sensitivity_semigroup(f: TruthTable, delta: float) -> float:
    """Same quantity through the smoothing route E|f - T_rho f| / 2."""
    delta = _check_delta(delta)
    rho = 1.0 - 2.0 * delta
    coeffs = walsh_hadamard(f.values) / (1 << f.n) * rho ** popcount_table(f.n).astype(np.float64)
    smoothed = walsh_hadamard(coeffs)
    return float(np.abs(f.values - smoothed).mean() / 2.0)


def minus_mask(signs) -> int:
    """Index bits of the coordinates equal to -1, as a Python int, exact
    past 63 coordinates."""
    return sum(1 << i for i in np.flatnonzero(np.asarray(signs) == -1).tolist())


def all_points_signs(n: int) -> np.ndarray:
    """Matrix of coordinate signs, shape (2^n, n): row x is the point for index x."""
    n = _check_n(n)
    return (1 - 2 * _unpack_bits(np.arange(1 << n), n)).astype(np.float64)
