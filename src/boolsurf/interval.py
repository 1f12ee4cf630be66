"""Fixed-point binary enclosures with exact integer ends.

A real x is enclosed by two Python ints, its ends (lo, hi) at `bits`,
with lo <= x * 2^bits <= hi.  Certified computations work on the ends
directly, through a few plain functions: square roots of integers come
from `math.isqrt` and are a single point for perfect squares (`_root`,
`_isqrt_ends`, `sqrt_sum`); sums are exact, formed by the caller;
products (`_product`) and quotients (`_quotient`) round their lower end
down and their upper end up (outward rounding, R. Moore, *Interval
Analysis*, 1966).  An inequality between two enclosed reals is proven
only by strict separation, one enclosure's hi below the other's lo; an
overlap proves nothing.

The enclosure a computation returns is an `Interval(lo, hi, bits)`.  It
is *settled* when both ends round to the same double.  Python's int / int
division is correctly rounded, so the float of a settled interval is the
correctly rounded float of the real it encloses.  A computation that
needs a separation or a settled float which did not come out at its
working bits reruns at twice the bits, a bounded number of times
(`refine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, isqrt, log2

GUARD_BITS = 32  # working bits beyond the decimal digits asked for
REFINEMENTS = 4  # runs at 1, 2, 4 and 8 times the working bits


def working_bits(digits: int) -> int:
    """Fixed-point bits for `digits` certified decimal digits."""
    return ceil(digits * log2(10)) + GUARD_BITS


@dataclass(frozen=True, slots=True)
class Interval:
    """The reals in [lo, hi] * 2^-bits: the enclosure a certified
    computation returns."""

    lo: int
    hi: int
    bits: int

    @property
    def settled(self) -> bool:
        """Both ends round to the same double."""
        scale = 1 << self.bits
        return self.lo / scale == self.hi / scale

    def __float__(self) -> float:
        """The double nearest the midpoint: correctly rounded when settled."""
        return (self.lo + self.hi) / (2 << self.bits)


def _product(lo: int, hi: int, other_lo: int, other_hi: int, bits: int) -> tuple[int, int]:
    """The ends of [lo, hi] * [other_lo, other_hi] at `bits`, rounded outward."""
    if lo >= 0 and other_lo >= 0:
        low, high = lo * other_lo, hi * other_hi
    else:
        ends = (lo * other_lo, lo * other_hi, hi * other_lo, hi * other_hi)
        low, high = min(ends), max(ends)
    return low >> bits, -(-high >> bits)


def _quotient(lo: int, hi: int, other_lo: int, other_hi: int, bits: int) -> tuple[int, int]:
    """The ends of [lo, hi] / [other_lo, other_hi] at `bits`, rounded outward,
    for a divisor lying above 0."""
    if other_lo <= 0:
        raise ZeroDivisionError("interval division needs a divisor above 0")
    return ((lo << bits) // (other_hi if lo >= 0 else other_lo),
            -(-(hi << bits) // (other_lo if hi >= 0 else other_hi)))


def _isqrt_ends(value: int, bits: int) -> tuple[int, int]:
    """The ends of sqrt(value) at `bits` for an integer value >= 0: a single
    point when value 2^(2 bits) is a square."""
    scaled = value << 2 * bits
    root = isqrt(scaled)
    return root, root if root * root == scaled else root + 1


# `_isqrt_ends`, cached: the sandwich roots the same few integers at every k
_root = lru_cache(maxsize=None)(_isqrt_ends)


def sqrt_sum(terms, bits: int) -> tuple[int, int]:
    """The ends of sum_i w_i sqrt(v_i) at `bits` over integer pairs (w_i, v_i),
    w_i, v_i >= 0."""
    lo = hi = 0
    for weight, value in terms:
        root_lo, root_hi = _isqrt_ends(value, bits)
        lo += weight * root_lo
        hi += weight * root_hi
    return lo, hi


def refine(compute, bits: int):
    """Run `compute(bits) -> (result, settled)` at `bits`, doubling the
    bits up to REFINEMENTS times; return the first settled result, or
    the last one."""
    for _ in range(REFINEMENTS - 1):
        result, settled = compute(bits)
        if settled:
            return result
        bits *= 2
    return compute(bits)[0]


def prove(claim, bits: int) -> bool:
    """True when `claim(bits)` comes out True at some refinement."""
    return refine(lambda b: (ok := claim(b), ok), bits)
