"""Fixed-point binary intervals with exact integer ends.

`Interval(lo, hi, bits)` encloses a real x with lo <= x * 2^bits <= hi,
where lo and hi are Python ints.  Square roots of integers come from
`math.isqrt` and are a single point for perfect squares; sums are exact;
products and quotients round their lower end down and their upper end up
(outward rounding, R. Moore, *Interval Analysis*, 1966).  A comparison is
True only when the two enclosures are strictly separated, so it proves
the inequality between the enclosed reals; a False answer proves nothing.

A result is *settled* when both ends round to the same double.  Python's
int / int division is correctly rounded, so the float of a settled
interval is the correctly rounded float of the real it encloses.  A
computation that needs a separation or a settled float which did not
come out at its working bits reruns at twice the bits, a bounded number
of times (`refine`).
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
    """The reals in [lo, hi] * 2^-bits."""

    lo: int
    hi: int
    bits: int

    @classmethod
    def exact(cls, value: int, bits: int) -> Interval:
        return cls(value << bits, value << bits, bits)

    @classmethod
    def sqrt(cls, value: int, bits: int) -> Interval:
        """sqrt(value) for an integer value >= 0."""
        return _root(value, bits)

    def root(self) -> Interval:
        """The square root of a nonnegative interval."""
        if self.lo < 0:
            raise ValueError("square root of an interval reaching below 0")
        lo = isqrt(self.lo << self.bits)
        hi = isqrt(self.hi << self.bits)
        return Interval(lo, hi if hi * hi == self.hi << self.bits else hi + 1, self.bits)

    # ---------------------------------------------------------- arithmetic

    def _ends(self, other) -> tuple[int, int]:
        """`other`'s ends at this interval's bits: an int, or an interval
        with the same bits."""
        if type(other) is Interval and other.bits == self.bits:
            return other.lo, other.hi
        if isinstance(other, int):
            return other << self.bits, other << self.bits
        if isinstance(other, Interval):
            raise ValueError(f"mixing {self.bits}-bit and {other.bits}-bit intervals")
        raise TypeError(f"no interval arithmetic with {type(other).__name__}")

    def __add__(self, other) -> Interval:
        lo, hi = self._ends(other)
        return Interval(self.lo + lo, self.hi + hi, self.bits)

    __radd__ = __add__

    def __sub__(self, other) -> Interval:
        lo, hi = self._ends(other)
        return Interval(self.lo - hi, self.hi - lo, self.bits)

    def __rtruediv__(self, other) -> Interval:
        """An int divided by an interval lying above 0."""
        return Interval.exact(other, self.bits) / self

    def __mul__(self, other) -> Interval:
        if isinstance(other, int):
            if other >= 0:
                return Interval(self.lo * other, self.hi * other, self.bits)
            return Interval(self.hi * other, self.lo * other, self.bits)
        lo, hi = self._ends(other)
        if self.lo >= 0 and lo >= 0:
            low, high = self.lo * lo, self.hi * hi
        else:
            ends = (self.lo * lo, self.lo * hi, self.hi * lo, self.hi * hi)
            low, high = min(ends), max(ends)
        return Interval(low >> self.bits, -(-high >> self.bits), self.bits)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Interval:
        """Division by a positive int or by an interval lying above 0."""
        if isinstance(other, int):
            if other <= 0:
                raise ZeroDivisionError("interval division needs a positive divisor")
            return Interval(self.lo // other, -(-self.hi // other), self.bits)
        lo, hi = self._ends(other)
        if lo <= 0:
            raise ZeroDivisionError("interval division needs a divisor above 0")
        return Interval((self.lo << self.bits) // (hi if self.lo >= 0 else lo),
                        -(-(self.hi << self.bits) // (lo if self.hi >= 0 else hi)),
                        self.bits)

    # ---------------------------------------------------------- comparisons

    def __lt__(self, other) -> bool:
        return self.hi < self._ends(other)[0]

    # ---------------------------------------------------------- floats

    @property
    def settled(self) -> bool:
        """Both ends round to the same double."""
        scale = 1 << self.bits
        return self.lo / scale == self.hi / scale

    def __float__(self) -> float:
        """The double nearest the midpoint: correctly rounded when settled."""
        return (self.lo + self.hi) / (2 << self.bits)


def sqrt_sum(terms, bits: int) -> Interval:
    """sum_i w_i sqrt(v_i) over integer pairs (w_i, v_i), w_i, v_i >= 0."""
    lo = hi = 0
    for weight, value in terms:
        scaled = value << 2 * bits
        root = isqrt(scaled)
        lo += weight * root
        hi += weight * (root if root * root == scaled else root + 1)
    return Interval(lo, hi, bits)


@lru_cache(maxsize=None)
def _root(value: int, bits: int) -> Interval:
    if value < 0:
        raise ValueError(f"square root of negative integer {value}")
    return Interval.exact(value, bits).root()


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
