import math
import random
from fractions import Fraction

import pytest

from boolsurf.interval import Interval, prove, refine, sqrt_sum, working_bits

BITS = working_bits(30)


def ends(x) -> tuple[Fraction, Fraction]:
    return Fraction(x.lo, 1 << x.bits), Fraction(x.hi, 1 << x.bits)


def contains(x, value: Fraction) -> bool:
    lo, hi = ends(x)
    return lo <= value <= hi


def enclose(value: Fraction, bits: int = BITS) -> Interval:
    """The tightest enclosure of a rational at `bits`."""
    scaled = value * (1 << bits)
    return Interval(math.floor(scaled), math.ceil(scaled), bits)


def test_working_bits_cover_the_digits():
    for digits in (1, 10, 15, 30, 50, 100):
        assert 2.0 ** -working_bits(digits) < 10.0 ** -digits


def test_isqrt_enclosure_contains_root_and_is_a_point_for_squares():
    for s in range(0, 500):
        x = Interval.sqrt(s, BITS)
        assert x.lo ** 2 <= s << 2 * BITS <= x.hi ** 2
        assert x.hi - x.lo <= 1
        assert (x.lo == x.hi) == (math.isqrt(s) ** 2 == s)
    assert Interval.sqrt(10**40, BITS) == Interval.exact(10**20, BITS)
    with pytest.raises(ValueError):
        Interval.sqrt(-1, BITS)


def test_root_of_an_interval_encloses_both_roots():
    x = enclose(Fraction(2, 3)).root()
    lo, hi = ends(x)
    assert lo * lo <= Fraction(2, 3) <= hi * hi
    assert Interval.exact(9, BITS).root() == Interval.exact(3, BITS)


def test_arithmetic_rounds_outward():
    rng = random.Random(5)
    for _ in range(500):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        c = rng.randint(-50, 50)
        x, y = enclose(a), enclose(b)
        assert contains(x + y, a + b)
        assert contains(x - y, a - b)
        assert contains(x * y, a * b)
        assert contains(x * c, a * c) and contains(c * x, a * c)
        assert contains(x + c, a + c) and contains(c + x, c + a) and contains(x - c, a - c)
        if c > 0:
            assert contains(x / c, a / c)
        if b > 0:
            assert contains(x / y, a / b)
            assert contains(1 / y, 1 / b)


def test_division_needs_a_positive_divisor():
    x = Interval.sqrt(2, BITS)
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        x / enclose(Fraction(-1, 3))
    with pytest.raises(ValueError):
        x + Interval.sqrt(2, BITS + 1)
    with pytest.raises(TypeError):
        x + 0.5


def test_comparisons_hold_only_when_proven():
    root2, root3 = Interval.sqrt(2, BITS), Interval.sqrt(3, BITS)
    assert root2 < root3 and not root3 < root2
    assert not root2 < root2  # overlapping enclosures prove nothing
    two = Interval.sqrt(4, BITS)
    assert two < 3 and not two < 2 and root2 < 2
    # equality and hashing compare the ends and bits of two intervals
    assert two == Interval.exact(2, BITS) and root2 == Interval.sqrt(2, BITS)
    assert len({root2, Interval.sqrt(2, BITS), two}) == 2
    assert root2 != Interval.sqrt(2, BITS + 1) and two != 2


def test_root2_below_a_40_digit_truncation_is_not_certified():
    # t is sqrt(2) truncated to 40 digits, so t < sqrt(2) by under 1e-40.
    # Accepting within the old 10^-30 slack would have passed sqrt(2) <= t;
    # sqrt(2) is no point, so that claim needs strict separation, sqrt(2) < t.
    t = Fraction(math.isqrt(2 * 10**80), 10**40)
    assert 2 - t * t > 0
    assert ends(Interval.sqrt(2, BITS))[0] - t < Fraction(1, 10**30)

    def claim(bits):
        return Interval.sqrt(2, bits) < enclose(t, bits)

    assert not claim(BITS)
    assert not prove(claim, BITS)
    assert prove(lambda bits: enclose(t, bits) < Interval.sqrt(2, bits), BITS)


def test_float_is_correctly_rounded_when_settled():
    for s in range(1, 2000):
        x = Interval.sqrt(s, BITS)
        assert x.settled
        assert float(x) == math.sqrt(s)  # math.sqrt is correctly rounded
    third = enclose(Fraction(1, 3))
    assert third.settled and float(third) == 1 / 3


def test_refine_doubles_the_bits_until_settled():
    seen = []

    def compute(bits):
        seen.append(bits)
        return bits, bits >= 4 * BITS

    assert refine(compute, BITS) == 4 * BITS
    assert seen == [BITS, 2 * BITS, 4 * BITS]
    seen.clear()
    assert refine(lambda bits: (seen.append(bits), False), BITS) is None
    assert seen == [BITS, 2 * BITS, 4 * BITS, 8 * BITS]


def test_sqrt_sum_encloses_the_weighted_root_sum():
    terms = [(3, 2), (5, 7), (1, 9), (0, 11), (4, 0)]
    x = sqrt_sum(terms, BITS)
    roots = [w * Interval.sqrt(v, BITS) for w, v in terms]
    assert x == Interval(sum(r.lo for r in roots), sum(r.hi for r in roots), BITS)
    assert float(x) == pytest.approx(3 * math.sqrt(2) + 5 * math.sqrt(7) + 3, abs=1e-14)
    assert sqrt_sum([(2, 4), (3, 9)], BITS) == Interval.exact(13, BITS)
