import math
import random
from fractions import Fraction

import pytest

from boolsurf.interval import (Interval, _isqrt_ends, _product, _quotient, _root, prove, refine,
                               sqrt_sum, working_bits)

BITS = working_bits(30)


def real(end: int, bits: int = BITS) -> Fraction:
    return Fraction(end, 1 << bits)


def enclose(value: Fraction, bits: int = BITS) -> tuple[int, int]:
    """The tightest ends of a rational at `bits`."""
    scaled = value * (1 << bits)
    return math.floor(scaled), math.ceil(scaled)


def test_working_bits_cover_the_digits():
    for digits in (1, 10, 15, 30, 50, 100):
        assert 2.0 ** -working_bits(digits) < 10.0 ** -digits


def test_isqrt_enclosure_contains_root_and_is_a_point_for_squares():
    for s in range(0, 500):
        lo, hi = _root(s, BITS)
        assert lo ** 2 <= s << 2 * BITS <= hi ** 2
        assert hi - lo <= 1
        assert (lo == hi) == (math.isqrt(s) ** 2 == s)
    assert _root(10**40, BITS) == (10**20 << BITS, 10**20 << BITS)
    with pytest.raises(ValueError):
        _root(-1, BITS)


def test_isqrt_ends_enclose_large_roots_without_caching():
    # Jensen's one-off root of first * den: _root's ends, uncached
    _root.cache_clear()
    for value in (10**40, 10**40 + 1, 2 * 3**50, 7):
        lo, hi = _isqrt_ends(value, BITS)
        assert lo ** 2 <= value << 2 * BITS <= hi ** 2 and hi - lo <= 1
        assert _root.cache_info().currsize == 0
        assert _root(value, BITS) == (lo, hi)
        _root.cache_clear()
    assert _isqrt_ends(9, BITS) == (3 << BITS, 3 << BITS)


def mixed_ends(rng) -> tuple[int, int]:
    """Ends of a random rational interval, either sign at either end."""
    a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
    b = a + Fraction(rng.choice((0, rng.randint(0, 10**6))), rng.randint(1, 10**4))
    return enclose(a)[0], enclose(b)[1]


def test_arithmetic_rounds_outward():
    rng = random.Random(5)
    for _ in range(2000):
        lo, hi = mixed_ends(rng)
        other_lo, other_hi = mixed_ends(rng)
        corners = [real(x) * real(y) for x in (lo, hi) for y in (other_lo, other_hi)]
        got_lo, got_hi = _product(lo, hi, other_lo, other_hi, BITS)
        assert real(got_lo) <= min(corners) and max(corners) <= real(got_hi)
        assert enclose(min(corners))[0] == got_lo and enclose(max(corners))[1] == got_hi
        if other_lo > 0:
            corners = [real(x) / real(y) for x in (lo, hi) for y in (other_lo, other_hi)]
            got_lo, got_hi = _quotient(lo, hi, other_lo, other_hi, BITS)
            assert enclose(min(corners))[0] == got_lo and enclose(max(corners))[1] == got_hi
    # a negative point over a positive divisor, as Jensen's lower end when
    # 2 first^2 < spread: the lower end divides by the divisor's lower end
    num = -5 << BITS
    div_lo, div_hi = enclose(Fraction(3, 7))
    assert _quotient(num, num, div_lo, div_hi, BITS) == (enclose(-5 / real(div_lo))[0],
                                                         enclose(-5 / real(div_hi))[1])


def test_division_needs_a_positive_divisor():
    lo, hi = _root(2, BITS)
    with pytest.raises(ZeroDivisionError):
        _quotient(lo, hi, 0, 0, BITS)
    with pytest.raises(ZeroDivisionError):
        _quotient(lo, hi, *enclose(Fraction(-1, 3)), BITS)
    with pytest.raises(ZeroDivisionError):
        _quotient(lo, hi, 0, 1, BITS)  # reaching down to 0


def test_comparisons_hold_only_when_proven():
    # x < y is proven when x's upper end lies below y's lower end; an
    # overlap proves nothing
    root2, root3, two = _root(2, BITS), _root(3, BITS), _root(4, BITS)
    assert root2[1] < root3[0] and not root3[1] < root2[0]
    assert not root2[1] < root2[0]  # sqrt(2) is no point
    assert two[1] < 3 << BITS and not two[1] < 2 << BITS and root2[1] < 2 << BITS
    # equality and hashing compare the ends and bits of two intervals
    assert Interval(*two, BITS) == Interval(2 << BITS, 2 << BITS, BITS)
    assert len({Interval(*root2, BITS), Interval(*_root(2, BITS), BITS),
                Interval(*two, BITS)}) == 2
    assert Interval(*root2, BITS) != Interval(*_root(2, BITS + 1), BITS + 1)


def test_root2_below_a_40_digit_truncation_is_not_certified():
    # t is sqrt(2) truncated to 40 digits, so t < sqrt(2) by under 1e-40.
    # Accepting within the old 10^-30 slack would have passed sqrt(2) <= t;
    # sqrt(2) is no point, so that claim needs strict separation, sqrt(2) < t.
    t = Fraction(math.isqrt(2 * 10**80), 10**40)
    assert 2 - t * t > 0
    assert real(_root(2, BITS)[0]) - t < Fraction(1, 10**30)

    def claim(bits):
        return _root(2, bits)[1] < enclose(t, bits)[0]

    assert not claim(BITS)
    assert not prove(claim, BITS)
    assert prove(lambda bits: enclose(t, bits)[1] < _root(2, bits)[0], BITS)


def test_float_is_correctly_rounded_when_settled():
    for s in range(1, 2000):
        x = Interval(*_root(s, BITS), BITS)
        assert x.settled
        assert float(x) == math.sqrt(s)  # math.sqrt is correctly rounded
    third = Interval(*enclose(Fraction(1, 3)), BITS)
    assert third.settled and float(third) == 1 / 3
    wide = Interval(0, 1 << BITS, BITS)
    assert not wide.settled and float(wide) == 0.5


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
    roots = [_root(v, BITS) for _, v in terms]
    assert sqrt_sum(terms, BITS) == (sum(w * lo for (w, _), (lo, _) in zip(terms, roots)),
                                     sum(w * hi for (w, _), (_, hi) in zip(terms, roots)))
    x = Interval(*sqrt_sum(terms, BITS), BITS)
    assert float(x) == pytest.approx(3 * math.sqrt(2) + 5 * math.sqrt(7) + 3, abs=1e-14)
    assert sqrt_sum([(2, 4), (3, 9)], BITS) == (13 << BITS, 13 << BITS)
