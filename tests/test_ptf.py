import math
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import permutations

import numpy as np
import pytest

from boolsurf.core import TruthTable, all_points_signs, total_influence, walsh_hadamard
from boolsurf.errors import (BoolsurfError, CapacityError, DegenerateInputError, InputError,
                             ParseError)
from boolsurf import ptf
from boolsurf.ptf import (ALPHA_EXACT_CAP, SparsePolynomial, alpha_estimate,
                          alpha_exact, eval_on_cube, eval_poly, generate,
                          poly_stats, restrict_poly, sign_table, variables_mask)
from boolsurf.restriction import Restriction


def complete(rho, y):
    """Full point index of sub-index y under rho: bit j of y goes to the
    j-th free coordinate, on top of the fixed -1 coordinates."""
    idx = rho.fixed_base_index()
    for j, i in enumerate(rho.free_indices().tolist()):
        idx |= (y >> j & 1) << i
    return idx


def naive_eval(poly, x):
    """Reference evaluation: explicit sign product per term."""
    total = 0.0
    for mask, coef in poly.terms.items():
        prod = 1.0
        for i in range(poly.n):
            if mask >> i & 1:
                prod *= -1.0 if x >> i & 1 else 1.0
        total += coef * prod
    return total


def maj_poly(n):
    return SparsePolynomial(n, {1 << i: 1.0 for i in range(n)})


def from_truth_table(table):
    """Exact multilinear interpolation: the Walsh spectrum as terms."""
    coefficients = walsh_hadamard(table.values) / (1 << table.n)
    return SparsePolynomial(table.n, dict(enumerate(coefficients)))


# ---------------------------------------------------------------- evaluation


def test_eval_single_variable():
    p = SparsePolynomial(1, {1: 1.0})
    assert eval_poly(p, 0) == 1.0
    assert eval_poly(p, 1) == -1.0


def test_eval_linear_three_vars():
    p = maj_poly(3)
    assert eval_poly(p, 0b100) == 1.0  # (+1, +1, -1)
    assert eval_poly(p, 0b111) == -3.0


def test_eval_harmonic_at_all_ones():
    p = generate("harmonic", 4)
    want = 1.0 + 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(3.0) + 0.5
    assert abs(eval_poly(p, 0) - want) < 1e-15


def test_eval_matches_naive_oracle():
    p = generate("random", 8, degree=3, seed=11)
    for x in range(256):
        assert abs(eval_poly(p, x) - naive_eval(p, x)) < 1e-12


def cube_values(p):
    """eval_on_cube's blocks joined into one array in index order."""
    return np.concatenate(list(eval_on_cube(p.masks, p.coefs, p.n)))


def test_eval_on_cube_matches_pointwise():
    p = generate("random", 7, degree=2, seed=3)
    vals = cube_values(p)
    for x in range(128):
        assert abs(vals[x] - eval_poly(p, x)) < 1e-12


def test_eval_on_cube_integer_coefficients_exact():
    p = SparsePolynomial(4, {0b0001: 3.0, 0b0110: -2.0, 0b1111: 1.0})
    vals = cube_values(p)
    assert all(vals[x] == naive_eval(p, x) for x in range(16))


@pytest.mark.parametrize("n", [10, 20])
def test_eval_on_cube_adds_repeated_unsorted_masks(n):
    # dyadic coefficients well below 2^53: every sum is exact in any order
    rng = np.random.default_rng(n)
    masks = rng.choice(rng.integers(0, 1 << n, size=12, dtype=np.uint64), size=40)
    coefs = np.ldexp(rng.integers(-64, 65, size=40).astype(np.float64), -6)
    assert len(np.unique(masks)) < len(masks) and (np.diff(masks.astype(np.int64)) < 0).any()
    collected = SparsePolynomial(n, zip(masks.tolist(), coefs.tolist()))
    got = np.concatenate(list(eval_on_cube(masks, coefs, n)))
    assert got.tobytes() == cube_values(collected).tobytes()


def test_eval_on_cube_capacity():
    p = SparsePolynomial(30, {1: 1.0})
    with pytest.raises(CapacityError):
        eval_on_cube(p.masks, p.coefs, p.n)


# ---------------------------------------------------------------- sign tables


def test_sign_table_majority():
    table, zero_hits = sign_table(maj_poly(3))
    assert table == TruthTable.majority(3)
    assert zero_hits == 0


def test_sign_table_negative_constant():
    table, zero_hits = sign_table(SparsePolynomial(2, {0: -2.0}))
    assert table.values.tolist() == [-1, -1, -1, -1]
    assert zero_hits == 0


def test_sign_table_zero_hits_counted_as_positive():
    table, zero_hits = sign_table(SparsePolynomial(2, {0b01: 1.0, 0b10: 1.0}))
    assert zero_hits == 2
    assert table.values[0b01] == 1 and table.values[0b10] == 1
    assert table.values[0b00] == 1 and table.values[0b11] == -1


def test_sign_table_matches_naive():
    p = generate("random", 10, degree=2, seed=9)
    table, _ = sign_table(p)
    for x in range(0, 1024, 37):
        want = 1 if naive_eval(p, x) >= 0 else -1
        assert table.values[x] == want


def exact_on_used_bits(p):
    """Exact p(x) as Fractions on the sub-cube of the variables p uses, and
    each of the 2^n point indices' sub-index into that list."""
    used = [i for i in range(p.n) if any(mask >> i & 1 for mask in p.terms)]
    values = []
    for sub in range(1 << len(used)):
        x = sum((sub >> j & 1) << i for j, i in enumerate(used))
        values.append(sum(Fraction(c) * (-1) ** bin(mask & x).count("1")
                          for mask, c in p.terms.items()))
    idx = np.arange(1 << p.n, dtype=np.int64)
    sub = np.zeros_like(idx)
    for j, i in enumerate(used):
        sub |= (idx >> i & 1) << j
    return values, sub


HIGH = 1 << 16  # the first variable past the dense transform's 16
EXACT_SIGN_CASES = {
    # exact value +-2^-55 (about 2.78e-17) where the float sums read +-5.55e-17
    "decimal": lambda n: {1: 0.1, 2: 0.2, 4: -0.3},
    "decimal-across-high-parts": lambda n: {1: 0.1, HIGH: 0.2, HIGH | 8: -0.3},
    # exact ties off the integer route
    "dyadic-ties": lambda n: {1: 0.5, 2: 0.25, 4: 0.25},
    "dyadic-ties-across-high-parts": lambda n: {HIGH: 0.5, HIGH | 2: 0.25, 4: 0.25},
    # a low and the top variable cancel 3 - 3, after the +-2^-55 rounded away
    "decimal-padded-on-high": lambda n: {1: 0.1, 2: 0.2, 4: -0.3, 32: 3.0, 1 << (n - 1): -3.0},
    # integers, but past 2^53: 2^53 + 1 rounds, so the integer shortcut must not apply
    "integers-past-2^53": lambda n: {1: 1.0, 32: 2.0 ** 53, 1 << (n - 1): -2.0 ** 53},
    # the four ones are lost to 2^53 one rounding at a time: the floats read
    # -3 where p(0) = +1, an error past u sum |c|, so the bound needs its depth
    "errors-past-one-rounding": lambda n: {0: 2.0 ** 53, 1: 1.0, 2: 1.0, 4: 1.0, 8: 1.0,
                                           16: -3.0, 1 << (n - 1): -2.0 ** 53},
}


@pytest.mark.parametrize("n", [17, 18])
@pytest.mark.parametrize("case", list(EXACT_SIGN_CASES))
def test_signs_exact_near_zero(case, n):
    p = SparsePolynomial(n, EXACT_SIGN_CASES[case](n))
    values, sub = exact_on_used_bits(p)
    want = np.array([1 if v >= 0 else -1 for v in values], dtype=np.int8)
    zeros = np.array([v == 0 for v in values])
    table, zero_hits = sign_table(p)
    assert np.array_equal(table.values, want[sub])
    # the count analyze reports as zero_sign_evaluations
    assert zero_hits == np.count_nonzero(zeros[sub])
    # eval_poly at every sub-cube pattern, the unused bits random: the exact
    # value rounded once, so its sign is the exact sign and sign_table's
    rng = np.random.default_rng(n)
    for s, v in enumerate(values):
        x = int(rng.choice(np.flatnonzero(sub == s)))
        got = eval_poly(p, x)
        assert got == float(v)
        assert (1 if got >= 0 else -1) == table.values[x]


# above 2^20 values the product comes in several blocks: each case puts
# flagged points in every block, and every pattern of the used bits recurs
# in each block (bit 16 or 17 alternates within one, or the top bit splits
# them and low bits vary inside)
MULTI_BLOCK_CASES = {
    "decimal-with-a-high-tie": lambda n: {1: 0.1, 2: 0.2, 4: -0.3, 2 * HIGH | 8: 0.3, 16: -0.3},
    **{case: EXACT_SIGN_CASES[case] for case in (
        "decimal-across-high-parts", "dyadic-ties-across-high-parts", "decimal-padded-on-high")},
}


@pytest.mark.parametrize("n", [21, 22])
@pytest.mark.parametrize("case", list(MULTI_BLOCK_CASES))
def test_signs_exact_across_product_blocks(case, n, monkeypatch):
    p = SparsePolynomial(n, MULTI_BLOCK_CASES[case](n))
    assert len(list(eval_on_cube(p.masks, p.coefs, p.n))) > 1
    decided = []
    exact_values = ptf._exact_values
    monkeypatch.setattr(ptf, "_exact_values",
                        lambda q, points: decided.extend(points.tolist()) or exact_values(q, points))
    values, sub = exact_on_used_bits(p)
    table, zero_hits = sign_table(p)
    assert np.array_equal(table.values, np.where(np.array(values) >= 0, 1, -1)[sub])
    assert zero_hits == np.count_nonzero(np.array([v == 0 for v in values])[sub])
    # one memo across the blocks: each flagged pattern is decided once
    assert len(decided) == len(set(decided))
    assert bool(decided) == (not case.startswith("dyadic"))


@pytest.mark.parametrize("n", range(17, 21))
def test_eval_on_cube_integer_coefficients_equal_dense_transform(n):
    p = generate("random", n, degree=2, seed=n)
    q = SparsePolynomial(n, {mask: float(round(8 * c)) for mask, c in p.terms.items()})
    dense = np.zeros(1 << n)
    dense[q.masks] = q.coefs
    assert cube_values(q).tobytes() == walsh_hadamard(dense).tobytes()


@pytest.mark.parametrize("n", [17, 19, 20])
def test_eval_on_cube_within_rounding_bound(n):
    # gamma_k sum |c| (Higham, ch. 4), k = 16 stages + r live high parts + 1
    p = generate("random-sparse", n, degree=3, nterms=80, seed=n)
    k = 16 + len(set((p.masks >> np.uint64(16)).tolist())) + 1
    bound = Fraction(k, 2 ** 53 - k) * sum(Fraction(abs(c)) for c in p.coefs.tolist())
    vals = cube_values(p)
    for x in np.random.default_rng(n).integers(0, 1 << n, size=64).tolist():
        exact = sum(Fraction(c) * (-1) ** bin(mask & x).count("1") for mask, c in p.terms.items())
        assert abs(Fraction(vals[x]) - exact) <= bound


def stacked_reference(p):
    """eval_on_cube's values built the zero-padded way: every live high
    part's low terms in one (r, 2^16) stack through walsh_hadamard, then
    chi(high, xs) @ rows per block of 2^(_PRODUCT_BITS - 16) high indices."""
    high, slot = np.unique(p.masks >> np.uint64(16), return_inverse=True)
    rows = np.zeros((len(high), 1 << 16))
    rows[slot, p.masks & np.uint64(0xFFFF)] = p.coefs
    rows = walsh_hadamard(rows)
    xs = np.arange(1 << (p.n - 16), dtype=np.uint64)
    chi = np.where(np.bitwise_count(high & xs[:, None]) & 1, -1.0, 1.0)
    step = 1 << (ptf._PRODUCT_BITS - 16)
    return np.concatenate([(chi[at:at + step] @ rows).reshape(-1)
                           for at in range(0, len(chi), step)])


HIGH_ROW_CASES = {
    **{f"{kind}:{n}": partial(generate, kind, n) for kind in ("maj", "harm") for n in (17, 21)},
    **{f"rand:d=2,n={n}": partial(generate, "rand", n, degree=2, seed=n) for n in range(17, 21)},
    **{f"rands:d=3,n={n}": partial(generate, "rands", n, degree=3, nterms=64, seed=n)
       for n in range(17, 23)},
    # high parts 2 and 5 hold one term each, on low mask 0: constant rows
    "constant-high-rows": lambda: SparsePolynomial(19, {1: 0.3, 6: -1.1, 2 * HIGH: 0.7,
                                                        5 * HIGH: 2.5, 5 * HIGH | 8: -0.2}),
    "integers": lambda: SparsePolynomial(18, {
        m: round(8 * c) or 1 for m, c in generate("rand", 18, degree=2).terms.items()}),
    "dyadic": lambda: SparsePolynomial(20, {
        m: math.ldexp(round(64 * c) or 1, -6)
        for m, c in generate("rands", 20, degree=3, nterms=64, seed=2).terms.items()}),
}


@pytest.mark.parametrize("case", list(HIGH_ROW_CASES))
def test_eval_on_cube_equals_the_zero_padded_stack(case):
    p = HIGH_ROW_CASES[case]()
    assert cube_values(p).tobytes() == stacked_reference(p).tobytes()


@pytest.mark.parametrize("case", ["maj:21", "harm:17", "rand:d=2,n=20", "rands:d=3,n=22",
                                  "constant-high-rows"])
def test_eval_on_cube_transforms_only_the_used_bits(case, monkeypatch):
    # one transform of 2^|U| cells per high part whose terms use a nonempty
    # set U of low bits, none for a row of one low-mask-0 term, whether the
    # terms come sorted or shuffled
    p = HIGH_ROW_CASES[case]()
    used = {}
    for mask in p.masks.tolist():
        used[mask >> 16] = used.get(mask >> 16, 0) | mask & 0xFFFF
    transform = ptf.walsh_hadamard
    for order in (slice(None), np.random.default_rng(1).permutation(len(p.masks))):
        cells = []
        monkeypatch.setattr(ptf, "walsh_hadamard",
                            lambda vec: cells.append(vec.size) or transform(vec))
        eval_on_cube(p.masks[order], p.coefs[order], p.n)
        assert sum(cells) == sum(1 << u.bit_count() for u in used.values() if u)
        if case == "maj:21":
            assert cells == [1 << 16]


@pytest.mark.parametrize("n", [0, 16, 17])
def test_sign_table_of_the_zero_polynomial(n):
    # no terms on the dense route (n <= 16) and none on the product route
    table, zero_hits = sign_table(SparsePolynomial(n, {}))
    assert table.values.tolist() == [1] * (1 << n)
    assert zero_hits == 1 << n


def test_eval_on_cube_transforms_in_the_callers_shape(monkeypatch):
    # a (terms,) input is one 2^n vector, a (rows, terms) stack one (rows, 2^n) stack
    shapes = []
    monkeypatch.setattr(ptf, "walsh_hadamard", lambda a: shapes.append(a.shape) or walsh_hadamard(a))
    sign_table(SparsePolynomial(3, {0b011: 1.0, 0b100: -0.5}))
    masks = np.array([[1, 2], [3, 3]], dtype=np.uint64)
    blocks = list(eval_on_cube(masks, np.array([[1.0, 2.0], [0.5, 0.25]]), 2))
    assert shapes == [(8,), (2, 4)]
    assert blocks[0].tolist() == [3.0, 1.0, -1.0, -3.0, 0.75, -0.75, -0.75, 0.75]


def test_sign_table_rejects_an_absolute_sum_past_float_range():
    with pytest.raises(InputError, match="absolute sum"):
        sign_table(SparsePolynomial(1, {0: 1e308, 1: 1e308}))


TOP = float(np.finfo(np.float64).max)


@pytest.mark.parametrize("terms", [{0: TOP}, {0: TOP, 1: 0.1}, {0: -TOP, 1: 1.0}])
def test_sign_table_at_the_top_of_float_range(terms):
    p = SparsePolynomial(1, terms)
    table, zero_hits = sign_table(p)
    assert table.values.tolist() == [int(np.sign(terms[0]))] * 2
    assert zero_hits == 0


# every coefficient a multiple of 2^e and sum |c| < 2^(53 + e): exact in any order
EXACT_ORDER_CASES = {
    "integers": ({1: 3.0, 2: -5.0}, True),
    "dyadic-ties": ({1: 0.5, 2: 0.25, 4: 0.25}, True),
    "scaled-integers": ({1: 2.0 ** 60, 2: -3 * 2.0 ** 60}, True),
    "subnormals": ({1: 5e-324, 2: -1e-323}, True),
    "top-of-range": ({1: TOP}, True),
    "decimal": ({1: 0.1, 2: 0.2, 4: -0.3}, False),
    "integers-to-2^53+1": ({1: 1.0, 2: 2.0 ** 53}, False),
    "halves-to-2^52+0.5": ({1: 0.5, 2: 2.0 ** 52}, False),
}


@pytest.mark.parametrize("case", list(EXACT_ORDER_CASES))
def test_rounding_radius_is_zero_exactly_when_every_order_is_exact(case):
    terms, exact = EXACT_ORDER_CASES[case]
    assert (ptf._rounding_radius(SparsePolynomial(18, terms)) == 0.0) == exact


def test_sign_table_decides_each_pattern_of_the_used_bits_once(monkeypatch):
    # x1 = x2 = x3 (a quarter of the points) leaves +-2^-55 under floats
    # that read +-5.55e-17: every such point is flagged, in two patterns
    p = SparsePolynomial(20, {1: 0.1, 2: 0.2, 4: -0.3})
    decided = []
    exact_values = ptf._exact_values
    monkeypatch.setattr(ptf, "_exact_values",
                        lambda q, points: decided.append(len(points)) or exact_values(q, points))
    table, zero_hits = sign_table(p)
    assert sum(decided) == 2
    values, sub = exact_on_used_bits(p)
    assert np.array_equal(table.values, np.where(np.array(values) >= 0, 1, -1)[sub])
    assert zero_hits == 0


def warm_sign_table_peak(p):
    """tracemalloc peak, in bytes, of sign_table(p) after one call has run."""
    sign_table(p)
    tracemalloc.start()
    try:
        sign_table(p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sign_table_memory_peak():
    # 18,091,248 bytes is the dense route's peak at n = 20: the 8 MiB dense
    # vector, its transformed copy and the sign pass.  A filter that builds a
    # 2^20 float temporary (np.abs of the values) goes past it.
    assert warm_sign_table_peak(generate("random", 20, degree=2, seed=0)) <= 18_091_248


def test_sign_table_never_holds_every_value():
    # 2^23 float64 values alone take 2^23 * 8 bytes: the product is formed
    # and signed one block at a time, so the signs, the transformed stack
    # and one block stay below that
    p = generate("random-sparse", 23, degree=3, nterms=64, seed=0)
    assert warm_sign_table_peak(p) < (1 << 23) * 8


# ---------------------------------------------------------------- construction


def test_polynomial_validation():
    with pytest.raises(InputError):
        SparsePolynomial(2, {8: 1.0})  # mask uses variable 4
    with pytest.raises(InputError):
        SparsePolynomial(2, {1: float("nan")})
    with pytest.raises(CapacityError):
        SparsePolynomial(65, {1: 1.0})
    # zero coefficients are dropped, degree tracks surviving terms
    p = SparsePolynomial(3, {0b111: 0.0, 0b11: 2.0})
    assert p.terms == {0b11: 2.0}
    assert p.degree == 2


def test_zero_polynomial_flag():
    assert SparsePolynomial(3, {}).is_zero
    assert not SparsePolynomial(3, {0: 1.0}).is_zero


def test_json_round_trip():
    p = generate("random", 6, degree=3, seed=4)
    q = SparsePolynomial.from_json_dict(p.to_json_dict())
    assert q.n == p.n
    assert q.terms.keys() == p.terms.keys()
    for mask in p.terms:
        assert abs(q.terms[mask] - p.terms[mask]) < 1e-15


def test_json_duplicate_variables_rejected():
    with pytest.raises(InputError):
        SparsePolynomial.from_json_dict(
            {"n": 2, "terms": [{"vars": [1, 1], "coef": 1.0}]})


def test_json_repeated_subsets_are_summed():
    p = SparsePolynomial.from_json_dict(
        {"n": 2, "terms": [{"vars": [1], "coef": 1.0},
                           {"vars": [1], "coef": 2.0}]})
    assert p.terms == {1: 3.0}


def test_json_like_terms_are_correctly_rounded_in_any_order():
    # added left to right, 0.1 + 0.2 + 0.3 is 0.6000000000000001
    for order in permutations([0.1, 0.2, 0.3]):
        p = SparsePolynomial.from_json_dict(
            {"n": 2, "terms": [{"vars": [2], "coef": c} for c in order]})
        assert p.terms == {2: 0.6}


def test_repeated_constructor_pairs_are_combined():
    assert SparsePolynomial(2, [(1, 1.0), (1, 2.0)]).terms == {1: 3.0}
    assert SparsePolynomial(2, [(2, 0.3), (1, -1.0), (2, 0.2), (2, 0.1)]).terms == {1: -1.0, 2: 0.6}
    assert SparsePolynomial(2, [(1, 0.5), (1, -0.5)]).is_zero


def test_like_terms_past_the_float_range_are_rejected():
    with pytest.raises(InputError):
        SparsePolynomial.from_json_dict({"n": 1, "terms": [{"vars": [1], "coef": 1e308}] * 2})
    with pytest.raises(InputError):
        SparsePolynomial(1, [(1, 1e308), (1, 1e308)])


def test_like_terms_whose_partial_sums_overflow_are_combined():
    # math.fsum raises on the intermediate 2e308, though the sum is 1e308
    pairs = [(1, 1e308), (1, 1e308), (1, -1e308)]
    assert SparsePolynomial(1, pairs).terms == {1: 1e308}
    json_terms = [{"vars": [1], "coef": c} for _, c in pairs]
    assert SparsePolynomial.from_json_dict({"n": 1, "terms": json_terms}).terms == {1: 1e308}


def test_combine_equals_the_fraction_oracle():
    rng = np.random.default_rng(2026)
    for _ in range(300):
        size = int(rng.integers(1, 40))
        masks = rng.integers(0, int(rng.integers(1, 12)), size=size).astype(np.uint64)
        coefs = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size=size)
        tiny = rng.random(size) < 0.2  # subnormals
        coefs[tiny] = rng.integers(-2 ** 52, 2 ** 52, size=int(tiny.sum())) * 5e-324
        pairs = rng.random(size) < 0.3  # cancelling pairs: the term and its negation
        masks = np.concatenate([masks, masks[pairs]])
        coefs = np.concatenate([coefs, -coefs[pairs]])
        got_masks, got = ptf._combine(masks, coefs)
        want: dict[int, Fraction] = {}
        for m, c in zip(masks.tolist(), coefs.tolist()):
            want[m] = want.get(m, Fraction(0)) + Fraction(c)
        assert got_masks.dtype == np.uint64 and got_masks.tolist() == sorted(want)
        assert got.tolist() == [float(want[m]) for m in sorted(want)]


def test_combine_sums_only_repeated_masks(monkeypatch):
    calls = []
    monkeypatch.setattr(math, "fsum", lambda values: calls.append(values) or sum(values))
    masks = np.arange(1000, dtype=np.uint64)
    masks[[10, 20, 21]] = [5, 7, 7]
    coefs = np.arange(1.0, 1001.0)
    got_masks, got = ptf._combine(masks, coefs)
    assert sorted(sorted(group) for group in calls) == [[6.0, 11.0], [8.0, 21.0, 22.0]]
    assert len(got_masks) == 997 and got[got_masks.tolist().index(999)] == 1000.0


def test_json_validation():
    with pytest.raises(InputError):
        SparsePolynomial.from_json_dict({"terms": []})
    with pytest.raises(InputError):
        SparsePolynomial.from_json_dict({"n": 2, "terms": [{"vars": [3], "coef": 1.0}]})
    with pytest.raises(InputError):
        SparsePolynomial.from_json_dict({"n": 2, "terms": [{"vars": [0], "coef": 1.0}]})


def test_variables_mask_owns_variable_lists():
    assert variables_mask([1, 3], 3) == 0b101
    assert variables_mask([], 3) == 0
    with pytest.raises(ParseError):
        variables_mask([2, 2], 3)
    for bad in ([0], [4], ["a"], [1.5], [float("inf")]):
        with pytest.raises(InputError) as info:
            variables_mask(bad, 3)
        assert not isinstance(info.value, ParseError)
    with pytest.raises(InputError, match="^term 1: variable 'a' is not an integer$"):
        SparsePolynomial.from_json_dict(
            {"n": 2, "terms": [{"vars": [1], "coef": 1.0}, {"vars": ["a"], "coef": 1.0}]})


def test_from_truth_table_majority3():
    p = from_truth_table(TruthTable.majority(3))
    assert set(p.terms) == {0b001, 0b010, 0b100, 0b111}
    for mask in (0b001, 0b010, 0b100):
        assert abs(p.terms[mask] - 0.5) < 1e-12
    assert abs(p.terms[0b111] + 0.5) < 1e-12
    table, zero_hits = sign_table(p)
    assert table == TruthTable.majority(3)
    assert zero_hits == 0


def test_terms_stored_as_sorted_read_only_arrays():
    p = SparsePolynomial(3, {0b101: 2.0, 0b001: -1.0, 0b010: 0.0})
    assert p.masks.dtype == np.uint64 and p.coefs.dtype == np.float64
    assert p.masks.tolist() == [0b001, 0b101] and p.coefs.tolist() == [-1.0, 2.0]
    assert not p.masks.flags.writeable and not p.coefs.flags.writeable
    assert [(type(m), type(c)) for m, c in p.terms.items()] == [(int, float)] * 2


# ---------------------------------------------------------------- restriction


def test_restrict_product_term():
    p = SparsePolynomial(2, {0b11: 1.0})
    plus = restrict_poly(p, Restriction.from_string("*+"))
    assert plus.n == 1 and plus.terms == {1: 1.0}
    minus = restrict_poly(p, Restriction.from_string("*-"))
    assert minus.terms == {1: -1.0}


def test_restrict_with_cancellation():
    # x1 + x1 x3 + x2 x3 with x3 = -1 collapses to -x2
    p = SparsePolynomial(3, {0b001: 1.0, 0b101: 1.0, 0b110: 1.0})
    q = restrict_poly(p, Restriction.from_string("**-"))
    assert q.n == 2
    assert q.terms == {0b10: -1.0}


def test_restrict_then_eval_matches_completion():
    p = generate("random", 8, degree=3, seed=21)
    rng = np.random.default_rng(77)
    for _ in range(50):
        pattern = rng.choice([-1, 0, 1], size=8)
        rho = Restriction(pattern)
        q = restrict_poly(p, rho)
        assert q.n == rho.free_count
        for y in range(1 << q.n):
            want = eval_poly(p, complete(rho, y))
            assert abs(eval_poly(q, y) - want) < 1e-11


def test_restrict_degree_never_increases():
    p = generate("random", 7, degree=3, seed=2)
    rng = np.random.default_rng(5)
    for _ in range(30):
        rho = Restriction(rng.choice([-1, 0, 1], size=7))
        assert restrict_poly(p, rho).degree <= p.degree


def test_restrict_fully_fixed():
    p = maj_poly(3)
    q = restrict_poly(p, Restriction.from_string("+-+"))
    assert q.n == 0
    assert q.terms == {0: 1.0}


def test_restrict_overflow_raises():
    p = SparsePolynomial(3, {0b001: 1e308, 0b011: 1e308})
    with pytest.raises(InputError):
        restrict_poly(p, Restriction([0, 1, 1]))
    assert restrict_poly(p, Restriction([0, -1, 1])).is_zero  # x2 = -1 cancels them


def test_restrict_dimension_mismatch():
    with pytest.raises(InputError):
        restrict_poly(maj_poly(3), Restriction.from_string("+*"))


# ---------------------------------------------------------------- statistics


def test_poly_stats_dictator():
    stats = poly_stats(SparsePolynomial(2, {1: 1.0}))
    assert stats.variance == 1.0
    assert stats.influences.tolist() == [1.0, 0.0]
    assert stats.regular_tau == 1.0


def test_poly_stats_balanced_linear():
    c = 1.0 / math.sqrt(3.0)
    stats = poly_stats(SparsePolynomial(3, {1: c, 2: c, 4: c}))
    assert abs(stats.variance - 1.0) < 1e-12
    for inf in stats.influences:
        assert abs(inf - 1.0 / 3.0) < 1e-12
    assert abs(stats.regular_tau - 1.0 / 3.0) < 1e-12


def test_poly_stats_unbalanced_linear():
    stats = poly_stats(SparsePolynomial(2, {1: 1.0, 2: 0.5}))
    assert stats.variance == 1.25
    assert stats.influences.tolist() == [1.0, 0.25]
    assert stats.regular_tau == 0.8


def test_poly_stats_constant_and_zero():
    stats = poly_stats(SparsePolynomial(3, {0: 2.0}))
    assert stats.variance == 0.0
    assert stats.regular_tau == 0.0
    with pytest.raises(DegenerateInputError):
        poly_stats(SparsePolynomial(3, {}))


def test_poly_stats_boolean_matches_table_influence():
    f = TruthTable.majority(5)
    stats = poly_stats(from_truth_table(f))
    _, per = total_influence(f)
    for got, want in zip(stats.influences, per):
        assert abs(got - want) < 1e-12


# ---------------------------------------------------------------- alpha


def test_alpha_dictator_is_one():
    p = SparsePolynomial(1, {1: 1.0})
    assert alpha_exact(p) == 1.0
    est = alpha_estimate(p, trials=100, seed=0)
    assert est.estimate == 1.0
    assert est.stderr == 0.0


def test_alpha_two_variable_sum():
    p = SparsePolynomial(2, {1: 1.0, 2: 1.0})
    assert alpha_exact(p) == 0.75


def test_alpha_exact_capacity_and_validation():
    with pytest.raises(CapacityError):
        alpha_exact(SparsePolynomial(ALPHA_EXACT_CAP + 1, {1: 1.0}))
    with pytest.raises(DegenerateInputError):
        alpha_exact(SparsePolynomial(2, {}))
    with pytest.raises(DegenerateInputError):
        alpha_estimate(SparsePolynomial(2, {}), trials=10, seed=0)
    with pytest.raises(InputError):
        alpha_estimate(maj_poly(3), trials=0, seed=0)


@pytest.mark.parametrize("n, seed, want", [(6, 3, 0.7350877552626325),
                                           (9, 11, 0.7185232508795675)])
def test_golden_alpha_exact(n, seed, want):
    assert alpha_exact(generate("random", n, degree=2, seed=seed)) == want


def reference_alpha_exact(p):
    """The unblocked formula alpha_exact ran before its row blocks: the
    whole (points A, points B) array of derivative values at once."""
    signs = all_points_signs(p.n)
    points = np.arange(1 << p.n, dtype=np.uint64)
    chi = np.where(np.bitwise_count(p.masks & points[:, None]) & 1, -1.0, 1.0)
    var_count = (p.masks[:, None] >> np.arange(p.n, dtype=np.uint64) & 1).astype(np.float64)
    pv = chi @ p.coefs
    weighted = chi * p.coefs[None, :]
    dv = (weighted @ var_count) @ signs.T
    zero = pv[:, None] == 0.0
    ratio = np.minimum(1.0, (dv / np.where(zero, 1.0, pv[:, None])) ** 2)
    np.copyto(ratio, 1.0, where=zero)
    return float(ratio.mean())


def alpha_cases(n):
    seeds = np.random.default_rng(n).integers(1 << 31, size=4).tolist()
    sparse_terms = min(24, sum(math.comb(n, k) for k in range(min(n, 3) + 1)))
    return ([generate("majority", n), generate("harmonic", n)]  # even majority hits p = 0
            + [generate("random", n, degree=min(n, d), seed=seeds[d]) for d in (1, 2, 3)]
            + [generate("random-sparse", n, degree=min(n, 3), nterms=sparse_terms,
                        seed=seeds[0])])


@pytest.mark.parametrize("n", range(1, ALPHA_EXACT_CAP + 1))
def test_alpha_exact_blocks_match_the_unblocked_formula(n):
    for p in alpha_cases(n):
        got, want = alpha_exact(p), reference_alpha_exact(p)
        # the block sums fold into the whole array's sum exactly; from n = 10
        # a block's BLAS product may round in another order than the whole one
        if n <= 9:
            assert got == want
        else:
            assert abs(got - want) <= 4 * np.spacing(want)


def test_alpha_estimate_concentrates_on_exact():
    p = generate("random", 6, degree=2, seed=13)
    truth = alpha_exact(p)
    hits = 0
    for seed in range(100):
        est = alpha_estimate(p, trials=256, seed=seed)
        if abs(est.estimate - truth) <= 4.0 * est.stderr + 1e-12:
            hits += 1
    assert hits >= 99


def test_alpha_estimate_deterministic():
    p = generate("random", 8, degree=2, seed=1)
    a = alpha_estimate(p, trials=500, seed=42, workers=3)
    b = alpha_estimate(p, trials=500, seed=42, workers=3)
    assert a == b


def test_alpha_estimate_ignores_workers_beyond_trials():
    # chunks past the trial count are empty; they must not even be walked
    q = generate("random", 10, degree=2, seed=4)
    assert (alpha_estimate(q, 10, seed=0, workers=10**12)
            == alpha_estimate(q, 10, seed=0, workers=10))


# ---------------------------------------------------------------- golden values
# Exact reference figures: they pin the order in which terms are summed
# and how the random streams are consumed.


def test_golden_stats_and_evaluation():
    q = generate("random", 10, degree=2, seed=4)
    stats = poly_stats(q)
    assert stats.variance == 58.67931870074336
    assert stats.regular_tau == 0.30759317225799426
    # eval_poly is correctly rounded: these are the exact rational sums rounded once
    assert eval_poly(q, 0) == -5.95949137389884
    assert eval_poly(q, 777) == 2.835369039696074


def test_golden_alpha_estimate():
    q = generate("random", 10, degree=2, seed=4)
    assert alpha_estimate(q, 3000, seed=5, workers=2) == (0.7334012683720249,
                                                          0.006975978299715539)


# ---------------------------------------------------------------- generators


def test_generate_majority_and_parity():
    table, _ = sign_table(generate("majority", 5))
    assert table == TruthTable.majority(5)
    p = generate("parity", 4, subset=0b101)
    assert p.terms == {0b101: 1.0}


def test_generate_harmonic_coefficients():
    p = generate("harmonic", 5)
    for i in range(5):
        assert abs(p.terms[1 << i] - 1.0 / math.sqrt(i + 1)) < 1e-15


def test_generate_random_deterministic():
    a = generate("random", 8, degree=2, seed=7)
    b = generate("random", 8, degree=2, seed=7)
    assert a.terms == b.terms
    assert a.terms != generate("random", 8, degree=2, seed=8).terms


def test_generate_random_sparse_term_count():
    p = generate("random-sparse", 12, degree=3, nterms=20, seed=0)
    assert len(p.terms) == 20
    assert p.degree <= 3


def test_generate_validation():
    with pytest.raises(InputError):
        generate("mystery", 4)
    with pytest.raises(InputError):
        generate("random", 4, degree=-1, seed=0)
    with pytest.raises(InputError):
        generate("random-sparse", 4, degree=2, nterms=0, seed=0)
    with pytest.raises(InputError):
        generate("parity", 3, subset=0b1000)
    with pytest.raises(InputError):
        generate("parity", 3)


@pytest.mark.parametrize("call, cls, text", [
    (lambda: eval_poly(maj_poly(3), 8), InputError, "point index 8 out of range for n=3"),
    (lambda: TruthTable.parity(3, 8), InputError, "subset mask 8 out of range for n=3"),
    (lambda: generate("parity", 3, subset=8), InputError,
     "subset mask 8 out of range for n=3"),
    (lambda: SparsePolynomial(2, {4: 1.0}), InputError, "term mask 4 out of range for n=2"),
    (lambda: SparsePolynomial(-1, {}), InputError, "variable count must be >= 0, got -1"),
    (lambda: SparsePolynomial(65, {}), CapacityError,
     "n=65 exceeds the storage cap of 64 variables"),
    (lambda: generate("majority", 65), CapacityError,
     "n=65 exceeds the storage cap of 64 variables"),
], ids=["eval_poly", "TruthTable.parity",
        "generate-parity", "SparsePolynomial-mask", "SparsePolynomial-negative-n",
        "SparsePolynomial-cap", "generate-cap"])
def test_index_and_storage_checks_keep_class_and_text(call, cls, text):
    with pytest.raises(BoolsurfError) as caught:
        call()
    assert caught.type is cls
    assert str(caught.value) == text


@pytest.mark.parametrize("n", [3, 5, 7])
def test_majority_influence_binomial_identity(n):
    table, _ = sign_table(generate("majority", n))
    _, per = total_influence(table)
    want = math.comb(n - 1, (n - 1) // 2) / 2.0 ** (n - 1)
    for inf in per:
        assert inf == want
