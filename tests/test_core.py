import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from boolsurf.core import (EXACT_CAP, TruthTable, _subset_sums, _transform, all_function_words,
                           all_points_signs, bsa, bsa_via_tails, fractional_moment, gather_bits,
                           minus_mask, noise_sensitivity, noise_sensitivity_semigroup,
                           pack_signs, popcount_table, scatter_bits, sensitivities,
                           sensitivity_histogram, to_signs, total_influence, walsh_hadamard)
from boolsurf.errors import CapacityError, InputError
from boolsurf.ptf import generate, sign_table


def brute_sensitivity(values, n, x):
    """Independent reference: explicit flip loop, no vectorisation."""
    return sum(1 for i in range(n) if values[x] != values[x ^ (1 << i)])


def reference_index_to_point(n, x):
    """Coordinate signs of point index x, one bit at a time: bit i set means -1."""
    return np.array([-1 if x >> i & 1 else 1 for i in range(n)], dtype=np.int8)


def brute_profile(table):
    counts = [0] * (table.n + 1)
    for x in range(1 << table.n):
        counts[brute_sensitivity(table.values, table.n, x)] += 1
    return counts


# ---------------------------------------------------------------- tables


def test_table_validation():
    with pytest.raises(InputError):
        TruthTable(2, [1, 1, 1])  # wrong length
    with pytest.raises(InputError):
        TruthTable(1, [1, 0])  # bad entry
    for bad in ([255, 1], [1.5, -1], [257, -1]):  # int8 casts give valid signs
        with pytest.raises(InputError):
            TruthTable(1, bad)
    with pytest.raises(InputError):
        TruthTable(-1, [])
    with pytest.raises(CapacityError):
        TruthTable(EXACT_CAP + 1, [1])


def test_zero_variable_table_is_legal():
    f = TruthTable.constant(0, -1)
    assert f.values.tolist() == [-1]
    assert f.profile().counts.tolist() == [1]
    assert bsa(f) == 0.0
    total, per = total_influence(f)
    assert total == 0.0 and per.size == 0


def test_point_encoding_round_trip():
    n = 6
    for x in range(1 << n):
        assert minus_mask(reference_index_to_point(n, x)) == x
    # bit i set <=> coordinate i is -1, and XOR flips exactly that coordinate
    point = reference_index_to_point(n, 0b101)
    assert point.tolist() == [-1, 1, -1, 1, 1, 1]
    flipped = reference_index_to_point(n, 0b101 ^ (1 << 1))
    assert flipped[1] == -point[1]
    assert (flipped[[0, 2, 3, 4, 5]] == point[[0, 2, 3, 4, 5]]).all()


def test_all_points_signs_matches_scalar_encoding():
    signs = all_points_signs(4)
    for x in range(16):
        assert (signs[x] == reference_index_to_point(4, x)).all()


# ---------------------------------------------------------------- sensitivity


def test_sensitivity_majority5_weight3_point():
    f = TruthTable.majority(5)
    x = 0b00011  # two coordinates at -1, three at +1
    s, _ = sensitivities(f.values)
    assert s[x] == 3
    assert s[x] == brute_sensitivity(f.values, 5, x)


def test_sensitivity_constant_and_embedded_parity():
    s, _ = sensitivities(TruthTable.constant(4).values)
    assert (s == 0).all()
    s, _ = sensitivities(TruthTable.parity(5, 0b00011).values)
    assert (s == 2).all()


def test_profile_majority5():
    counts = TruthTable.majority(5).profile().counts
    assert counts.tolist() == [12, 0, 0, 20, 0, 0]


def test_profile_dictator_and_full_parity():
    assert TruthTable.dictator(6, 2).profile().counts.tolist() \
        == [0, 64, 0, 0, 0, 0, 0]
    par = TruthTable.parity(5, 0b11111).profile()
    assert par.counts.tolist() == [0, 0, 0, 0, 0, 32]


@pytest.mark.parametrize("seed", range(10))
def test_profile_matches_brute_oracle(seed):
    f = TruthTable.random(seed % 7 + 1, seed=seed)
    assert f.profile().counts.tolist() == brute_profile(f)


# ---------------------------------------------------------------- kernel


def test_batched_sensitivities_match_single_tables_and_oracle():
    tables = [TruthTable.random(5, seed=seed) for seed in range(6)]
    batch = np.stack([f.values for f in tables]).reshape(2, 3, 32)
    sens, _ = sensitivities(batch)
    assert sens.shape == (2, 3, 32) and sens.dtype == np.uint8
    for row, f in zip(sens.reshape(6, 32), tables):
        single, _ = sensitivities(f.values)
        assert row.tolist() == single.tolist()
        assert row.tolist() == [brute_sensitivity(f.values, 5, x) for x in range(32)]


def test_sensitivities_are_c_contiguous():
    batch = np.stack([TruthTable.random(4, seed=seed).values for seed in range(7)])
    sens, _ = sensitivities(batch)
    assert sens.flags.c_contiguous
    assert sensitivities(batch[0])[0].flags.c_contiguous


def test_edges_match_brute_pair_counts():
    tables = [TruthTable.random(6, seed=seed) for seed in range(4)]
    _, edges = sensitivities(np.stack([f.values for f in tables]))
    brute = [sum(int(f.values[x] != f.values[x ^ (1 << i)])
                 for f in tables for x in range(64) if not x >> i & 1)
             for i in range(6)]
    assert edges.tolist() == brute


def test_sensitivities_validation():
    with pytest.raises(InputError):
        sensitivities(np.ones(6))
    with pytest.raises(InputError):
        sensitivities(np.ones((3, 0)))


def byte_scan_histogram(values, n):
    """Per-table counts and the edges summed over tables, from the per-point scan."""
    sens, edges = sensitivities(values.reshape(-1, 1 << n))
    cells = (np.arange(len(sens)) * (n + 1))[:, None] + sens  # table * (n + 1) + s
    counts = np.bincount(cells.ravel(), minlength=len(sens) * (n + 1))
    return counts.reshape(len(sens), n + 1), edges


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_histogram_of_every_function_matches_brute_and_byte_scan(n):
    size = 1 << n
    words = all_function_words(n)
    counts, edges = sensitivity_histogram(words, n)
    assert counts.shape == (1 << size, n + 1) and edges.shape == (1 << size, n)
    # brute force on the bits of each word: point x and x ^ 2^i disagree
    bits = (words >> np.arange(size, dtype=np.uint64)) & np.uint64(1)
    axes = [bits != bits[:, np.arange(size) ^ (1 << i)] for i in range(n)]
    brute = np.sum(axes, axis=0)
    assert np.array_equal(counts, [np.bincount(row, minlength=n + 1) for row in brute])
    assert np.array_equal(2 * edges, np.stack([a.sum(axis=1) for a in axes], axis=1))
    # the packed word of function c is c itself
    values = 1 - 2 * bits.astype(np.int8)
    assert np.array_equal(pack_signs(values), words)
    scan_counts, scan_edges = byte_scan_histogram(values, n)
    assert np.array_equal(counts, scan_counts)
    assert np.array_equal(edges.sum(axis=0), scan_edges)


def kernel_tables(n):
    if n == 0:
        return [TruthTable.constant(0, -1), TruthTable.random(0, seed=3)]
    return [TruthTable.majority(n), TruthTable.parity(n, (1 << n) - 1),
            TruthTable.parity(n, 0b101 & ((1 << n) - 1)),
            TruthTable.random(n, seed=n), TruthTable.random(n, seed=100 + n)]


# 6 is one full word, 7 two words; 12 and 17 pair words inside one strip
@pytest.mark.parametrize("n", [0, 1, 5, 6, 7, 12, 17])
def test_histogram_matches_byte_scan_and_oracle(n):
    tables = kernel_tables(n)
    for f in tables:
        counts, edges = sensitivity_histogram(pack_signs(f.values), n)
        sens, scan_edges = sensitivities(f.values)
        assert counts.tolist() == np.bincount(sens, minlength=n + 1).tolist()
        assert edges.tolist() == scan_edges.tolist()
        if n <= 7:
            assert counts.tolist() == brute_profile(f)
    stack = np.stack([f.values for f in tables])
    counts, edges = sensitivity_histogram(pack_signs(stack.reshape(-1, 1, 1 << n)), n)
    assert counts.shape == (len(tables), 1, n + 1) and edges.shape == (len(tables), 1, n)
    scan_counts, scan_edges = byte_scan_histogram(stack, n)
    assert np.array_equal(counts[:, 0], scan_counts)
    assert np.array_equal(edges[:, 0].sum(axis=0), scan_edges)


@pytest.mark.parametrize("strip_bits", [0, 1, 3])
@pytest.mark.parametrize("n", [7, 12])
def test_histogram_pairs_words_across_strips(monkeypatch, n, strip_bits):
    import boolsurf.core as core
    monkeypatch.setattr(core, "_STRIP_BITS", strip_bits)
    for f in kernel_tables(n):
        counts, edges = sensitivity_histogram(pack_signs(f.values), n)
        sens, scan_edges = sensitivities(f.values)
        assert counts.tolist() == np.bincount(sens, minlength=n + 1).tolist()
        assert edges.tolist() == scan_edges.tolist()


def test_histogram_at_full_strip_width():
    # 2^21 points are two strips of 2^14 words: axis 20 pairs the strips
    f = TruthTable.random(21, seed=21)
    sens, scan_edges = sensitivities(f.values)
    assert f.profile().counts.tolist() == np.bincount(sens, minlength=22).tolist()
    assert f._edges.tolist() == scan_edges.tolist()


def test_histogram_validation():
    with pytest.raises(InputError):
        sensitivity_histogram(np.zeros(2, dtype=np.uint64), 6)
    with pytest.raises(InputError):
        sensitivity_histogram(np.zeros(1, dtype=np.uint64), 7)


def test_pack_signs_layout():
    values = np.ones(128, dtype=np.int8)
    values[[0, 5, 63, 64, 127]] = -1
    assert pack_signs(values).tolist() == [(1 << 63) | (1 << 5) | 1, (1 << 63) | 1]
    assert pack_signs(np.array([1, -1, -1, 1])).tolist() == [0b0110]
    assert pack_signs(np.ones((3, 2, 8))).shape == (3, 2, 1)


def test_all_functions_rows_and_cap_reach_both_audits():
    from boolsurf.boundary import edge_threshold_check_exhaustive
    from boolsurf.restriction import sensitive_fraction_bound_exhaustive
    words = all_function_words(2)
    assert words.shape == (16, 1) and words[:, 0].tolist() == list(range(16))
    with pytest.raises(CapacityError):
        all_function_words(5)
    with pytest.raises(CapacityError):
        edge_threshold_check_exhaustive(5)
    with pytest.raises(CapacityError):
        sensitive_fraction_bound_exhaustive(5)


def test_block_bound_golden_digits():
    from boolsurf.partition import bsa_block_bound
    from boolsurf.ptf import generate, sign_table
    f = sign_table(generate("random", 10, degree=2, seed=100))[0]
    rep = bsa_block_bound(f, 2, trials=4000, seed=20260814, workers=1)
    assert rep.rhs_estimate == 1.4523564346100697
    assert rep.stderr == 0.00374142201920397


def test_profile_validation():
    from boolsurf.core import SensitivityProfile
    with pytest.raises(InputError):
        SensitivityProfile(2, [1, 1, 1])  # sums to 3, not 4
    with pytest.raises(InputError):
        SensitivityProfile(1, [3, -1])


# ---------------------------------------------------------------- moments


def test_bsa_golden_values():
    assert abs(bsa(TruthTable.majority(5)) - 5.0 * math.sqrt(3.0) / 8.0) < 1e-15
    assert abs(bsa(TruthTable.parity(5, 0b00011)) - math.sqrt(2.0)) < 1e-15
    assert bsa(TruthTable.constant(3)) == 0.0


def test_total_influence_golden_values():
    total, per = total_influence(TruthTable.majority(5))
    assert total == 1.875
    assert per.tolist() == [0.375] * 5
    total, per = total_influence(TruthTable.parity(5, 0b00011))
    assert total == 2.0
    assert per.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]
    assert total_influence(TruthTable.dictator(4)).total == 1.0


def test_total_influence_sums_to_total():
    for seed in range(5):
        f = TruthTable.random(8, seed=seed)
        total, per = total_influence(f)
        assert abs(total - per.sum()) < 1e-12


def test_fractional_moment_identities():
    f = TruthTable.majority(5)
    assert fractional_moment(f, 0.5) == bsa(f)  # same summation, bit-identical
    assert fractional_moment(f, 1.0) == total_influence(f).total
    assert fractional_moment(f, 1.0) == 1.875


def test_fractional_moment_constant_sensitivity():
    # s identically 2 for the embedded two-variable parity
    f = TruthTable.parity(6, 0b11)
    for alpha in (0.25, 0.5, 0.75, 1.0):
        assert abs(fractional_moment(f, alpha) - 2.0 ** alpha) < 1e-12


def test_fractional_moment_validation():
    f = TruthTable.majority(3)
    for alpha in (0.0, -0.5, 1.5):
        with pytest.raises(InputError):
            fractional_moment(f, alpha)


def test_fractional_moment_monotone_when_sensitivity_positive():
    grid = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    for f in (TruthTable.dictator(5), TruthTable.parity(5, 0b11111),
              TruthTable.parity(2, 0b11)):
        vals = [fractional_moment(f, a) for a in grid]
        assert all(lo <= hi + 1e-15 for lo, hi in zip(vals, vals[1:]))


def test_bsa_via_tails_golden_and_telescoping():
    maj3 = TruthTable.majority(3)
    assert maj3.profile().counts.tolist() == [2, 0, 6, 0]
    assert abs(bsa_via_tails(maj3) - (6.0 / 8.0) * math.sqrt(2.0)) < 1e-15
    assert bsa_via_tails(TruthTable.constant(5, -1)) == 0.0
    assert abs(bsa_via_tails(TruthTable.parity(9, (1 << 9) - 1)) - 3.0) < 1e-12


def test_bsa_via_tails_matches_bsa():
    for seed in range(20):
        f = TruthTable.random(seed % 9 + 1, seed=seed)
        assert abs(bsa_via_tails(f) - bsa(f)) < 1e-12


def test_holder_bound():
    for seed in range(30):
        f = TruthTable.random(seed % 11 + 1, seed=seed)
        profile = f.profile()
        assert profile.bsa() <= math.sqrt(profile.moment(1.0)) + 1e-12


# ---------------------------------------------------------------- transform


def reference_walsh_hadamard(vec):
    """The plain radix-2 loop: one whole-table pass per stage, in stage order."""
    out = np.array(vec, dtype=np.float64, copy=True)
    h = 1
    while h < out.shape[0]:
        blocks = out.reshape(-1, 2, h)
        top = blocks[:, 0, :] + blocks[:, 1, :]
        bottom = blocks[:, 0, :] - blocks[:, 1, :]
        blocks[:, 0, :] = top
        blocks[:, 1, :] = bottom
        h *= 2
    return out


# 17 and 20 reach the strip pass with an odd and an even number of high stages
@pytest.mark.parametrize("n", list(range(19)) + [20])
def test_walsh_hadamard_matches_radix2_loop_bit_for_bit(n):
    vec = np.random.default_rng(1000 + n).standard_normal(1 << n)
    given = vec.copy()
    assert np.array_equal(walsh_hadamard(vec), reference_walsh_hadamard(vec))
    assert np.array_equal(vec, given)


@pytest.mark.parametrize("n", [3, 12, 17])
def test_walsh_hadamard_int8_input(n):
    vec = np.random.default_rng(n).integers(-128, 128, size=1 << n, dtype=np.int8)
    given = vec.copy()
    out = walsh_hadamard(vec)
    assert out.dtype == np.float64
    assert np.array_equal(out, reference_walsh_hadamard(vec))
    assert np.array_equal(vec, given)


@pytest.mark.parametrize("shape", [(1,), (37,), (2, 3)])
@pytest.mark.parametrize("n", range(13))
def test_walsh_hadamard_stack_matches_radix2_loop_row_by_row(n, shape):
    stack = np.random.default_rng(2000 + n).standard_normal(shape + (1 << n,))
    given = stack.copy()
    out = walsh_hadamard(stack)
    assert out.shape == stack.shape and out.dtype == np.float64 and out.flags.c_contiguous
    for row, want in zip(out.reshape(-1, 1 << n), stack.reshape(-1, 1 << n)):
        assert np.array_equal(row, reference_walsh_hadamard(want))
    assert np.array_equal(stack, given)


# rows of 2^16 and more run one at a time through the blocked stages
@pytest.mark.parametrize("dtype", [np.float64, np.int8])
@pytest.mark.parametrize("n", [16, 17])
def test_walsh_hadamard_stack_of_long_rows_matches_each_row(n, dtype):
    rng = np.random.default_rng(2100 + n)
    stack = rng.standard_normal((3, 1 << n))
    if dtype == np.int8:
        stack = rng.integers(-128, 128, size=(3, 1 << n), dtype=np.int8)
    out = walsh_hadamard(stack)
    assert out.shape == stack.shape and out.dtype == np.float64
    for row, want in zip(out, stack):
        assert row.tobytes() == walsh_hadamard(want).tobytes()
        assert row.tobytes() == reference_walsh_hadamard(want).tobytes()


@pytest.mark.parametrize("n", range(10, 17))
def test_walsh_hadamard_int8_runs_exactly(n):
    vec = np.random.default_rng(300 + n).integers(-128, 128, size=1 << n, dtype=np.int8)
    assert walsh_hadamard(vec).tobytes() == walsh_hadamard(vec.astype(np.float64)).tobytes()


def test_walsh_hadamard_int8_extreme_fits_int32():
    out = walsh_hadamard(np.full(1 << EXACT_CAP, -128, dtype=np.int8))
    assert out.dtype == np.float64
    assert out[0] == -2.0 ** 31
    assert not out[1:].any()


@pytest.mark.parametrize("n", [16, 18])
def test_walsh_hadamard_zero_row_skip_keeps_bytes(n):
    rows = np.random.default_rng(400 + n).standard_normal((1 << (n - 16), 1 << 16))
    if n > 16:
        rows[1] = 0.0
        rows[2] = -0.0
        rows[3] = 0.0
        rows[3, 77] = np.nan
    vec = rows.reshape(-1)
    assert walsh_hadamard(vec).tobytes() == reference_walsh_hadamard(vec).tobytes()
    zeros = np.zeros(1 << n)
    assert walsh_hadamard(zeros).tobytes() == zeros.tobytes()
    minus = np.full(1 << n, -0.0)
    assert walsh_hadamard(minus).tobytes() == reference_walsh_hadamard(minus).tobytes()


# sha256 of walsh_hadamard's bytes on seeded inputs, recorded before the
# transform was split into _transform and a float64 conversion
WALSH_DIGESTS = {
    (5, "int8"): "f8c851942cf427e3923aea70077948a533c55ffb7afff3f905b7746647675e76",
    (5, "float64"): "17fdd2f56e8260904dc632805865e82852a7883cd760834cc21b08ff16ce740c",
    (9, "int8"): "04bfd8483a12333a31f41555d797e8350bb2b727003e48b41e451c53e4f908dd",
    (9, "float64"): "88cabf9dfbfbb929eb7743c2a5cd29209c9d6c6fd665f0a823fd854bf5213715",
    (10, "int8"): "d0a34d9c87ebed145ea050a97fd77dc4dee3e7a2859c00c7a7903cdbd57bb67d",
    (10, "float64"): "c0a269fd1987472bfeb15c6743bd8cf5f9b97aaf2f7dc28f47db9ed2efe2ece7",
    (13, "int8"): "dbb4a9877689f980ff1783d313f5a34b07ded87f829a8162c8884a29d11d731f",
    (13, "float64"): "8860484fedbd6fc458bb76f9f5df8c31d891b8ffdd1dab2104c9e2ade68c695b",
    (16, "int8"): "36efe81df0e1c2e2064e8173c851b98169187fa97d3cee45e9dffea506a8d496",
    (16, "float64"): "b5ac4ad9786c2a807639dc3d1484f40b5636329d90d04d5099cc84ce8fe0e92d",
    (17, "int8"): "21736fb701f2d272fd94812dd6bf436baeb4ed6d5800e1a8f3e7528d1e0f45c3",
    (17, "float64"): "3aae810f432071d04d5c39e8c38bef47e3bcd002b4b5f628ad37f6bafe60d241",
    (19, "int8"): "b85a6947f2812220ceddaac2d27149629a81de641ff382fa9930b929f4ed55f7",
    (19, "float64"): "6496a485867a95bebcf89905f3928ad547fc309b5df402936487b23de8672f62",
}


@pytest.mark.parametrize("n", [5, 9, 10, 13, 16, 17, 19])
def test_walsh_hadamard_bytes_pinned_across_working_dtypes(n):
    rng = np.random.default_rng(500 + n)
    for vec, work in ((rng.integers(-128, 128, size=1 << n, dtype=np.int8), np.int32),
                      (rng.standard_normal(1 << n), np.float64)):
        out = walsh_hadamard(vec)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert hashlib.sha256(out.tobytes()).hexdigest() == WALSH_DIGESTS[n, vec.dtype.name]
        inner = _transform(vec)
        assert inner.dtype == work and inner.flags.c_contiguous
        assert inner.astype(np.float64).tobytes() == out.tobytes()


def test_walsh_hadamard_validation():
    with pytest.raises(InputError):
        walsh_hadamard(np.ones(3))
    with pytest.raises(InputError):
        walsh_hadamard(np.ones(0))


def fourier(table):
    """fhat(S) for every subset mask S."""
    return walsh_hadamard(table.values) / (1 << table.n)


def test_fourier_dictator_and_constant():
    want = np.zeros(16)
    want[1] = 1.0
    assert (fourier(TruthTable.dictator(4)) == want).all()
    coefficients = fourier(TruthTable.constant(3))
    assert coefficients[0] == 1.0
    assert (coefficients[1:] == 0.0).all()


def test_fourier_majority3_oracle():
    # direct summation over the 8 points, computed by hand
    expected = [0.0, 0.5, 0.5, 0.0, 0.5, 0.0, 0.0, -0.5]
    assert fourier(TruthTable.majority(3)).tolist() == expected


def test_parseval_and_double_transform():
    for seed in range(10):
        f = TruthTable.random(seed % 8 + 1, seed=100 + seed)
        coefficients = fourier(f)
        assert abs(coefficients @ coefficients - 1.0) < 1e-10
        back = walsh_hadamard(walsh_hadamard(f.values)) / (1 << f.n)
        assert np.abs(back - f.values).max() < 1e-12
        assert TruthTable(f.n, to_signs(walsh_hadamard(coefficients))) == f


# ---------------------------------------------------------------- noise


def test_noise_sensitivity_dictator_exact():
    f = TruthTable.dictator(6)
    for delta in (0.05, 0.1, 0.25, 0.4):
        assert noise_sensitivity(f, delta) == delta


def test_noise_sensitivity_constant_and_majority3():
    assert noise_sensitivity(TruthTable.constant(4), 0.2) == 0.0
    got = noise_sensitivity(TruthTable.majority(3), 0.1)
    rho = 0.8
    want = (1.0 - (3 * 0.25 * rho + 0.25 * rho ** 3)) / 2.0
    assert abs(got - want) < 1e-12
    assert abs(got - 0.136) < 1e-12


def test_noise_sensitivity_routes_agree():
    for seed in range(10):
        f = TruthTable.random(seed % 10 + 1, seed=200 + seed)
        for delta in (0.05, 0.1, 0.25):
            assert abs(noise_sensitivity(f, delta)
                       - noise_sensitivity_semigroup(f, delta)) < 1e-10


def python_level_masses(values, n):
    """Level masses by Python ints alone: radix-2 butterflies on a list,
    then each squared coefficient added to the level of its mask."""
    coeffs = [int(v) for v in values]
    h = 1
    while h < len(coeffs):
        for start in range(0, len(coeffs), 2 * h):
            for x in range(start, start + h):
                coeffs[x], coeffs[x + h] = coeffs[x] + coeffs[x + h], coeffs[x] - coeffs[x + h]
        h *= 2
    masses = [0] * (n + 1)
    for mask, c in enumerate(coeffs):
        masses[bin(mask).count("1")] += c * c
    return masses


def numpy_level_masses(values, n):
    """Level masses by np.bincount over int64 squares, 2^20 at a time."""
    coeffs = walsh_hadamard(values).astype(np.int64)
    levels = popcount_table(n)
    masses = [0] * (n + 1)
    for start in range(0, 1 << n, 1 << 20):
        chunk = coeffs[start:start + (1 << 20)]
        counts = np.bincount(levels[start:start + (1 << 20)], weights=chunk * chunk,
                             minlength=n + 1)
        masses = [m + int(c) for m, c in zip(masses, counts)]
    return masses


def exact_noise_sensitivity(masses, n, delta):
    """sum_k w(k) W_k / 4^n in exact arithmetic for noise_sensitivity's float
    weights, rounded once."""
    rho = 1.0 - 2.0 * delta
    weights = [0.0] + (delta * np.cumsum(rho ** np.arange(n, dtype=np.float64))).tolist()
    return float(sum(Fraction(w) * m for w, m in zip(weights, masses)) / 4 ** n)


def oracle_tables(n):
    tables = [TruthTable.constant(n, -1), TruthTable.random(n, seed=600 + n)]
    if n:
        tables += [TruthTable.majority(n), TruthTable.parity(n, (1 << n) - 1),
                   TruthTable.dictator(n, n - 1)]
    return tables


def test_python_level_masses_match_the_definition():
    # N_S = sum_x f(x) chi_S(x), term by term, at sizes where 4^n is small
    for n in range(5):
        for f in oracle_tables(n):
            values = f.values.tolist()
            masses = [0] * (n + 1)
            for mask in range(1 << n):
                c = sum(v * (-1) ** bin(mask & x).count("1") for x, v in enumerate(values))
                masses[bin(mask).count("1")] += c * c
            assert python_level_masses(values, n) == masses


# 12 and 13 sit on both sides of the 2^12 rows that sort squares by popcount;
# 16, 20 and 24 run one, 16 and 256 blocks of 2^16 squares
@pytest.mark.parametrize("n", list(range(17)) + [20, 24])
def test_noise_sensitivity_equals_exact_mass_oracle(n):
    tables = oracle_tables(n) if n < 24 else [TruthTable.random(n, seed=624)]
    for f in tables:
        masses = (python_level_masses(f.values, n) if n <= 10
                  else numpy_level_masses(f.values, n))
        assert sum(masses) == 4 ** n
        assert f.level_masses().tolist() == masses
        for delta in (0.01, 0.1, 1 / 3, 0.49):
            assert noise_sensitivity(f, delta) == exact_noise_sensitivity(masses, n, delta)


def test_noise_sensitivity_memory_peak():
    # 25,475,813 bytes was the peak of the float spectrum route: the 8 MiB
    # spectrum, its squares and a 2^20 float64 weight per point, rebuilt
    # for every delta.  The masses need the 4 MiB int32 transform and
    # blocks of 2^16; any 2^20 float64 array on top of it goes past 8 MiB.
    f = sign_table(generate("random", 20, degree=2, seed=0))[0]
    tracemalloc.start()
    try:
        for delta in (0.01, 0.1, 0.25):
            noise_sensitivity(f, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


def test_noise_sensitivity_validation():
    f = TruthTable.majority(3)
    for delta in (0.0, 0.5, -0.1, 0.9):
        with pytest.raises(InputError):
            noise_sensitivity(f, delta)


# ---------------------------------------------------------------- sub-cube indices


# _subset_sums spreads the bits of every sub-cube index at once: entry sub
# of its last axis has bit j of sub at bit positions[..., j].


def reference_spread(sub_count, free, base=0):
    """Bit j of each sub-index goes to coordinate free[j], on top of `base`:
    per byte of the sub-indices, a per-bit loop over its 256 values builds a
    table, and each sub-index ORs one lookup per byte."""
    sub = np.arange(sub_count, dtype=np.int64)
    idx = np.full(sub_count, base, dtype=np.int64)
    byte = np.arange(256, dtype=np.int64)
    for k in range(0, len(free), 8):
        table = np.zeros(256, dtype=np.int64)
        for j, i in enumerate(free[k:k + 8]):
            table |= ((byte >> j) & 1) << int(i)
        idx |= np.take(table, sub >> k & 255)
    return idx


@pytest.mark.parametrize("free", [[], [0], [3], [0, 1, 2], [5, 1, 7], [2, 9, 4, 23, 11],
                                  list(range(24)), [62, 0, 40]])
def test_spread_bits_matches_per_bit_loop(free):
    out = _subset_sums(np.array(free, dtype=np.int64))
    assert out.dtype == np.int64
    assert np.array_equal(out, reference_spread(1 << len(free), free))


def test_spread_bits_batched_positions():
    rng = np.random.default_rng(5)
    positions = np.stack([rng.permutation(20)[:4] for _ in range(7)])  # (seg, m)
    out = _subset_sums(positions)  # (seg, m) positions
    assert out.shape == (7, 16)
    for row, free in zip(out, positions):
        assert np.array_equal(row, reference_spread(16, free))


def reference_gather(idx, free):
    """Per-bit loop on Python ints: bit j of each result is bit free[j] of the index."""
    return np.array([sum((x >> int(i) & 1) << j for j, i in enumerate(free))
                     for x in np.asarray(idx).tolist()], dtype=np.uint64)


def _masks_with_bit_63():
    masks = np.random.default_rng(9).integers(0, 1 << 64, size=40, dtype=np.uint64)
    masks[:3] = [0, 1 << 63, (1 << 64) - 1]
    return masks


@pytest.mark.parametrize("free", [[], [0], [63], [5, 1, 7], [62, 0, 40, 63], list(range(64))])
def test_gather_bits_matches_per_bit_loop(free):
    masks = _masks_with_bit_63()
    out = gather_bits(masks, np.array(free, dtype=np.int64))
    assert out.dtype == np.uint64
    assert np.array_equal(out, reference_gather(masks, free))


def test_gather_bits_batched_positions():
    rng = np.random.default_rng(6)
    positions = np.stack([rng.permutation(64)[:5] for _ in range(7)])  # (rows, m)
    masks = _masks_with_bit_63()
    out = gather_bits(masks, positions[:, None, :])  # (rows, 1, m) positions
    assert out.shape == (7, len(masks))
    for row, free in zip(out, positions):
        assert np.array_equal(row, reference_gather(masks, free))


@pytest.mark.parametrize("free", [[], [3], [5, 1, 7], [2, 9, 4, 23, 11], [62, 0, 40], [63, 1]])
def test_gather_bits_inverts_spread_bits(free):
    sub = np.arange(1 << len(free))
    positions = np.array(free, dtype=np.int64)
    assert np.array_equal(gather_bits(_subset_sums(positions), positions), sub)


@pytest.mark.parametrize("free", [[], [3], [5, 1, 7], [2, 9, 4, 23, 11], [62, 0, 40], [63, 1]])
def test_scatter_bits_is_spread_bits_per_point(free):
    positions = np.array(free, dtype=np.int64)
    sub = np.arange(1 << len(free))
    out = scatter_bits(sub, positions)
    assert out.dtype == np.uint64
    assert np.array_equal(out, _subset_sums(positions).view(np.uint64))
    assert np.array_equal(gather_bits(out, positions), sub)


def test_scatter_bits_batched_positions():
    rng = np.random.default_rng(7)
    positions = np.stack([rng.permutation(64)[:5] for _ in range(7)])  # (rows, m)
    sub = rng.integers(0, 1 << 5, size=7)
    out = scatter_bits(sub, positions)  # one sub-cube index per row
    assert out.shape == (7,)
    assert np.array_equal(out, _subset_sums(positions)[np.arange(7), sub].view(np.uint64))


# ---------------------------------------------------------------- signs


def reference_to_signs(values):
    """The np.where form of the sign rule, sign(0) = +1."""
    return np.where(np.asarray(values) >= 0, np.int8(1), np.int8(-1))


_TINY = np.finfo(np.float64).smallest_subnormal


@pytest.mark.parametrize("values", [
    np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, _TINY, -_TINY, 1.0, -1.0]),
    np.array([[_TINY, -_TINY], [np.nan, -0.0]]),
    np.array([-0.0, np.finfo(np.float32).smallest_subnormal, -np.inf], dtype=np.float32),
    np.array([0, -1, 1, 127, -128], dtype=np.int8),
    np.array([0, -3, 1 << 62, -(1 << 63)], dtype=np.int64),
    np.array([0, 1, 255], dtype=np.uint8),
    [0, -1, 2],
], ids=["float64", "float64-2d", "float32", "int8", "int64", "uint8", "list"])
def test_to_signs_bytes_match_where(values):
    out = to_signs(values)
    ref = reference_to_signs(values)
    assert out.dtype == np.int8 and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


# ---------------------------------------------------------------- constructors


def test_majority_ties_resolve_positive():
    f = TruthTable.majority(4)
    x = 0b0011  # two -1s, two +1s: tie
    assert f.values[x] == 1


def test_random_table_deterministic():
    assert TruthTable.random(8, seed=5) == TruthTable.random(8, seed=5)
    assert TruthTable.random(8, seed=5) != TruthTable.random(8, seed=6)


def test_parity_mask_validation():
    with pytest.raises(InputError):
        TruthTable.parity(3, 8)
    with pytest.raises(InputError):
        TruthTable.dictator(3, 3)
