import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from boolsurf import interval, partition
from boolsurf.core import TruthTable
from boolsurf.errors import (CapacityError, DegenerateInputError, InputError,
                             VerificationError)
from boolsurf.interval import _root, working_bits
from boolsurf.partition import (BlockPartitionSpec, HypergeometricParams, _picks,
                                _shuffle_table, block_average_B,
                                bsa_block_bound, gap_bound, hg_pmf, jensen_bounds,
                                mc_partition_average, mean_sqrt_hg, near_equal_sizes,
                                near_equal_sweep, sandwich_check, sandwich_rows)
from boolsurf.seeding import substream
from boolsurf.verify import _random_composition

# Exact references: sqrt(s) to within 1e-60 as a Fraction, and the ends
# of an enclosure as Fractions.  `close` holds when both ends of the
# enclosure lie within `tol` of the reference.
SCALE = 10**60
TOL = Fraction(1, 10**25)


def root(s) -> Fraction:
    s = Fraction(s)
    return Fraction(math.isqrt(s.numerator * SCALE * SCALE // s.denominator), SCALE)


def ends(x) -> tuple[Fraction, Fraction]:
    return Fraction(x.lo, 1 << x.bits), Fraction(x.hi, 1 << x.bits)


def close(x, want, tol=TOL) -> bool:
    return all(abs(end - want) < tol for end in ends(x))


# ---------------------------------------------------------------- pmf


def test_hg_params_validation():
    with pytest.raises(InputError):
        HypergeometricParams(0, 0, 1)
    with pytest.raises(InputError):
        HypergeometricParams(4, 5, 2)
    with pytest.raises(InputError):
        HypergeometricParams(4, 2, 0)
    with pytest.raises(InputError):
        HypergeometricParams(4, 2, 5)


def test_hg_pmf_golden_case():
    params = HypergeometricParams(4, 2, 2)
    assert hg_pmf(params, 0) == Fraction(1, 6)
    assert hg_pmf(params, 1) == Fraction(2, 3)
    assert hg_pmf(params, 2) == Fraction(1, 6)
    assert hg_pmf(params, 3) == 0
    assert hg_pmf(params, -1) == 0


def test_hg_pmf_degenerate_rows():
    full = HypergeometricParams(5, 5, 3)
    assert hg_pmf(full, 3) == 1
    empty = HypergeometricParams(5, 0, 3)
    assert hg_pmf(empty, 0) == 1


def test_hg_pmf_sums_to_one_exhaustive():
    for n in range(1, 13):
        for k in range(n + 1):
            for m in range(1, n + 1):
                params = HypergeometricParams(n, k, m)
                assert sum(hg_pmf(params, s) for s in params.support()) == 1


def test_hg_pmf_sums_to_one_large_random():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 201))
        k = int(rng.integers(0, n + 1))
        m = int(rng.integers(1, n + 1))
        params = HypergeometricParams(n, k, m)
        assert sum(hg_pmf(params, s) for s in params.support()) == 1


def test_hg_moments_match_pmf():
    for n, k, m in [(4, 2, 2), (9, 4, 3), (1, 1, 1), (12, 0, 5), (7, 7, 2)]:
        params = HypergeometricParams(n, k, m)
        mean = sum(Fraction(s) * hg_pmf(params, s) for s in params.support())
        var = sum((Fraction(s) - mean) ** 2 * hg_pmf(params, s)
                  for s in params.support())
        # the closed forms k m / n and m k (n - k) (n - m) / (n^2 (n - 1))
        assert mean == Fraction(m * k, n)
        assert var == (Fraction(m * k * (n - k) * (n - m), n * n * (n - 1)) if n > 1 else 0)


# ---------------------------------------------------------------- E sqrt


def test_mean_sqrt_golden_case():
    got = mean_sqrt_hg(HypergeometricParams(4, 2, 2), precision=30)
    assert close(got, Fraction(2, 3) + root(2) / 6)


def test_mean_sqrt_degenerate_rows():
    got = mean_sqrt_hg(HypergeometricParams(6, 6, 4), precision=30)
    assert close(got, root(4))
    assert ends(mean_sqrt_hg(HypergeometricParams(6, 0, 4), precision=30)) == (0, 0)


def test_mean_sqrt_matches_pmf_route():
    for n, k, m in [(9, 4, 3), (12, 7, 5), (30, 11, 10)]:
        params = HypergeometricParams(n, k, m)
        got = mean_sqrt_hg(params, precision=30)
        want = sum(hg_pmf(params, s) * root(s)
                   for s in params.support() if hg_pmf(params, s))
        assert close(got, want)


def test_mean_sqrt_precision_validation():
    with pytest.raises(InputError):
        mean_sqrt_hg(HypergeometricParams(4, 2, 2), precision=0)


# every (n, K, m) with n <= 30, and the n = 60 rows
HG_ORACLE_CASES = [(n, K, m) for n in [*range(1, 31), 60]
                   for K in range(n + 1) for m in range(1, n + 1)]


def test_hg_weights_recurrence_matches_binomials():
    for n, K, m in HG_ORACLE_CASES:
        support, weights = partition._hg_weights(n, K, m)
        assert weights == [math.comb(K, s) * math.comb(n - K, m - s) for s in support]


@pytest.mark.parametrize("digits", [15, 30, 50])
def test_mean_sqrt_ends_match_two_product_sum(digits):
    # the reference multiplies each weight by both ends of _root and
    # divides the sums outward by C(n, m), as Interval(lo, hi) / C(n, m)
    bits = working_bits(digits)
    for n, K, m in HG_ORACLE_CASES:
        lo = hi = 0
        for s in range(max(0, m - (n - K)), min(m, K) + 1):
            weight = math.comb(K, s) * math.comb(n - K, m - s)
            root = _root(s, bits)
            lo += weight * root.lo
            hi += weight * root.hi
        total = math.comb(n, m)
        assert partition._mean_sqrt(n, K, m, bits) == (lo // total, -(-hi // total))


def test_mean_sqrt_roots_only_its_support(monkeypatch):
    # the root work follows the support, not its largest point: a one-point
    # support at 10^6, and blocks 1 and n - 1, whose supports hold at most
    # two points for every k
    calls = []

    def isqrt(x):
        calls.append(x)
        return math.isqrt(x)

    monkeypatch.setattr(partition, "isqrt", isqrt)
    partition._root_floors.cache_clear()
    partition._mean_sqrt.cache_clear()
    big = 10**6
    assert ends(mean_sqrt_hg(HypergeometricParams(big, big, big))) == (1000, 1000)
    assert len(calls) <= 2
    calls.clear()
    n = 2001
    rows = list(sandwich_rows(n, (1, n - 1), range(n + 1)))
    assert len(rows) == n + 1 and all(row[7] for row in rows)
    assert len(calls) <= 8 * (n + 1)


# ---------------------------------------------------------------- partitions


def test_partition_spec_validation():
    with pytest.raises(InputError):
        BlockPartitionSpec(4, 0, (2, 3))  # sizes sum to 5
    with pytest.raises(InputError):
        BlockPartitionSpec(4, 5, (2, 2))
    with pytest.raises(InputError):
        BlockPartitionSpec(4, 0, (4, 0))
    with pytest.raises(InputError):
        BlockPartitionSpec(0, 0, ())


def test_partition_spec_rejects_fractional_sizes():
    with pytest.raises(InputError):
        BlockPartitionSpec(3, 1, (2.5, 1.5))
    assert BlockPartitionSpec(3, 1, (2.0, np.int64(1))).sizes == (2, 1)


def test_near_equal_sizes():
    assert near_equal_sizes(7, 3) == (3, 2, 2)
    assert near_equal_sizes(6, 3) == (2, 2, 2)
    assert near_equal_sizes(5, 1) == (5,)
    with pytest.raises(InputError):
        near_equal_sizes(3, 4)
    with pytest.raises(InputError):
        near_equal_sizes(3, 0)


def test_near_equal_sweep_order_and_count():
    groups = list(near_equal_sweep([3, 2]))
    assert sum(n + 1 for n, _ in groups) == 3 * 4 + 2 * 3  # k in 0..n per group
    # n, then b (then k): the order the c6 criterion certifies in
    assert groups == [(n, near_equal_sizes(n, b)) for n in (3, 2) for b in range(1, n + 1)]
    for n in range(1, 13):
        assert sum(m + 1 for m, _ in near_equal_sweep([n])) == n * (n + 1)
    for ns in ([3, 0, 2], [-3]):  # rejected at the call, before any group
        with pytest.raises(InputError):
            near_equal_sweep(ns)


def test_near_equal_property():
    assert sandwich_check(BlockPartitionSpec(7, 0, (2, 3, 2))).near_equal
    assert not sandwich_check(BlockPartitionSpec(6, 0, (4, 1, 1))).near_equal


def test_block_average_golden_case():
    spec = BlockPartitionSpec(4, 2, (2, 2))
    got = block_average_B(spec, precision=30)
    assert close(got, root(2) * Fraction(2, 3) + Fraction(1, 3))  # sqrt(2) (2/3 + sqrt(2)/6)
    assert abs(float(got) - 1.2761423749153966) < 1e-12


def test_block_average_no_zeros_equal_blocks_is_sqrt_n():
    spec = BlockPartitionSpec(12, 0, (4, 4, 4))
    got = block_average_B(spec, precision=30)
    assert close(got, root(12))


def test_block_average_all_zeros_is_zero():
    spec = BlockPartitionSpec(6, 6, (3, 3))
    assert ends(block_average_B(spec, precision=30)) == (0, 0)


def brute_block_average(n, k, sizes):
    """Average over every ordering of the k zeros and n - k ones."""
    y = [0] * k + [1] * (n - k)
    total = 0.0
    count = 0
    for perm in itertools.permutations(y):
        pos = 0
        trial = 0.0
        for m_l in sizes:
            trial += math.sqrt(sum(perm[pos:pos + m_l]))
            pos += m_l
        total += trial / math.sqrt(len(sizes))
        count += 1
    return total / count


@pytest.mark.parametrize("n,k,sizes", [(4, 2, (2, 2)), (5, 1, (3, 2)),
                                       (6, 3, (2, 2, 2)), (6, 2, (4, 2))])
def test_block_average_matches_permutation_oracle(n, k, sizes):
    spec = BlockPartitionSpec(n, k, sizes)
    got = float(block_average_B(spec, precision=20))
    assert abs(got - brute_block_average(n, k, sizes)) < 1e-12


# ---------------------------------------------------------------- sandwich


def test_sandwich_golden_case():
    report = sandwich_check(BlockPartitionSpec(4, 2, (2, 2)), precision=30)
    assert float(report.sqrt_total) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert float(report.block_average) == pytest.approx(1.2761423749153966, abs=1e-12)
    assert float(report.gap) == pytest.approx(0.1380711874576985, abs=1e-12)
    assert float(report.gap_bound) == pytest.approx(math.sqrt(2.0) / 6.0, abs=1e-12)
    assert report.near_equal
    assert report.pass_lower and report.pass_upper and report.pass_gap
    assert report.all_passed


def test_sandwich_no_zeros_equal_blocks_is_tight():
    report = sandwich_check(BlockPartitionSpec(9, 0, (3, 3, 3)), precision=30)
    assert close(report.gap, 0)
    assert float(report.gap_bound) == pytest.approx(0.0, abs=1e-25)
    assert report.all_passed


def test_sandwich_all_zeros_has_no_gap_bound():
    report = sandwich_check(BlockPartitionSpec(5, 5, (3, 2)), precision=30)
    assert report.gap_bound is None
    assert report.pass_gap is None
    assert ends(report.block_average) == (0, 0)
    assert report.all_passed


def test_sandwich_k_sweep_near_equal():
    for k in range(8):
        report = sandwich_check(BlockPartitionSpec(7, k, (3, 2, 2)), precision=30)
        assert report.near_equal
        assert report.all_passed


def test_sandwich_skewed_sizes_skip_upper():
    report = sandwich_check(BlockPartitionSpec(6, 1, (4, 1, 1)), precision=30)
    assert not report.near_equal
    assert report.pass_upper is None
    assert report.pass_lower and report.pass_gap
    assert report.all_passed


# ---------------------------------------------------------------- jensen


def test_jensen_point_mass():
    out = jensen_bounds([9], [1], precision=30)
    assert close(out.mean_sqrt, 3)
    assert close(out.upper, 3)
    assert close(out.lower, 3)


def test_jensen_uniform_two_point():
    out = jensen_bounds([0, 4], [Fraction(1, 2), Fraction(1, 2)], precision=30)
    assert close(out.upper, root(2))
    assert close(out.lower, root(2) / 2)
    assert close(out.mean_sqrt, 1)


def test_jensen_hypergeometric_golden():
    params = HypergeometricParams(4, 2, 2)
    support = list(params.support())
    out = jensen_bounds(support, [hg_pmf(params, s) for s in support],
                        precision=30)
    assert close(out.upper, 1)
    assert close(out.lower, Fraction(5, 6))
    assert close(out.mean_sqrt, Fraction(2, 3) + root(2) / 6)


def test_jensen_affine_scaling():
    # Y = 2 X + 1 for X uniform on {0, 1}: pass Y's values
    out = jensen_bounds([1, 3], [Fraction(1, 2), Fraction(1, 2)], precision=30)
    assert close(out.upper, root(2))
    # Var(X) = 1/4, E[Y] = 2: penalty = 4 * (1/4) / (2 * 2^1.5) = sqrt(2) / 8
    assert close(out.lower, root(2) - root(2) / 8, Fraction(1, 10**20))
    assert close(out.mean_sqrt, (1 + root(3)) / 2)
    assert out.lower < out.mean_sqrt < out.upper


def test_jensen_float_probabilities_accepted():
    out = jensen_bounds([0, 1, 2], [0.2, 0.5, 0.3], precision=15)
    assert out.lower < out.mean_sqrt < out.upper


def test_jensen_validation():
    with pytest.raises(InputError):
        jensen_bounds([1, 2], [1], precision=15)
    with pytest.raises(InputError):
        jensen_bounds([1], [-1], precision=15)
    with pytest.raises(InputError):
        jensen_bounds([1, 2], [Fraction(1, 2), Fraction(1, 4)], precision=15)
    with pytest.raises(InputError):
        jensen_bounds([-1, 1], [Fraction(1, 2), Fraction(1, 2)], precision=15)
    with pytest.raises(DegenerateInputError):
        jensen_bounds([0], [1], precision=15)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float32("nan"),
                                 "0.5", True, np.True_, None, 0.5j])
def test_jensen_rejects_what_is_not_a_finite_number(bad):
    for values, probs in (([1, 3], [bad, 0.5]), ([bad, 3], [0.5, 0.5])):
        with pytest.raises(InputError):
            jensen_bounds(values, probs, precision=15)


def test_jensen_reads_numpy_scalars_exactly():
    want = jensen_bounds([1, 3, 6], [0.25, 0.5, 0.25], precision=20)
    assert jensen_bounds(np.array([1, 3, 6]), np.array([0.25, 0.5, 0.25], dtype=np.float32),
                         precision=20) == want
    assert jensen_bounds([np.uint8(1), np.int64(3), 6.0], [Fraction(1, 4), np.float16(0.5), 0.25],
                         precision=20) == want


def test_jensen_two_point_block_size_sweep():
    # the block-size distribution of every near-equal split up to n = 60
    for n in range(1, 61):
        for b in range(1, n + 1):
            m, r = divmod(n, b)
            if r == 0:
                values, probs = [m], [Fraction(1)]
            else:
                values = [m, m + 1]
                probs = [Fraction(b - r, b), Fraction(r, b)]
            if m == 0:
                continue  # impossible: b <= n forces m >= 1
            out = jensen_bounds(values, probs, precision=30)
            assert ends(out.lower)[1] - TOL <= ends(out.mean_sqrt)[0]
            assert ends(out.mean_sqrt)[1] <= ends(out.upper)[0] + TOL


# ---------------------------------------------------------------- monte carlo


def test_mc_partition_average_degenerate_populations():
    est = mc_partition_average(np.ones(9, dtype=int), (3, 3, 3), trials=50, seed=0)
    assert est.estimate == pytest.approx(3.0, abs=1e-12)
    assert est.stderr == 0.0
    est = mc_partition_average(np.zeros(6, dtype=int), (3, 3), trials=50, seed=0)
    assert est.estimate == 0.0
    assert est.stderr == 0.0


URN_TRIALS = 40_000
# every n <= 8 with one block, near-equal halves and thirds, singletons
# and a skewed split; each case runs every count of ones
URN_CASES = sorted({(n, sizes)
                    for n in range(1, 9)
                    for sizes in [(n,), near_equal_sizes(n, min(2, n)),
                                  near_equal_sizes(n, min(3, n)), (1,) * n,
                                  (n - 2, 1, 1) if n > 2 else (n,)]})


def _exact_block_counts(sizes, m) -> dict[int, Fraction]:
    """Law of the block counts of a uniform m-subset over all C(n, m),
    each count vector keyed as its digits in base n + 1."""
    n = sum(sizes)
    digit = [(n + 1) ** l for l, size in enumerate(sizes) for _ in range(size)]
    law = {}
    for subset in itertools.combinations(range(n), m):
        key = sum(digit[i] for i in subset)
        law[key] = law.get(key, 0) + Fraction(1, math.comb(n, m))
    return law


URN_IDS = ["-".join(map(str, sizes)) for _, sizes in URN_CASES]


@pytest.mark.parametrize("n, sizes", URN_CASES, ids=URN_IDS)
def test_urn_block_counts_match_enumeration(n, sizes):
    starts = np.cumsum((0,) + sizes[:-1])
    for m in range(n + 1):
        seed = 1000 * n + 10 * len(sizes) + m
        words, table = _shuffle_table(m, sizes)
        # bit t of a drawn word is position t; block l holds the next sizes[l]
        bits = _picks(substream(seed), URN_TRIALS, words)[:, None] >> np.arange(n) & 1
        counts = np.add.reduceat(bits, starts, axis=1)
        keys = counts @ (n + 1) ** np.arange(len(sizes))
        sampled = np.bincount(keys, minlength=(n + 1) ** len(sizes))
        law = _exact_block_counts(sizes, m)
        assert set(np.flatnonzero(sampled).tolist()) <= set(law)
        for key, p in law.items():
            p = float(p)
            err = math.sqrt(p * (1.0 - p) / URN_TRIALS)
            assert abs(sampled[key] / URN_TRIALS - p) <= 4.0 * err, (m, key)
        # the values are the block average of exactly these counts
        want = np.sqrt(counts).sum(axis=1) / math.sqrt(len(sizes))
        assert np.allclose(_picks(substream(seed), URN_TRIALS, table), want,
                           rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n, sizes", URN_CASES, ids=URN_IDS)
def test_shuffle_table_mean_is_the_block_average(n, sizes):
    # the table lists every placement once, so its mean is B exactly
    for m in range(n + 1):
        _, table = _shuffle_table(m, sizes)
        assert len(table) == math.comb(n, m)
        exact = float(block_average_B(BlockPartitionSpec(n, n - m, sizes)))
        assert abs(table.mean() - exact) <= 1e-12, m


def test_mc_partition_average_draws_from_the_table():
    y, sizes = [1, 0, 1, 1, 0, 1, 0], (3, 2, 2)
    est = mc_partition_average(y, sizes, trials=1000, seed=12)
    _, table = _shuffle_table(sum(y), sizes)
    values = _picks(substream(12), 1000, table)
    assert est.estimate == float(values.mean())


def test_mc_partition_average_caps_the_population(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built or drew past the cap")

    monkeypatch.setattr(partition, "_shuffle_table", never)
    monkeypatch.setattr(partition, "mc_values", never)
    with pytest.raises(CapacityError):
        mc_partition_average(np.ones(25, dtype=int), (13, 12), trials=10, seed=0)


def test_mc_partition_average_matches_exact():
    est = mc_partition_average([1, 1, 0, 0], (2, 2), trials=100_000, seed=4)
    exact = 1.2761423749153966
    assert abs(est.estimate - exact) <= 4.0 * est.stderr + 1e-9


def test_mc_partition_average_deterministic():
    a = mc_partition_average([1, 0, 1, 1, 0], (3, 2), trials=500, seed=8, workers=3)
    b = mc_partition_average([1, 0, 1, 1, 0], (3, 2), trials=500, seed=8, workers=3)
    assert a == b


def test_mc_partition_average_validation():
    with pytest.raises(InputError):
        mc_partition_average([0, 2], (2,), trials=10, seed=0)
    with pytest.raises(InputError):
        mc_partition_average([0, 1], (3,), trials=10, seed=0)
    with pytest.raises(InputError):
        mc_partition_average([0, 1], (2,), trials=0, seed=0)


def test_mc_partition_average_rejects_fractional_sizes():
    with pytest.raises(InputError):
        mc_partition_average([1, 0, 1], (2.5, 1.5), trials=10, seed=0)


# ---------------------------------------------------------------- block bound


def test_block_bound_full_parity_is_exact():
    f = TruthTable.parity(8, 0xFF)
    report = bsa_block_bound(f, blocks=2, trials=64, seed=0)
    # every 4-coordinate restriction of the full parity is again a parity
    assert report.stderr == 0.0
    assert report.rhs_estimate == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert report.lhs == pytest.approx(math.sqrt(8.0), abs=1e-12)
    assert report.margin == pytest.approx(2.0, abs=1e-12)
    assert report.passed


def test_block_bound_constant():
    report = bsa_block_bound(TruthTable.constant(6), blocks=3, trials=32, seed=1)
    assert report.lhs == 0.0
    assert report.rhs_estimate == 0.0
    assert report.margin == 3.0
    assert report.passed


def test_block_bound_majority():
    report = bsa_block_bound(TruthTable.majority(9), blocks=3, trials=400, seed=2)
    assert report.sizes == (3, 3, 3)
    assert report.passed
    assert report.margin > 0.0


def test_block_bound_deterministic():
    f = TruthTable.random(7, seed=1)
    a = bsa_block_bound(f, blocks=2, trials=200, seed=5, workers=2)
    b = bsa_block_bound(f, blocks=2, trials=200, seed=5, workers=2)
    assert a == b


def test_block_bound_validation():
    f = TruthTable.majority(5)
    with pytest.raises(InputError):
        bsa_block_bound(f, blocks=0, trials=10, seed=0)
    with pytest.raises(InputError):
        bsa_block_bound(f, blocks=6, trials=10, seed=0)
    with pytest.raises(InputError):
        bsa_block_bound(f, blocks=2, trials=0, seed=0)


# ---------------------------------------------------------------- certification


def test_gap_bound_none_only_when_all_zeros():
    assert gap_bound(BlockPartitionSpec(4, 4, (2, 2)), precision=20) is None
    assert gap_bound(BlockPartitionSpec(4, 3, (2, 2)), precision=20) is not None


def outcome(report):
    """A report's floats and flags, in `sandwich_rows`' column order."""
    return (float(report.sqrt_total), float(report.block_average), float(report.gap),
            None if report.gap_bound is None else float(report.gap_bound),
            report.pass_lower, report.pass_upper, report.pass_gap)


def test_sandwich_refines_an_unsettled_first_pass(monkeypatch):
    # every sweep case settles at the default working bits, so start far
    # below them: the first pass cannot settle and refine must rerun it
    groups = [(n, sizes, range(n + 1)) for n, sizes in near_equal_sweep(range(1, 9))]
    groups += [(12, (5, 1, 6), [4]), (20, (1, 6, 13), [11])]
    specs = [BlockPartitionSpec(n, k, sizes) for n, sizes, ks in groups for k in ks]

    def group_rows():
        return [row for n, sizes, ks in groups for row in sandwich_rows(n, sizes, ks, 15)]

    default = [outcome(sandwich_check(spec, precision=15)) for spec in specs]
    default_rows = group_rows()
    passes = []
    sandwich = partition._sandwich

    def recorded(split, n, k, bits):
        passes.append(bits)
        return sandwich(split, n, k, bits)

    monkeypatch.setattr(partition, "working_bits", lambda digits: 20)
    monkeypatch.setattr(partition, "_sandwich", recorded)
    low = [outcome(sandwich_check(spec, precision=15)) for spec in specs]
    assert passes.count(20) == len(specs)
    assert len(passes) > len(specs) and max(passes) > 20  # refinements ran
    assert low == default
    passes.clear()
    low_rows = group_rows()
    assert passes.count(20) == len(specs)
    assert len(passes) > len(specs) and max(passes) > 20
    assert low_rows == default_rows


@pytest.mark.parametrize("precision", [10, 15, 30, 50])
def test_sandwich_rows_equal_per_case_reports(precision):
    # rows carry the floats their certificate settled; each must be the
    # float of sandwich_check's interval, its midpoint rounded
    rng = substream(19, 0)
    groups = list(near_equal_sweep(range(1, 21)))
    groups += [(12, (5, 1, 6)), (20, (1, 6, 13)), (40, (3, 30, 2, 5))]
    for _ in range(50):
        n = int(rng.integers(1, 41))
        groups.append((n, _random_composition(rng, n, int(rng.integers(1, min(n, 8) + 1)))))
    for n, sizes in groups:
        label = "-".join(map(str, sizes))
        want = []
        for k in range(n + 1):
            spec = BlockPartitionSpec(n, k, sizes)
            report = sandwich_check(spec, precision)
            assert block_average_B(spec, precision) == report.block_average
            assert gap_bound(spec, precision) == report.gap_bound
            want.append((n, k, label, *outcome(report)))
        assert list(sandwich_rows(n, sizes, range(n + 1), precision)) == want


def test_sandwich_rows_floats_of_unsettled_ends(monkeypatch):
    # one pass at 20 bits leaves the enclosures unsettled: each float is
    # then the rounded midpoint, as float(Interval) gives it
    monkeypatch.setattr(partition, "working_bits", lambda digits: 20)
    monkeypatch.setattr(interval, "REFINEMENTS", 1)
    unsettled = 0
    for n, sizes in [*near_equal_sweep(range(1, 9)), (20, (1, 6, 13))]:
        rows = list(sandwich_rows(n, sizes, range(n + 1)))
        for k, row in enumerate(rows):
            report = sandwich_check(BlockPartitionSpec(n, k, sizes))
            assert row == (n, k, "-".join(map(str, sizes)), *outcome(report))
            unsettled += not report.block_average.settled
    assert unsettled


def test_sandwich_rows_check_the_split_once_and_each_k():
    with pytest.raises(InputError, match="block sizes sum to 5"):
        list(sandwich_rows(4, (2, 3), [0]))
    with pytest.raises(InputError, match="precision"):
        list(sandwich_rows(4, (2, 2), [0], precision=9))
    rows = sandwich_rows(4, (2, 2), [4, 5])
    assert next(rows)[:2] == (4, 4)
    with pytest.raises(InputError, match=r"k must lie in 0\.\.4, got 5"):
        next(rows)


def test_sandwich_precision_validation():
    with pytest.raises(InputError):
        sandwich_check(BlockPartitionSpec(4, 2, (2, 2)), precision=0)
    with pytest.raises(InputError):
        sandwich_check(BlockPartitionSpec(4, 2, (2, 2)), precision=101)
