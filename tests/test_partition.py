import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from boolsurf.core import TruthTable
from boolsurf.errors import (DegenerateInputError, InputError,
                             VerificationError)
from boolsurf.partition import (BlockPartitionSpec, HypergeometricParams,
                                block_average_B, bsa_block_bound, gap_bound,
                                hg_pmf, jensen_bounds, mc_partition_average,
                                mean_sqrt_hg, near_equal_sizes, near_equal_sweep,
                                sandwich_check)

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
        assert params.mean() == mean
        assert params.variance() == var


# ---------------------------------------------------------------- E sqrt


def test_mean_sqrt_golden_case():
    got = mean_sqrt_hg(HypergeometricParams(4, 2, 2), precision=30)
    assert close(got, Fraction(2, 3) + root(2) / 6)


def test_mean_sqrt_degenerate_rows():
    got = mean_sqrt_hg(HypergeometricParams(6, 6, 4), precision=30)
    assert close(got, root(4))
    assert mean_sqrt_hg(HypergeometricParams(6, 0, 4), precision=30) == 0


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


def test_near_equal_sizes():
    assert near_equal_sizes(7, 3) == (3, 2, 2)
    assert near_equal_sizes(6, 3) == (2, 2, 2)
    assert near_equal_sizes(5, 1) == (5,)
    with pytest.raises(InputError):
        near_equal_sizes(3, 4)
    with pytest.raises(InputError):
        near_equal_sizes(3, 0)


def test_near_equal_sweep_order_and_count():
    cases = list(near_equal_sweep([3, 0, 2]))
    assert len(cases) == 3 * 4 + 2 * 3
    # n, then b, then k: the order the c6 criterion certifies in
    assert cases == [(n, k, near_equal_sizes(n, b)) for n in (3, 2)
                     for b in range(1, n + 1) for k in range(n + 1)]
    for n in range(1, 13):
        assert sum(1 for _ in near_equal_sweep([n])) == n * (n + 1)


def test_near_equal_property():
    assert BlockPartitionSpec(7, 0, (2, 3, 2)).near_equal
    assert not BlockPartitionSpec(6, 0, (4, 1, 1)).near_equal


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
    assert block_average_B(spec, precision=30) == 0


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
    assert report.block_average == 0
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
    assert out.lower <= out.mean_sqrt <= out.upper


def test_jensen_float_probabilities_accepted():
    out = jensen_bounds([0, 1, 2], [0.2, 0.5, 0.3], precision=15)
    assert out.lower <= out.mean_sqrt <= out.upper


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


def test_sandwich_precision_validation():
    with pytest.raises(InputError):
        sandwich_check(BlockPartitionSpec(4, 2, (2, 2)), precision=0)
    with pytest.raises(InputError):
        sandwich_check(BlockPartitionSpec(4, 2, (2, 2)), precision=101)
