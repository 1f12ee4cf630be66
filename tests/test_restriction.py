import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from boolsurf import ptf, restriction
from boolsurf.core import TruthTable
from boolsurf.errors import CapacityError, InputError
from boolsurf.ptf import SparsePolynomial, _rounding_radius, generate, restrict_poly, sign_table
from boolsurf.restriction import (_CELL_BUDGET, Restriction, _plus_counts, _sample_patterns,
                                  _trial_values,
                                  closeness_to_constant, restrict_table,
                                  restriction_failure_prob, sample_restriction,
                                  sensitive_fraction_bound_exhaustive,
                                  tail_coupling_check)
from boolsurf.seeding import chunk_sizes, mc_values, substream


# ---------------------------------------------------------------- patterns


def complete(rho, y):
    """Full point index of sub-index y under rho: bit j of y goes to the
    j-th free coordinate, on top of the fixed -1 coordinates."""
    idx = rho.fixed_base_index()
    for j, i in enumerate(rho.free_indices().tolist()):
        idx |= (y >> j & 1) << i
    return idx


def test_restriction_pattern_basics():
    rho = Restriction.from_string("+*-*")
    assert rho.pattern.tolist() == [1, 0, -1, 0]
    assert rho.free_indices().tolist() == [1, 3]
    assert rho.free_count == 2
    assert repr(rho) == "Restriction('+*-*')"


def test_restriction_validation():
    with pytest.raises(InputError):
        Restriction([2, 0, 1])
    with pytest.raises(InputError):
        Restriction.from_string("+?")
    # the empty restriction pairs with the zero-variable table
    empty = Restriction([])
    assert empty.free_count == 0 and empty.fixed_base_index() == 0


def test_complete_places_fixed_signs():
    # x2 fixed at +1 (bit clear), x3 fixed at -1 (bit set)
    rho = Restriction.from_string("*+-*")
    base = rho.fixed_base_index()
    assert base == 0b0100
    # y bit 0 -> coordinate 1, y bit 1 -> coordinate 4
    assert complete(rho, 0b00) == 0b0100
    assert complete(rho, 0b01) == 0b0101
    assert complete(rho, 0b10) == 0b1100
    assert complete(rho, 0b11) == 0b1101


def test_free_indices_are_stored_read_only():
    rho = Restriction.from_string("-*+*-")
    free = rho.free_indices()
    assert free is rho.free_indices()
    assert not free.flags.writeable
    with pytest.raises(ValueError):
        free[0] = 2
    assert rho.free_count == 2 and rho.fixed_base_index() == 0b10001


def test_complete_is_exact_beyond_63_coordinates():
    pattern = [-1] * 64
    pattern[63] = 0
    pattern[5] = 1
    rho = Restriction(pattern)
    minus = (1 << 63) - 1 - (1 << 5)
    assert rho.fixed_base_index() == minus
    assert complete(rho, 0) == minus
    assert complete(rho, 1) == minus + (1 << 63) == 2**64 - 1 - 32
    assert type(complete(rho, 1)) is int


def test_sample_restriction_deterministic():
    a = sample_restriction(12, 0.25, seed=3)
    b = sample_restriction(12, 0.25, seed=3)
    assert (a.pattern == b.pattern).all()


def test_sample_restriction_rate_validation():
    for rate in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(InputError):
            sample_restriction(5, rate, seed=0)
    with pytest.raises(InputError):
        sample_restriction(0, 0.5, seed=0)


def test_sample_free_count_binomial_mean():
    n, rate, count = 10, 0.3, 100_000
    rng = substream(7, 0)
    frees = np.count_nonzero(_sample_patterns(n, rate, rng, count) == 0, axis=1)
    mean = float(np.mean(frees))
    sigma = math.sqrt(n * rate * (1.0 - rate) / count)
    assert abs(mean - n * rate) <= 4.0 * sigma


# ---------------------------------------------------------------- tables


def test_restrict_table_embedded_parity():
    f = TruthTable.parity(5, 0b00011)  # x1 * x2
    rho = Restriction.from_string("*+***")  # fix x2 = +1
    assert restrict_table(f, rho) == TruthTable.parity(4, 0b0001)
    rho = Restriction.from_string("*-***")  # fix x2 = -1: sign flips
    got = restrict_table(f, rho)
    assert (got.values == -TruthTable.parity(4, 0b0001).values).all()


def test_restrict_table_all_fixed():
    f = TruthTable.majority(3)
    rho = Restriction.from_string("++-")
    got = restrict_table(f, rho)
    assert got.n == 0
    assert got.values.tolist() == [int(f.values[0b100])] == [1]


def test_restrict_table_majority5_two_fixed_positive():
    f = TruthTable.majority(5)
    rho = Restriction.from_string("***++")
    got = restrict_table(f, rho)
    # remaining function is sgn(y1 + y2 + y3 + 2): only all-minus flips it
    p = SparsePolynomial(3, {0b001: 1.0, 0b010: 1.0, 0b100: 1.0, 0: 2.0})
    want, _ = sign_table(p)
    assert got == want


def test_restrict_table_dimension_mismatch():
    with pytest.raises(InputError):
        restrict_table(TruthTable.majority(3), Restriction.from_string("+*"))


def test_restrict_commutes_with_sign():
    p = generate("random", 10, degree=2, seed=6)
    f, _ = sign_table(p)
    rng = np.random.default_rng(404)
    for _ in range(300):
        rho = Restriction(rng.choice([-1, 0, 1], size=10))
        direct = restrict_table(f, rho)
        via_poly, _ = sign_table(restrict_poly(p, rho))
        assert direct == via_poly


def test_closeness_values():
    assert closeness_to_constant(TruthTable.constant(3, -1)) == (0.0, -1)
    assert closeness_to_constant(TruthTable.dictator(2)) == (0.5, 1)
    assert closeness_to_constant(TruthTable.majority(3)) == (0.5, 1)
    f = TruthTable(2, [1, 1, 1, -1])
    assert closeness_to_constant(f) == (0.25, 1)
    zero_var = TruthTable.constant(0, -1)
    assert closeness_to_constant(zero_var) == (0.0, -1)


# ---------------------------------------------------------------- failure prob


def test_failure_prob_constant_polynomial_is_zero():
    p = SparsePolynomial(6, {0: 2.0})
    out = restriction_failure_prob(p, rate=0.05, delta=0.05, trials=500, seed=1)
    assert out.estimate == 0.0
    assert out.stderr == 0.0
    assert out.rejection_rate == 0.0


def test_failure_prob_dictator_tracks_rate():
    # the restricted dictator is non-constant exactly when x1 stays free
    p = SparsePolynomial(8, {1: 1.0})
    for rate in (0.03, 0.0625):
        out = restriction_failure_prob(p, rate=rate, delta=0.01,
                                       trials=20_000, seed=9)
        assert abs(out.estimate - rate) <= 4.0 * out.stderr


def test_failure_prob_warns_above_guideline():
    p = SparsePolynomial(4, {1: 1.0})
    with pytest.warns(UserWarning):
        restriction_failure_prob(p, rate=0.2, delta=0.01, trials=50, seed=0)
    with pytest.warns(UserWarning):
        restriction_failure_prob(p, rate=0.05, delta=0.2, trials=50, seed=0)


def test_failure_prob_rejection_accounting():
    p = generate("majority", 12)
    with pytest.warns(UserWarning):
        out = restriction_failure_prob(p, rate=0.5, delta=0.01, trials=400,
                                       seed=3, max_free=4)
    assert out.trials == 400
    assert out.rejected > 0
    assert out.rejection_rate == out.rejected / 400
    assert not math.isnan(out.estimate)


def test_failure_prob_all_rejected_is_nan():
    p = generate("majority", 12)
    with pytest.warns(UserWarning):
        out = restriction_failure_prob(p, rate=0.9, delta=0.01, trials=60,
                                       seed=5, max_free=1)
    assert math.isnan(out.estimate)
    assert out.rejection_rate == 1.0


def test_failure_prob_deterministic():
    p = generate("random", 10, degree=2, seed=0)
    a = restriction_failure_prob(p, rate=0.05, delta=0.05, trials=1000,
                                 seed=11, workers=3)
    b = restriction_failure_prob(p, rate=0.05, delta=0.05, trials=1000,
                                 seed=11, workers=3)
    assert a == b


def test_failure_prob_majority16_rate_sweep_nonincreasing():
    p = generate("majority", 16)
    estimates = []
    for rate in (0.25, 0.0625, 0.015625):
        if rate > 1.0 / 16.0:
            with pytest.warns(UserWarning):
                out = restriction_failure_prob(p, rate=rate, delta=0.0625,
                                               trials=20_000, seed=2)
        else:
            out = restriction_failure_prob(p, rate=rate, delta=0.0625,
                                           trials=20_000, seed=2)
        estimates.append(out.estimate)
    assert estimates[0] >= estimates[1] >= estimates[2]


def reference_trial_values(p, rate, delta, trials, seed, workers, max_free):
    """Per-trial values through the public single-trial path, chunk by chunk."""
    values = []
    for index, size in enumerate(chunk_sizes(trials, min(workers, trials))):
        for pattern in _sample_patterns(p.n, rate, substream(seed, index), size):
            rho = Restriction(pattern)
            if rho.free_count > max_free:
                values.append(math.nan)
                continue
            table = sign_table(restrict_poly(p, rho))[0]
            values.append(float(closeness_to_constant(table)[0] > delta))
    return np.array(values)


def exact_plus_count(p, pattern):
    """+1 signs of p restricted by `pattern`, from exact Fraction values at
    the patterns of the free coordinates that p's terms use, each of which
    stands for 2^(the other free coordinates) sub-points."""
    rho = Restriction(pattern)
    free = rho.free_indices().tolist()
    used = [i for i in free if any(mask >> i & 1 for mask in p.terms)]
    plus = 0
    for sub in range(1 << len(used)):
        x = rho.fixed_base_index() | sum((sub >> j & 1) << i for j, i in enumerate(used))
        value = sum(Fraction(c) * (-1) ** bin(mask & x).count("1") for mask, c in p.terms.items())
        plus += value >= 0
    return plus << (len(free) - len(used))


# name: (terms, n, patterns each leaving the same f free); a float sign of the
# stack is wrong somewhere in each case but the dyadic one, whose radius is 0
PLUS_COUNT_CASES = {
    "witness": ({24: -0.6, 27: 0.1, 28: 0.3, 45: 0.2, 53: -0.6}, 6,
                [[-1, 0, 0, 0, 1, 0], [1, 0, 0, 0, -1, 0]]),
    "decimal-ties": ({2: 0.6, 3: -0.1, 5: -0.7}, 4, [[0, 0, 0, 1], [0, 0, 0, -1]]),
    "dyadic-ties": ({1: 0.5, 2: 0.25, 4: 0.25, 8: 0.75}, 4, [[0, 0, 0, 1], [0, 0, 0, -1]]),
    "integers-past-2^53": ({1: -1.0, 2: -2.0 ** 53, 4: 2.0 ** 53}, 4,
                           [[0, 0, 0, 1], [0, 0, 0, -1]]),
    # x1's collected coefficient 0.1 + 0.2 + 0.3 is 0.6 rounded once, not
    # 0.6000000000000001 added in order, which would read sign(0) = +1
    "collected-rounding": ({1: 0.1, 3: 0.2, 5: 0.3, 0: -0.6000000000000001}, 3,
                           [[0, 1, 1], [0, -1, 1]]),
}


@pytest.mark.parametrize("wide", [False, True], ids=["f<=16", "f>16"])
@pytest.mark.parametrize("case", list(PLUS_COUNT_CASES))
def test_plus_counts_are_exact(case, wide):
    terms, n, rows = PLUS_COUNT_CASES[case]
    f = rows[0].count(0)
    pad = 17 - f if wide else 0  # free coordinates that no term uses
    p = SparsePolynomial(n + pad, terms)
    patterns = np.array([row + [0] * pad for row in rows], dtype=np.int8)
    got = _plus_counts(p, patterns, f + pad, _rounding_radius(p))
    exact = [exact_plus_count(p, pattern) for pattern in patterns]
    single = [int(np.count_nonzero(sign_table(restrict_poly(p, Restriction(pattern)))[0].values
                                   == 1)) for pattern in patterns]
    assert got.tolist() == exact == single


@pytest.mark.parametrize("f", [17, 20])
@pytest.mark.parametrize("case", list(PLUS_COUNT_CASES))
def test_plus_counts_are_exact_across_high_parts(case, f, monkeypatch):
    # the case's free coordinates move to compressed bits that alternate
    # between the top ones (>= 16) and the bottom ones, so the wide row's
    # terms fall into more than one high part of eval_on_cube's product
    terms, n, rows = PLUS_COUNT_CASES[case]
    free = [i for i, v in enumerate(rows[0]) if v == 0]
    fixed = [i for i, v in enumerate(rows[0]) if v != 0]
    top, bottom = list(range(f - 1, 15, -1)), list(range(16))
    slots = [(top if k % 2 == 0 and top else bottom).pop(0) for k in range(len(free))]
    moved = dict(zip(free, slots)) | {i: f + j for j, i in enumerate(fixed)}
    p = SparsePolynomial(f + len(fixed), {
        sum(1 << moved[i] for i in range(n) if mask >> i & 1): c for mask, c in terms.items()})
    assert len(np.unique(p.masks % (1 << f) >> 16)) > 1
    patterns = np.array([[0] * f + [row[i] for i in fixed] for row in rows], dtype=np.int8)
    calls = []
    monkeypatch.setattr(restriction, "eval_on_cube",
                        lambda *terms: calls.append(terms[2]) or ptf.eval_on_cube(*terms))
    got = _plus_counts(p, patterns, f, _rounding_radius(p))
    assert calls == [f]  # one call for the batch
    assert got.tolist() == [exact_plus_count(p, pattern) for pattern in patterns]


@pytest.mark.parametrize("f", [3, 17])
def test_plus_counts_of_rows_with_no_terms(f):
    p = SparsePolynomial(f + 1, {})
    patterns = np.array([[0] * f + [1], [0] * f + [-1]], dtype=np.int8)
    assert _plus_counts(p, patterns, f, _rounding_radius(p)).tolist() == [1 << f] * 2


@pytest.mark.parametrize("f", [12, 17], ids=["stack", "product"])
def test_batched_values_within_rounding_radius(f, monkeypatch):
    # each term on the free coordinates recurs times every subset of the three
    # fixed ones, so eight decimal coefficients collide, uncollected, on each
    # compressed mask; at f = 17 the compressed masks span both high parts
    free = generate("random-sparse", f, degree=3, nterms=24, seed=f).masks.tolist()
    coefs = iter(np.random.default_rng(f).standard_normal(8 * len(free)).tolist())
    p = SparsePolynomial(f + 3, {mask | extra << f: next(coefs)
                                 for mask in free for extra in range(8)})
    patterns = np.array([[0] * f + signs for signs in ([1, 1, -1], [-1, 1, 1], [-1, -1, -1])],
                        dtype=np.int8)
    radius = _rounding_radius(p)
    assert radius > 0.0
    assert f <= 16 or len({mask >> 16 for mask in free}) > 1
    batches = []

    def capture(*terms):
        batches.append(np.concatenate(list(ptf.eval_on_cube(*terms))))
        return iter(batches[-1:])

    monkeypatch.setattr(restriction, "eval_on_cube", capture)
    _plus_counts(p, patterns, f, radius)
    [values] = batches
    for at in np.random.default_rng(f).integers(0, len(values), size=64).tolist():
        x = complete(Restriction(patterns[at >> f]), at & ((1 << f) - 1))
        exact = sum(Fraction(c) * (-1) ** bin(mask & x).count("1") for mask, c in p.terms.items())
        assert abs(Fraction(values[at]) - exact) <= radius


def test_plus_counts_are_exact_where_the_collected_coefficient_rounds():
    # 0.1 + 0.2 is a tie that rounds up to 0.30000000000000004, so the
    # restricted polynomial reads sign(0) = +1 at x1 = +1, where p is -2.8e-17
    p = SparsePolynomial(2, {1: 0.1, 3: 0.2, 0: -0.30000000000000004})
    patterns = np.array([[0, 1]], dtype=np.int8)
    got = _plus_counts(p, patterns, 1, _rounding_radius(p))
    assert got.tolist() == [exact_plus_count(p, patterns[0])] == [0]
    # the single route rounds the combined coefficient once: README's residual
    table, zeros = sign_table(restrict_poly(p, Restriction(patterns[0])))
    assert (int(np.count_nonzero(table.values == 1)), zeros) == (1, 1)


# x1x2, x1x3 and x1x2x3 all land on x1 once x2 and x3 are fixed, and with
# x2 = +1, x3 = -1 the two degree-2 terms cancel to an exact zero
COLLIDING = SparsePolynomial(4, {0b0001: 0.25, 0b0011: 1.0, 0b0101: 1.0, 0b0111: -0.5,
                                 0b1000: 0.75, 0b1110: 1.5, 0: -0.125})
# coordinate 64 (bit 63 of the -1 mask) in three terms
WIDE = SparsePolynomial(64, {**generate("random-sparse", 64, degree=2, nterms=40, seed=4).terms,
                             1 << 63: 0.7, 1 << 63 | 1 << 5: -1.1, 1 << 63 | 1: 0.4})

EQUIVALENCE_CASES = {
    # name: (polynomial, rate, delta, trials, max_free)
    "maj:16": (generate("majority", 16), 0.25, 0.0625, 600, 24),
    "rand:d=2,n=14": (generate("random", 14, degree=2, seed=3), 0.0625, 0.0625, 600, 24),
    "colliding": (COLLIDING, 0.5, 0.01, 400, 24),
    "n=64,bit63": (WIDE, 0.125, 0.0625, 300, 24),
    "max_free": (generate("majority", 12), 0.5, 0.01, 400, 4),
    "f=0": (generate("random", 10, degree=2, seed=1), 0.015625, 0.0625, 600, 24),
    # 1471 terms: a group of more than _CELL_BUDGET // 1471 rows splits into batches
    "batches": (generate("random", 14, degree=4, seed=2), 0.25, 0.0625, 600, 24),
    # f > 16: those trials run one at a time through eval_on_cube's product route
    "oversize": (generate("majority", 20), 0.9, 0.0625, 8, 24),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_batched_trials_equal_single_trial_path(case, workers):
    p, rate, delta, trials, max_free = EQUIVALENCE_CASES[case]
    draw = partial(_trial_values, p, rate, delta, max_free, _rounding_radius(p))
    got = mc_values(trials, 5, workers, draw)
    want = reference_trial_values(p, rate, delta, trials, 5, workers, max_free)
    assert np.array_equal(got, want, equal_nan=True)
    assert set(np.unique(want[~np.isnan(want)]).tolist()) <= {0.0, 1.0}
    patterns = np.concatenate([_sample_patterns(p.n, rate, substream(5, i), size) for i, size
                               in enumerate(chunk_sizes(trials, min(workers, trials)))])
    free = np.count_nonzero(patterns == 0, axis=1)
    accepted = free <= max_free
    if case == "max_free":
        assert np.isnan(got).any() and not np.isnan(got).all()
    else:
        assert accepted.all()
    if case == "f=0":
        assert (free == 0).mean() > 0.5
    if case == "n=64,bit63":
        assert ((patterns[:, 63] == -1) & accepted).sum() > 100
    if case == "batches":
        sizes = np.bincount(free) * len(p.masks)
        assert sizes.max() > _CELL_BUDGET
    if case == "oversize":
        assert (1 << free.max()) > _CELL_BUDGET
    if case == "colliding":
        cancel = (patterns[:, 0] == 0) & (patterns[:, 1] == 1) & (patterns[:, 2] == -1)
        assert cancel.any() and (want == 1.0).any() and (want == 0.0).any()


def test_failure_prob_validation():
    p = SparsePolynomial(4, {1: 1.0})
    with pytest.raises(InputError):
        restriction_failure_prob(p, rate=0.05, delta=0.05, trials=0, seed=0)
    with pytest.raises(InputError):
        restriction_failure_prob(p, rate=0.05, delta=0.0, trials=10, seed=0)
    with pytest.raises(InputError):
        restriction_failure_prob(p, rate=0.05, delta=0.05, trials=10, seed=0,
                                 max_free=0)


def test_failure_prob_golden():
    # exact reference figures: pin term summation order and stream consumption
    p = generate("random", 14, degree=2, seed=3)
    out = restriction_failure_prob(p, 0.0625, 0.0625, 2000, seed=11, workers=2)
    assert (out.estimate, out.stderr) == (0.2025, 0.008985926496472138)
    with pytest.warns(UserWarning):
        out = restriction_failure_prob(p, 0.5, 0.0625, 500, seed=11, workers=3, max_free=6)
    assert (out.estimate, out.stderr, out.rejected) == (0.824468085106383,
                                                        0.027745084071700496, 312)


# ---------------------------------------------------------------- tails


def test_tail_full_parity():
    n = 6
    f = TruthTable.parity(n, (1 << n) - 1)
    rep = tail_coupling_check(f, n)
    assert rep.p_e == 1
    assert rep.coupling_lb == 1 - (1 - Fraction(1, n)) ** n
    assert rep.bound_ratio == rep.coupling_lb
    assert rep.floor == rep.coupling_lb


def test_tail_constant():
    rep = tail_coupling_check(TruthTable.constant(5), 2)
    assert rep.p_e == 0
    assert rep.coupling_lb == 0
    assert rep.bound_ratio is None


def test_tail_majority5_level3_exact():
    rep = tail_coupling_check(TruthTable.majority(5), 3)
    assert rep.p_e == Fraction(20, 32)
    assert rep.coupling_lb == Fraction(20, 32) * Fraction(19, 27)
    assert rep.bound_ratio == Fraction(19, 27)
    assert rep.floor == 1 - Fraction(2, 3) ** 3


def test_tail_level1_counts_sensitive_points():
    f = TruthTable.majority(3)
    rep = tail_coupling_check(f, 1)
    counts = f.profile().counts
    assert rep.p_e == Fraction(int(counts[1:].sum()), 8) == Fraction(6, 8)
    assert rep.coupling_lb == rep.p_e  # every resampling hits when m = 1
    assert rep.bound_ratio == 1


def test_tail_validation():
    f = TruthTable.majority(3)
    with pytest.raises(InputError):
        tail_coupling_check(f, 0)
    with pytest.raises(InputError):
        tail_coupling_check(f, 4)
    with pytest.raises(InputError):
        tail_coupling_check(TruthTable.constant(0), 1)


def test_tail_sandwich_random_sweep():
    for seed in range(15):
        f = TruthTable.random(seed % 8 + 1, seed=300 + seed)
        for m in range(1, f.n + 1):
            rep = tail_coupling_check(f, m)  # raises on any sandwich breach
            assert 0 <= rep.coupling_lb <= rep.p_e <= 1


# ---------------------------------------------------------------- exhaustive


def test_sensitive_fraction_single_variable():
    rep = sensitive_fraction_bound_exhaustive(1)
    assert rep.functions_checked == 4
    assert rep.violations == 0
    assert rep.max_ratio == 1.0
    # the extremal function is a dictator (or its negation): s identically 1
    assert rep.witness.profile().counts.tolist() == [0, 2]


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_sensitive_fraction_no_violations(ell):
    rep = sensitive_fraction_bound_exhaustive(ell)
    assert rep.functions_checked == 1 << (1 << ell)
    assert rep.violations == 0
    assert rep.max_ratio <= 1.0


def test_sensitive_fraction_caps():
    with pytest.raises(CapacityError):
        sensitive_fraction_bound_exhaustive(5)
    with pytest.raises(InputError):
        sensitive_fraction_bound_exhaustive(0)
