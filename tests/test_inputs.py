"""The library's integer rule (`errors._exact_int`): every count, size,
index, seed and precision a library function reads is an integral value
and is stored as an int.  4.0 and numpy integers are read as the integer
they equal; 1.5, True, "3" and NaN raise InputError, never a TypeError,
a truncation or a silent bool-as-1."""

import numpy as np
import pytest

from boolsurf import partition
from boolsurf.core import (TruthTable, _check_index, _check_n, all_function_words,
                           sensitivity_histogram)
from boolsurf.errors import InputError, _exact_int
from boolsurf.partition import (BlockPartitionSpec, HypergeometricParams, block_average_B,
                                bsa_block_bound, hg_pmf, mc_partition_average, near_equal_sizes,
                                near_equal_sweep, sandwich_check, sandwich_rows)
from boolsurf.ptf import _check_storage_n, alpha_estimate, generate
from boolsurf.restriction import (Restriction, restriction_failure_prob, sample_restriction,
                                  tail_coupling_check)
from boolsurf.seeding import mc_values, resolve_workers, substream

MAJ5 = TruthTable.majority(5)
POLY = generate("maj", 5)


def _uniform(rng, size):
    return rng.random(size)


# entry point -> (call with the integer under test, a valid integer);
# each call returns something comparable with ==
ENTRY_POINTS = {
    "core._check_n": (_check_n, 3),
    "core._check_index": (lambda x: _check_index(x, 3, "point index"), 5),
    "core.all_function_words": (lambda x: all_function_words(x).tolist(), 2),
    "core.sensitivity_histogram": (
        lambda x: sensitivity_histogram(all_function_words(2), x)[0].tolist(), 2),
    "TruthTable.majority": (lambda x: TruthTable.majority(x).values.tolist(), 5),
    "ptf._check_storage_n": (_check_storage_n, 40),
    "generate n": (lambda x: generate("maj", x).to_json_dict(), 4),
    "generate degree": (lambda x: generate("rand", 4, degree=x, seed=1).to_json_dict(), 2),
    "generate nterms": (
        lambda x: generate("rands", 4, degree=2, nterms=x, seed=1).to_json_dict(), 3),
    "seeding.substream seed": (lambda x: substream(x).integers(1 << 30), 7),
    "seeding.substream index": (lambda x: substream(7, x).integers(1 << 30), 2),
    "seeding.resolve_workers": (resolve_workers, 2),
    "seeding.mc_values trials": (lambda x: mc_values(x, 1, None, _uniform).tolist(), 3),
    "Restriction pattern entry": (lambda x: Restriction([1, 0, x]).pattern.tolist(), -1),
    "restriction._sample_patterns n": (
        lambda x: sample_restriction(x, 0.5, seed=1).pattern.tolist(), 4),
    "restriction_failure_prob seed": (
        lambda x: restriction_failure_prob(POLY, 0.0625, 0.0625, 20, seed=x), 1),
    "restriction_failure_prob max_free": (
        lambda x: restriction_failure_prob(POLY, 0.0625, 0.0625, 20, seed=1, max_free=x), 2),
    "tail_coupling_check m": (lambda x: tail_coupling_check(MAJ5, x), 2),
    "alpha_estimate trials": (lambda x: alpha_estimate(POLY, x, seed=1), 4),
    "partition._check_precision": (lambda x: block_average_B(BlockPartitionSpec(4, 2, (2, 2)), x),
                                   20),
    "sandwich_check precision": (
        lambda x: sandwich_check(BlockPartitionSpec(4, 2, (2, 2)), x), 20),
    "hg_pmf s": (lambda x: hg_pmf(HypergeometricParams(4, 2, 2), x), 1),
    "HypergeometricParams population": (lambda x: HypergeometricParams(x, 2, 2), 4),
    "HypergeometricParams successes": (lambda x: HypergeometricParams(4, x, 2), 2),
    "HypergeometricParams draws": (lambda x: HypergeometricParams(4, 2, x), 2),
    "BlockPartitionSpec n": (lambda x: BlockPartitionSpec(x, 2, (2, 2)), 4),
    "BlockPartitionSpec k": (lambda x: BlockPartitionSpec(4, x, (2, 2)), 2),
    "BlockPartitionSpec sizes": (lambda x: BlockPartitionSpec(4, 2, (2, x)), 2),
    "near_equal_sizes n": (lambda x: near_equal_sizes(x, 2), 5),
    "near_equal_sizes blocks": (lambda x: near_equal_sizes(5, x), 2),
    "near_equal_sweep": (lambda x: list(near_equal_sweep([x])), 3),
    "sandwich_rows n": (lambda x: list(sandwich_rows(x, (2, 2), [1])), 4),
    "sandwich_rows k": (lambda x: list(sandwich_rows(4, (2, 2), [x])), 1),
    "bsa_block_bound blocks": (lambda x: bsa_block_bound(MAJ5, x, 10, seed=1), 2),
    "mc_partition_average trials": (
        lambda x: mc_partition_average([1, 0, 1, 1], (2, 2), x, seed=1), 10),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_integral_values_read_as_their_integer(name):
    call, good = ENTRY_POINTS[name]
    want = call(good)
    assert call(float(good)) == want
    assert call(np.int64(good)) == want


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [0.5, True, "3", np.float64("nan"), 2j])
def test_non_integers_are_input_errors(name, bad):
    call, good = ENTRY_POINTS[name]
    value = good + bad if isinstance(bad, float) else bad
    with pytest.raises(InputError, match="is not an integer"):
        call(value)


def test_stored_values_are_ints():
    spec = BlockPartitionSpec(4.0, np.int64(2), (2.0, np.int32(2)))
    assert [type(v) for v in (spec.n, spec.k, *spec.sizes)] == [int] * 4
    params = HypergeometricParams(np.int64(4), 2.0, np.uint8(2))
    assert [type(v) for v in (params.population, params.successes, params.draws)] == [int] * 3
    assert type(partition._check_precision(np.int16(20))) is int
    assert next(sandwich_rows(4.0, (2, 2), [1.0]))[:2] == (4, 1)


@pytest.mark.parametrize("value", [4, 4.0, np.int64(4), np.uint8(4), np.float32(4.0)])
def test_exact_int_reads_integral_numbers(value):
    assert _exact_int(value, "x") == 4 and type(_exact_int(value, "x")) is int


@pytest.mark.parametrize("value", [4.5, True, np.True_, "4", b"4", float("inf"), None, 4 + 0j])
def test_exact_int_rejects_everything_else(value):
    with pytest.raises(InputError, match=r"^x .* is not an integer$"):
        _exact_int(value, "x")


@pytest.mark.parametrize("pattern", [[0.5, 1, -1], [True, 0, 0], np.array([0.5, 1.0]),
                                     np.array([True, False])])
def test_restriction_entries_are_never_truncated(pattern):
    # an int8 cast would read these as '*+-', '+**', '*+' and '+*'
    with pytest.raises(InputError, match="is not an integer"):
        Restriction(pattern)


@pytest.mark.parametrize("pattern", [[2, 0], [0, -2], np.array([255, 0]), np.array([1, 256])])
def test_restriction_entries_outside_the_signs_are_input_errors(pattern):
    # 255 and 256 would wrap to -1 and 0 under an int8 cast
    with pytest.raises(InputError, match="must be -1, 0, or \\+1"):
        Restriction(pattern)


@pytest.mark.parametrize("pattern", [[[1], [1, 0]], [1, [0]], [[1, 0], [0, 1]], 5])
def test_restriction_patterns_must_be_flat(pattern):
    # the ragged ones make numpy raise its own ValueError while reading the shape
    with pytest.raises(InputError, match="^restriction pattern must be one-dimensional$"):
        Restriction(pattern)


def test_restriction_reads_integral_entries_of_any_type():
    want = Restriction.from_string("+*-")
    for pattern in ([1.0, 0.0, -1.0], np.array([1, 0, -1], dtype=np.int8),
                    np.array([1.0, 0.0, -1.0]), (np.int64(1), 0, np.float32(-1))):
        got = Restriction(pattern)
        assert got.pattern.tolist() == want.pattern.tolist() and got.pattern.dtype == np.int8
