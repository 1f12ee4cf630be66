import numpy as np
import pytest

from boolsurf.errors import CapacityError, InputError
from boolsurf.seeding import (MC_BYTES_CAP, chunk_sizes, mc_values, mean_and_stderr,
                              resolve_workers, substream)


def test_substream_reproducible_and_independent():
    a = substream(42, 0).random(5)
    b = substream(42, 0).random(5)
    assert (a == b).all()
    c = substream(42, 1).random(5)
    assert not (a == c).all()
    d = substream(43, 0).random(5)
    assert not (a == d).all()


def test_chunk_sizes():
    assert chunk_sizes(10, 3) == [4, 3, 3]
    assert chunk_sizes(2, 4) == [1, 1, 0, 0]
    assert chunk_sizes(0, 2) == [0, 0]
    assert sum(chunk_sizes(1001, 7)) == 1001
    with pytest.raises(InputError):
        chunk_sizes(-1, 2)
    with pytest.raises(InputError):
        chunk_sizes(5, 0)


def test_resolve_workers_default_is_one():
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4
    with pytest.raises(InputError):
        resolve_workers(0)


def test_mc_values_depends_only_on_seed_and_workers():
    def draw(rng, size):
        return rng.random(size)

    a = mc_values(100, 7, 4, draw)
    b = mc_values(100, 7, 4, draw)
    assert (a == b).all()
    assert a.size == 100
    # chunk boundaries move with the worker count, so streams differ
    c = mc_values(100, 7, 2, draw)
    assert not (a == c).all()


def test_mc_values_empty_chunks_are_skipped():
    calls = []

    def draw(rng, size):
        calls.append(size)
        return np.zeros(size)

    out = mc_values(2, 0, 5, draw)
    assert out.size == 2
    assert calls == [1, 1]


def test_mc_values_refuses_over_the_byte_cap_before_drawing():
    calls = []

    def draw(rng, size):
        calls.append(size)
        return rng.random(size)

    # 8 bytes of working set plus 16 for the kept values: just over the cap
    trials = MC_BYTES_CAP // 24 + 1
    with pytest.raises(CapacityError, match="out of memory"):
        mc_values(trials, 0, 1, draw, 8)
    with pytest.raises(CapacityError):
        mc_values(10, 0, 1, draw, MC_BYTES_CAP)
    assert calls == []
    # the largest chunk is what counts: more workers, smaller chunks
    with pytest.raises(CapacityError):
        mc_values(4, 0, 2, draw, MC_BYTES_CAP // 2)
    assert mc_values(4, 0, 4, draw, MC_BYTES_CAP // 2).size == 4
    # below the cap the stream is the uncapped one
    assert (mc_values(50, 3, 2, draw, 1 << 20)
            == np.concatenate([substream(3, 0).random(25), substream(3, 1).random(25)])).all()


def test_mean_and_stderr():
    m, e = mean_and_stderr(np.array([3.0]))
    assert m == 3.0 and e == 0.0
    values = np.array([1.0, 2.0, 3.0, 4.0])
    m, e = mean_and_stderr(values)
    assert m == 2.5
    want = values.std(ddof=1) / 2.0
    assert e == pytest.approx(float(want))


def test_trial_count_and_seed_are_checked_once_for_every_estimator():
    with pytest.raises(InputError, match="need trials >= 1"):
        mc_values(0, 0, 1, lambda rng, size: rng.random(size))
    with pytest.raises(InputError, match="seed must be >= 0"):
        substream(-1)
