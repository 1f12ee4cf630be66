"""Deterministic random streams for Monte Carlo routines.

One master seed expands into numbered substreams through numpy's
``SeedSequence(entropy=seed, spawn_key=(index,))`` construction on top of
the counter-based Philox generator.  Monte Carlo routines split their
trial budget into one chunk per worker and draw chunk ``i`` from
``substream(seed, i)``; chunks are evaluated in index order and reduced
in that same order, so every estimate is a pure function of
``(seed, worker count)`` and never of scheduling.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InputError, _exact_int

# Bytes one Monte Carlo call may hold at once.  A larger request exits
# with a capacity error before drawing, instead of paging on a host
# without that much memory or being killed on one that overcommits.
MC_BYTES_CAP = 1 << 31


class Estimate(NamedTuple):
    """Monte Carlo (mean, standard error) pair."""

    estimate: float
    stderr: float


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for substream `index` of master `seed` (>= 0)."""
    seed = _exact_int(seed, "seed")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_exact_int(index, "substream index"),))
    return np.random.Generator(np.random.Philox(ss))


def resolve_workers(workers: int | None = None) -> int:
    """The explicit worker count, or 1 when it is None."""
    workers = 1 if workers is None else _exact_int(workers, "worker count")
    if workers < 1:
        raise InputError("worker count must be >= 1")
    return workers


def chunk_sizes(total: int, parts: int) -> list[int]:
    """Split `total` trials into `parts` near-equal chunks, large chunks first."""
    if total < 0 or parts < 1:
        raise InputError("need total >= 0 and parts >= 1")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def mc_values(total: int, seed: int, workers: int | None, draw,
              trial_bytes: int = 8) -> np.ndarray:
    """Concatenated per-trial values from chunked substreams.

    ``draw(rng, size)`` must return a 1-D float array of length `size`
    and hold at most `trial_bytes` bytes per trial while it runs (by
    default only the float64 values it returns).  Chunk i draws from
    substream i.  With more workers than trials only the first `total`
    chunks are nonempty, so only those are walked; the empty ones would
    consume nothing.  A request whose largest chunk plus the kept values
    would need more than MC_BYTES_CAP raises CapacityError before any
    chunk is drawn.
    """
    total = _exact_int(total, "trial count")
    if total < 1:
        raise InputError("need trials >= 1")
    workers = resolve_workers(workers)
    substream(seed)  # a bad seed is reported before an oversized request
    sizes = chunk_sizes(total, min(workers, total))
    # every value is kept, then copied once more by the concatenation
    if sizes[0] * trial_bytes + 16 * total > MC_BYTES_CAP:
        raise CapacityError("out of memory")
    parts = []
    for index, size in enumerate(sizes):
        parts.append(np.asarray(draw(substream(seed, index), size), dtype=np.float64))
    return np.concatenate(parts)


def mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error; stderr is 0.0 for a single value."""
    m = float(values.mean())
    if values.size < 2:
        return m, 0.0
    return m, float(values.std(ddof=1) / np.sqrt(values.size))
