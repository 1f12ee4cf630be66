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

from .errors import InputError


class Estimate(NamedTuple):
    """Monte Carlo (mean, standard error) pair."""

    estimate: float
    stderr: float


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for substream `index` of master `seed` (>= 0)."""
    seed = int(seed)
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))


def resolve_workers(workers: int | None = None) -> int:
    """The explicit worker count, or 1 when it is None."""
    workers = 1 if workers is None else int(workers)
    if workers < 1:
        raise InputError("worker count must be >= 1")
    return workers


def chunk_sizes(total: int, parts: int) -> list[int]:
    """Split `total` trials into `parts` near-equal chunks, large chunks first."""
    if total < 0 or parts < 1:
        raise InputError("need total >= 0 and parts >= 1")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def mc_values(total: int, seed: int, workers: int | None, draw) -> np.ndarray:
    """Concatenated per-trial values from chunked substreams.

    ``draw(rng, size)`` must return a 1-D float array of length `size`.
    Chunk i draws from substream i.  With more workers than trials only
    the first `total` chunks are nonempty, so only those are walked; the
    empty ones would consume nothing.
    """
    if total < 1:
        raise InputError("need trials >= 1")
    workers = resolve_workers(workers)
    parts = []
    for index, size in enumerate(chunk_sizes(total, min(workers, total))):
        parts.append(np.asarray(draw(substream(seed, index), size), dtype=np.float64))
    return np.concatenate(parts)


def mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error; stderr is 0.0 for a single value."""
    m = float(values.mean())
    if values.size < 2:
        return m, 0.0
    return m, float(values.std(ddof=1) / np.sqrt(values.size))
