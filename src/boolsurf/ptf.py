"""Multilinear polynomials over the signed hypercube and their sign functions.

A polynomial is a sparse set of terms: variable subsets (bitmasks) with
real coefficients.  Subsets rather than exponent vectors because squares
of signs collapse: every polynomial function of signs is multilinear.
The terms are stored as two parallel arrays sorted by mask, so every
routine here (evaluation, restriction, statistics, the alpha averages)
is a handful of array operations over all terms at once.  Signing a
polynomial gives a threshold function; ties p(x) = 0 resolve to +1 and
are counted so callers can detect degenerate inputs.

Storage allows up to STORAGE_CAP variables (masks fit in uint64);
dense evaluation over all 2^n points additionally needs n <= the exact
cap from the core module.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .core import (TruthTable, _check_index, _check_n, _moment_weights, _parity,
                   all_points_signs, to_signs, walsh_hadamard)
from .errors import CapacityError, DegenerateInputError, InputError, ParseError
from .seeding import Estimate, mc_values, mean_and_stderr, substream

if TYPE_CHECKING:
    from .restriction import Restriction

STORAGE_CAP = 64
GENERATE_TERM_CAP = 1_000_000
ALPHA_EXACT_CAP = 11


class SparsePolynomial:
    """Immutable sparse multilinear polynomial on n variables.

    `masks` (uint64, bit i set means variable i appears) and `coefs`
    (float64, all nonzero) are parallel read-only arrays sorted by mask,
    so every evaluation and serialisation order is deterministic.
    `terms` returns the same data as a {mask: coef} dict.
    """

    __slots__ = ("n", "masks", "coefs")

    def __init__(self, n: int, terms):
        n = _check_storage_n(n)
        source = dict(terms)
        masks = np.array([_check_index(m, n, "term mask") for m in source], dtype=np.uint64)
        coefs = np.array([float(c) for c in source.values()], dtype=np.float64)
        infinite = ~np.isfinite(coefs)
        if infinite.any():
            raise InputError(f"coefficient for mask {masks[infinite].min()} is not finite")
        order = np.argsort(masks)
        self._store(n, masks[order], coefs[order])

    @classmethod
    def _from_arrays(cls, n: int, masks: np.ndarray, coefs: np.ndarray) -> "SparsePolynomial":
        """Wrap terms without validation: masks sorted, distinct and in
        range, coefficients finite."""
        p = object.__new__(cls)
        p._store(n, masks, coefs)
        return p

    def _store(self, n: int, masks: np.ndarray, coefs: np.ndarray) -> None:
        keep = coefs != 0.0
        self.n, self.masks, self.coefs = n, masks[keep], coefs[keep]
        self.masks.flags.writeable = False
        self.coefs.flags.writeable = False

    @property
    def terms(self) -> dict[int, float]:
        """{mask: coef} with Python ints and floats, in mask order."""
        return dict(zip(self.masks.tolist(), self.coefs.tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, SparsePolynomial)
            and self.n == other.n
            and np.array_equal(self.masks, other.masks)
            and np.array_equal(self.coefs, other.coefs)
        )

    def __repr__(self):
        return f"SparsePolynomial(n={self.n}, nterms={len(self.masks)}, degree={self.degree})"

    @property
    def degree(self) -> int:
        """Largest subset size with a nonzero coefficient; 0 for the zero polynomial."""
        return int(np.bitwise_count(self.masks).max(initial=0))

    @property
    def is_zero(self) -> bool:
        return not self.masks.size

    @classmethod
    def from_json_dict(cls, data) -> "SparsePolynomial":
        """Build from {"n": ..., "terms": [{"vars": [...], "coef": ...}, ...]}.

        Variables are 1-indexed lists; a repeated variable inside one
        term is rejected (it would not be multilinear).  Terms sharing
        the same subset are summed.
        """
        if not isinstance(data, dict):
            raise InputError("polynomial JSON must be an object")
        try:
            n = int(data["n"])
            raw_terms = data["terms"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"polynomial JSON needs integer 'n' and a 'terms' list: {exc}")
        if not isinstance(raw_terms, list):
            raise InputError("'terms' must be a list")
        acc: dict[int, float] = {}
        for pos, term in enumerate(raw_terms):
            try:
                variables = list(term["vars"])
                coef = float(term["coef"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"term {pos} needs 'vars' and numeric 'coef': {exc}")
            try:
                mask = variables_mask(variables, n)
            except InputError as exc:
                raise type(exc)(f"term {pos}: {exc}") from None
            acc[mask] = acc.get(mask, 0.0) + coef
        return cls(n, acc)

    def to_json_dict(self) -> dict:
        terms = [{"vars": [i + 1 for i in range(self.n) if mask >> i & 1], "coef": coef}
                 for mask, coef in zip(self.masks.tolist(), self.coefs.tolist())]
        return {"n": self.n, "terms": terms}


def _check_storage_n(n: int) -> int:
    n = int(n)
    if n < 0:
        raise InputError(f"variable count must be >= 0, got {n}")
    if n > STORAGE_CAP:
        raise CapacityError(f"n={n} exceeds the storage cap of {STORAGE_CAP} variables")
    return n


def variables_mask(variables, n: int) -> int:
    """Bitmask of 1-indexed variables, each an integer in 1..n and none repeated."""
    mask = 0
    for v in variables:
        try:
            index = int(v)
        except (TypeError, ValueError, OverflowError):
            index = None
        if index is None or index != v:
            raise InputError(f"variable {v!r} is not an integer")
        if not 1 <= index <= n:
            raise InputError(f"variable {index} out of range 1..{n}")
        bit = 1 << (index - 1)
        if mask & bit:
            raise ParseError(f"variable {index} repeated")
        mask |= bit
    return mask


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right float sum; np.sum adds pairwise, which can move the last bits."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _signed_coefs(p: SparsePolynomial, points) -> np.ndarray:
    """Each coefficient times its character chi_S(x) = (-1)^|S & x|, for
    uint64 point indices x broadcast against the terms S."""
    return np.where(_parity(p.masks, points), -p.coefs, p.coefs)


def eval_poly(p: SparsePolynomial, x: int) -> float:
    """Value at point index x (same bit encoding as truth tables)."""
    x = _check_index(x, p.n, "point index")
    return _running_sum(_signed_coefs(p, np.uint64(x)))


def eval_on_cube(p: SparsePolynomial) -> np.ndarray:
    """Values at every point index, through the fast transform."""
    dense = np.zeros(1 << _check_n(p.n), dtype=np.float64)
    dense[p.masks] = p.coefs
    return walsh_hadamard(dense)


def sign_table(p: SparsePolynomial) -> tuple[TruthTable, int]:
    """Threshold function sign(p) and the number of exact zero evaluations.

    sign(0) = +1 by convention; a large zero count signals a degenerate
    polynomial whose threshold function is sensitive to perturbation.
    """
    vals = eval_on_cube(p)
    zero_hits = int(np.count_nonzero(vals == 0.0))
    table = TruthTable(p.n, to_signs(vals))
    return table, zero_hits


def restrict_poly(p: SparsePolynomial, rho: "Restriction") -> SparsePolynomial:
    """Substitute the fixed coordinates of `rho` and re-collect terms.

    The result lives on the free coordinates, renumbered in increasing
    order of original index, matching how table restriction renumbers.
    Terms that land on the same free subset are summed in mask order.
    """
    if rho.n != p.n:
        raise InputError(f"restriction is on {rho.n} variables, polynomial on {p.n}")
    free = rho.free_indices()
    signed = _signed_coefs(p, np.uint64(rho.fixed_base_index()))
    compressed = np.zeros_like(p.masks)
    for j, i in enumerate(free.tolist()):
        compressed |= (p.masks >> i & 1) << j
    masks, slot = np.unique(compressed, return_inverse=True)
    coefs = np.bincount(slot, weights=signed, minlength=len(masks))
    return SparsePolynomial._from_arrays(len(free), masks, coefs)


class PolyStats(NamedTuple):
    variance: float
    influences: np.ndarray
    regular_tau: float


def poly_stats(p: SparsePolynomial) -> PolyStats:
    """Fourier-side variance, per-variable influences, and regularity ratio.

    variance = sum of squared coefficients over nonempty subsets,
    influence_i = same sum over subsets containing i, and
    regular_tau = max_i influence_i / variance (0 when the variance is 0,
    i.e. for constants).  For sign tables these influences coincide with
    the combinatorial per-coordinate influence.
    """
    if p.is_zero:
        raise DegenerateInputError("statistics of the zero polynomial are undefined")
    sq = p.coefs * p.coefs
    variance = _running_sum(sq[p.masks != 0])
    influences = np.array([_running_sum(sq[p.masks >> i & 1 == 1]) for i in range(p.n)],
                          dtype=np.float64)
    tau = float(influences.max() / variance) if variance > 0.0 and p.n else 0.0
    return PolyStats(variance, influences, tau)


def _characters(p: SparsePolynomial, points: np.ndarray) -> np.ndarray:
    """chi_S(x) = (-1)^|S & x| as float64, rows x in `points`, columns the terms S."""
    return np.where(_parity(p.masks, points[:, None]), -1.0, 1.0)


def _gradient_ratio(pv: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """min(1, (dv / pv)^2), broadcast elementwise, and 1 wherever pv = 0."""
    zero = pv == 0.0
    ratio = np.minimum(1.0, (dv / np.where(zero, 1.0, pv)) ** 2)
    np.copyto(ratio, 1.0, where=zero)
    return ratio


def alpha_estimate(p: SparsePolynomial, trials: int, seed: int = 0,
                   workers: int | None = None) -> Estimate:
    """Monte Carlo mean of min(1, |directional derivative / value|^2).

    Each trial draws a uniform point A and independent uniform signs B
    and forms the derivative of p at A along B, i.e. each monomial is
    weighted by the signed count of its variables under B.  Contributes
    1 when p(A) = 0.  Decay of this mean under restriction drives the
    surface-area bounds for polynomial threshold functions.
    """
    if p.is_zero:
        raise DegenerateInputError("alpha of the zero polynomial is undefined")
    sizes = np.bitwise_count(p.masks).astype(np.float64)
    powers = np.uint64(1) << np.arange(p.n, dtype=np.uint64)  # 0/1 rows @ powers = point index

    def draw(rng, size):
        a = rng.integers(0, 2, size=(size, p.n), dtype=np.int8).astype(np.uint64) @ powers
        b = rng.integers(0, 2, size=(size, p.n), dtype=np.int8).astype(np.uint64) @ powers
        # sum of B's signs over each term's variables: |S| - 2 |S & {B = -1}|
        sb = sizes - 2.0 * np.bitwise_count(p.masks & b[:, None])
        chi = _characters(p, a)
        return _gradient_ratio(chi @ p.coefs, (chi * sb) @ p.coefs)

    values = mc_values(trials, seed, workers, draw)
    return Estimate(*mean_and_stderr(values))


def alpha_exact(p: SparsePolynomial) -> float:
    """Exact value of the alpha average by enumerating all (A, B) pairs."""
    if p.is_zero:
        raise DegenerateInputError("alpha of the zero polynomial is undefined")
    if p.n > ALPHA_EXACT_CAP:
        raise CapacityError(
            f"exact alpha enumerates 4^n pairs; n={p.n} exceeds the cap of {ALPHA_EXACT_CAP}")
    signs = all_points_signs(p.n)  # (points, n)
    chi = _characters(p, np.arange(1 << p.n, dtype=np.uint64))
    var_count = (p.masks[:, None] >> np.arange(p.n, dtype=np.uint64) & 1).astype(np.float64)
    pv = chi @ p.coefs  # p(A) for every A
    # derivative values for every (A, B): rows A, columns B
    weighted = chi * p.coefs[None, :]  # (points, terms)
    dv = (weighted @ var_count) @ signs.T  # (points_A, points_B)
    return float(_gradient_ratio(pv[:, None], dv).mean())


def generate(kind: str, n: int, *, subset: int | None = None, degree: int | None = None,
             nterms: int | None = None, seed: int = 0) -> SparsePolynomial:
    """Named polynomial families.

    kinds: "majority" (sum of all variables), "harmonic" (sum of
    x_i / sqrt(i)), "parity" (single monomial on `subset`), "random"
    (standard normal coefficient on every subset of size <= `degree`),
    "random-sparse" (same but on `nterms` subsets sampled without
    replacement).
    """
    if int(n) < 1:
        raise InputError("generator needs n >= 1")
    n = _check_storage_n(n)
    kind = kind.lower()
    singletons = np.uint64(1) << np.arange(n, dtype=np.uint64)
    if kind in ("majority", "maj"):
        return SparsePolynomial._from_arrays(n, singletons, np.ones(n))
    if kind in ("harmonic", "harm"):
        return SparsePolynomial._from_arrays(n, singletons, 1.0 / _moment_weights(n, 0.5)[1:])
    if kind in ("parity", "par"):
        if subset is None:
            raise InputError("parity needs a subset mask")
        return SparsePolynomial(n, {_check_index(subset, n, "subset mask"): 1.0})
    if kind in ("random", "rand", "random-sparse", "rands"):
        if degree is None:
            raise InputError("random polynomials need a degree")
        degree = int(degree)
        if not 0 <= degree <= n:
            raise InputError(f"degree must lie in 0..{n}, got {degree}")
        count = sum(comb(n, k) for k in range(degree + 1))
        if count > GENERATE_TERM_CAP:
            raise CapacityError(f"{count} candidate terms exceed the cap of {GENERATE_TERM_CAP}")
        levels = [np.zeros(1, dtype=np.uint64)]  # subsets by size, in combinations order
        for k in range(1, degree + 1):
            members = np.fromiter(combinations(range(n), k), np.dtype((np.uint64, k)), comb(n, k))
            levels.append((np.uint64(1) << members).sum(axis=1, dtype=np.uint64))
        masks = np.concatenate(levels)
        rng = substream(seed, 0)
        if kind in ("random-sparse", "rands"):
            if nterms is None:
                raise InputError("sparse random polynomials need a term count")
            nterms = int(nterms)
            if not 1 <= nterms <= count:
                raise InputError(f"term count must lie in 1..{count}, got {nterms}")
            masks = masks[np.sort(rng.choice(len(masks), size=nterms, replace=False))]
        coefs = rng.standard_normal(len(masks))
        order = np.argsort(masks)
        return SparsePolynomial._from_arrays(n, masks[order], coefs[order])
    raise InputError(f"unknown polynomial family {kind!r}")
