"""Multilinear polynomials over the signed hypercube and their sign functions.

A polynomial is a sparse set of terms: variable subsets (bitmasks) with
real coefficients.  Subsets rather than exponent vectors because squares
of signs collapse: every polynomial function of signs is multilinear.
The terms are stored as two parallel arrays sorted by mask, so every
routine here (evaluation, restriction, statistics, the alpha averages)
is a handful of array operations over all terms at once.  Signing a
polynomial gives a threshold function; ties p(x) = 0 resolve to +1 and
are counted so callers can detect degenerate inputs.

Evaluation on the whole cube runs in two phases above 16 variables: the
terms are grouped by their high part (mask >> 16), each live high
part's low terms run through the Walsh-Hadamard transform as one row of
a stack, and every value is one BLAS product of the high characters
with those rows.  The product sums in BLAS's order, so signs are not
read off the floats near zero: points within the rounding bound
gamma_k * sum |c| (Higham, ch. 4) are decided by an exactly rounded sum
(Shewchuk's filtered predicates, DCG 1997), and integer coefficients
with sum |c| < 2^53 need no filter, being exact in any order.

Storage allows up to STORAGE_CAP variables (masks fit in uint64);
dense evaluation over all 2^n points additionally needs n <= the exact
cap from the core module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .core import (_BLOCK_BITS, _CELL_BUDGET, TruthTable, _check_index, _check_n, _chi,
                   _moment_weights, _pack_bits, _unpack_bits, all_points_signs, gather_bits,
                   to_signs, walsh_hadamard)
from .errors import CapacityError, DegenerateInputError, InputError, ParseError, _exact_int
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
            n, raw_terms = data["n"], data["terms"]
        except KeyError as exc:
            raise InputError(f"polynomial JSON needs integer 'n' and a 'terms' list: {exc}")
        n = _exact_int(n, "'n'")
        if not isinstance(raw_terms, list):
            raise InputError("'terms' must be a list")
        acc: dict[int, float] = {}
        for pos, term in enumerate(raw_terms):
            try:
                variables, coef = list(term["vars"]), term["coef"]
                if isinstance(coef, (bool, str)):  # float() reads both
                    raise TypeError(f"{coef!r} is not a number")
                coef = float(coef)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"term {pos} needs 'vars' and numeric 'coef': {exc}")
            try:
                mask = variables_mask(variables, n)
            except InputError as exc:
                raise type(exc)(f"term {pos}: {exc}") from None
            acc[mask] = acc.get(mask, 0.0) + coef
        return cls(n, acc)

    def to_json_dict(self) -> dict:
        terms = [{"vars": (np.flatnonzero(bits) + 1).tolist(), "coef": coef}
                 for bits, coef in zip(_unpack_bits(self.masks, self.n), self.coefs.tolist())]
        return {"n": self.n, "terms": terms}


def _check_storage_n(n: int) -> int:
    n = _exact_int(n, "variable count")
    if n < 0:
        raise InputError(f"variable count must be >= 0, got {n}")
    if n > STORAGE_CAP:
        raise CapacityError(f"n={n} exceeds the storage cap of {STORAGE_CAP} variables")
    return n


def variables_mask(variables, n: int) -> int:
    """Bitmask of 1-indexed variables, each an integer in 1..n and none repeated."""
    mask = 0
    for v in variables:
        index = _exact_int(v, "variable")
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


def _exact_values(p: SparsePolynomial, points: np.ndarray) -> np.ndarray:
    """p at uint64 point indices, each correctly rounded (math.fsum of the
    signed coefficients), so its sign is the exact sign of p(x)."""
    out = np.empty(len(points))
    step = max(1, _CELL_BUDGET // max(len(p.masks), 1))
    for start in range(0, len(points), step):
        signed = _characters(p, points[start:start + step, None]) * p.coefs
        out[start:start + step] = [math.fsum(row) for row in signed.tolist()]
    return out


def eval_poly(p: SparsePolynomial, x: int) -> float:
    """Value at point index x (same bit encoding as truth tables), correctly
    rounded: its sign is exact and agrees with sign_table."""
    x = _check_index(x, p.n, "point index")
    return float(_exact_values(p, np.array([x], dtype=np.uint64))[0])


def _high_parts(p: SparsePolynomial):
    """eval_on_cube's route: None up to 16 variables (the dense
    transform), else the live high parts mask >> 16 in increasing order
    and each term's slot among them.  The masks are sorted, so their
    high parts are too and one comparison of neighbours finds them."""
    if p.n <= _BLOCK_BITS:
        return None
    high = p.masks >> np.uint64(_BLOCK_BITS)
    starts = np.ones(len(high), dtype=bool)
    starts[1:] = high[1:] != high[:-1]
    return high[starts], np.cumsum(starts) - 1


def eval_on_cube(p: SparsePolynomial) -> np.ndarray:
    """Values at every point index.

    Up to 16 variables the dense coefficient vector runs through
    walsh_hadamard.  Above, the terms are grouped by their high part
    mask >> 16; the (r, 2^16) stack of the r live high parts' low parts
    runs through walsh_hadamard (each row bit-identical to the dense
    transform's low 16 stages), and all 2^n values are one product
    chi(high, x >> 16) @ rows, whose row-major result is in index order.
    The product adds in BLAS's order, so above 16 variables a value may
    differ from the dense transform's in the last bits, within the bound
    sign_table filters by.
    """
    n = _check_n(p.n)
    parts = _high_parts(p)
    if parts is None:
        dense = np.zeros(1 << n, dtype=np.float64)
        dense[p.masks] = p.coefs
        return walsh_hadamard(dense)
    high, slot = parts
    rows = np.zeros((len(high), 1 << _BLOCK_BITS), dtype=np.float64)
    rows[slot, p.masks & np.uint64((1 << _BLOCK_BITS) - 1)] = p.coefs
    rows = walsh_hadamard(rows)
    chi = _chi(high, np.arange(1 << (n - _BLOCK_BITS), dtype=np.uint64)[:, None])
    return (chi.astype(np.float64) @ rows).reshape(-1)


def _rounding_radius(p: SparsePolynomial, depth: int) -> float:
    """An upper bound on |v - p(x)| for every value v that adds p's
    coefficients, each times +-1, through at most `depth` roundings.

    0 when every coefficient is an integer multiple of one power of two
    2^e and sum |c| < 2^(53 + e): every partial sum is then such a
    multiple below 2^(53 + e), exact in any order.  That covers integers
    with sum |c| < 2^53 and dyadic ties such as 0.5, 0.25, 0.25.
    Otherwise gamma_k * sum |c|, gamma_k = k u / (1 - k u) with u = 2^-53
    and k = depth, rounded upward (Higham, ch. 4).  The exact sum |c| is
    at most its correctly rounded value times 1 + u.
    """
    if p.is_zero:
        return 0.0
    try:
        total = math.fsum(np.abs(p.coefs).tolist())
    except OverflowError:
        raise InputError("the coefficients' absolute sum exceeds the float64 range") from None
    frac, exp = np.frexp(np.abs(p.coefs))
    whole = np.ldexp(frac, 53).astype(np.int64)  # |c| = whole * 2^(exp - 53), whole < 2^53
    scale = int((exp - 53 + np.bitwise_count((whole & -whole) - 1)).min())
    if math.frexp(total)[1] <= 53 + scale:  # total < 2^(53 + scale)
        return 0.0
    bound = Fraction(depth, (1 << 53) - depth) * Fraction(total) * Fraction((1 << 53) + 1, 1 << 53)
    return float(np.nextafter(float(bound), np.inf))


def _exact_signs(p: SparsePolynomial, vals, radius: float, points) -> tuple[np.ndarray, int]:
    """int8 signs of the flat values `vals` of p, each within `radius` of
    exact, and how many are exactly 0; points(at) gives the uint64 point
    of each flat position in `at`.  One blocked pass reads each sign and
    flags |value| <= radius, and each flagged value is decided by the
    correctly rounded p(x), once per pattern of the bits that p's terms
    use.  When the radius is 0 the flagged values are the zeros."""
    signs = np.empty(vals.size, dtype=np.int8)
    decided: dict[int, float] = {}  # exact value by pattern of the used bits
    zeros = 0
    for start in range(0, vals.size, _CELL_BUDGET):
        v = vals[start:start + _CELL_BUDGET]
        signs[start:start + _CELL_BUDGET] = to_signs(v)
        hits = np.flatnonzero(np.abs(v) <= radius)
        if not hits.size or radius == 0.0:
            zeros += hits.size
            continue
        used = np.bitwise_or.reduce(p.masks, initial=np.uint64(0))
        patterns, back = np.unique(points(hits + start) & used, return_inverse=True)
        patterns = patterns.tolist()
        new = [q for q in patterns if q not in decided]
        if new:
            decided.update(zip(new, _exact_values(p, np.array(new, dtype=np.uint64)).tolist()))
        exact = np.array([decided[q] for q in patterns])[back]
        signs[start + hits] = to_signs(exact)
        zeros += int(np.count_nonzero(exact == 0.0))
    return signs, zeros


def sign_table(p: SparsePolynomial) -> tuple[TruthTable, int]:
    """Threshold function sign(p) and the number of points where p is exactly 0.

    Signs are exact whatever order eval_on_cube added in (_exact_signs):
    each value passes through n roundings on the dense route and 16 + r + 1
    on the product route over r live high parts.  sign(0) = +1; a large
    zero count signals a degenerate polynomial, sensitive to perturbation.
    """
    parts = _high_parts(p)
    radius = _rounding_radius(p, p.n if parts is None else _BLOCK_BITS + len(parts[0]) + 1)
    signs, zeros = _exact_signs(p, eval_on_cube(p), radius, lambda at: at.astype(np.uint64))
    return TruthTable(p.n, signs), zeros


def restrict_poly(p: SparsePolynomial, rho: "Restriction") -> SparsePolynomial:
    """Substitute the fixed coordinates of `rho` and re-collect terms.

    The result lives on the free coordinates, renumbered in increasing
    order of original index, matching how table restriction renumbers.
    Terms that land on the same free subset are summed in mask order.
    """
    if rho.n != p.n:
        raise InputError(f"restriction is on {rho.n} variables, polynomial on {p.n}")
    signed = _characters(p, np.uint64(rho.fixed_base_index())) * p.coefs
    masks, slot = np.unique(gather_bits(p.masks, rho.free_indices()), return_inverse=True)
    coefs = np.bincount(slot, weights=signed, minlength=len(masks))
    return SparsePolynomial._from_arrays(rho.free_count, masks, coefs)


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
    influences = np.array([_running_sum(sq[bits == 1]) for bits in _unpack_bits(p.masks, p.n).T],
                          dtype=np.float64)
    tau = float(influences.max() / variance) if variance > 0.0 and p.n else 0.0
    return PolyStats(variance, influences, tau)


def _characters(p: SparsePolynomial, points) -> np.ndarray:
    """float64 chi_S(x), uint64 point indices x broadcast against the terms S;
    times p.coefs, each term's signed coefficient (+-1.0 * c is exact)."""
    return _chi(p.masks, points).astype(np.float64)


def _gradient_ratio(pv: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """min(1, (dv / pv)^2), broadcast elementwise, and 1 wherever pv = 0,
    written into dv and returned."""
    zero = pv == 0.0
    fix = bool(zero.any())
    np.divide(dv, np.where(zero, 1.0, pv) if fix else pv, out=dv)
    np.square(dv, out=dv)
    np.minimum(dv, 1.0, out=dv)
    if fix:
        np.copyto(dv, 1.0, where=zero)
    return dv


def _alpha_values(p: SparsePolynomial, rng, size: int) -> np.ndarray:
    """One chunk of alpha_estimate: min(1, (derivative / value)^2) per trial."""
    sizes = np.bitwise_count(p.masks).astype(np.int16)
    a = _pack_bits(rng.integers(0, 2, size=(size, p.n), dtype=np.int8))
    b = _pack_bits(rng.integers(0, 2, size=(size, p.n), dtype=np.int8))
    # sum of B's signs over each term's variables: |S| - 2 |S & {B = -1}|
    sb = (sizes - 2 * np.bitwise_count(p.masks & b[:, None])).astype(np.float64)
    chi = _characters(p, a[:, None])
    return _gradient_ratio(chi @ p.coefs, (chi * sb) @ p.coefs)


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
    # at the peak three (trials, terms) float64 arrays (sb, chi and their
    # product), the (trials, n) bits of A and B, and a few per-trial values
    trial_bytes = 8 * (3 * len(p.masks) + 2 * p.n + 4)
    values = mc_values(trials, seed, workers, partial(_alpha_values, p), trial_bytes)
    return Estimate(*mean_and_stderr(values))


def alpha_exact(p: SparsePolynomial) -> float:
    """Exact value of the alpha average by enumerating all (A, B) pairs."""
    if p.is_zero:
        raise DegenerateInputError("alpha of the zero polynomial is undefined")
    if p.n > ALPHA_EXACT_CAP:
        raise CapacityError(
            f"exact alpha enumerates 4^n pairs; n={p.n} exceeds the cap of {ALPHA_EXACT_CAP}")
    n = p.n
    points = 1 << n
    signs = all_points_signs(n)  # (points, n)
    var_count = _unpack_bits(p.masks, n).astype(np.float64)
    # rows A per block: every block array holds at most _CELL_BUDGET cells
    rows = min(points, _CELL_BUDGET >> n)
    # B and its complement, column points - 1 - B, give derivatives of
    # opposite sign and so the same ratio: the first half of the columns
    # is computed and mirrored into the second
    half = max(1, points >> 1)
    dv = np.empty((rows, half))
    ratio = np.empty((rows, points))  # rows A, columns B
    sums = np.empty(points // rows)
    for i in range(len(sums)):
        chi = _characters(p, np.arange(i * rows, (i + 1) * rows, dtype=np.uint64)[:, None])
        pv = chi @ p.coefs  # p(A)
        chi *= p.coefs
        np.matmul(chi @ var_count, signs[:half].T, out=dv)
        ratio[:, :half] = _gradient_ratio(pv[:, None], dv)
        ratio[:, half:] = dv[:, :points - half][:, ::-1]
        sums[i] = ratio.sum()
    # the blocks are aligned power-of-two runs of the (points, points)
    # array, so folding their sums pairwise rebuilds numpy's pairwise sum
    # of the whole array and its mean
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return float(sums[0] / (points * points))


def generate(kind: str, n: int, *, subset: int | None = None, degree: int | None = None,
             nterms: int | None = None, seed: int = 0) -> SparsePolynomial:
    """Named polynomial families.

    kinds: "majority" (sum of all variables), "harmonic" (sum of
    x_i / sqrt(i)), "parity" (single monomial on `subset`), "random"
    (standard normal coefficient on every subset of size <= `degree`),
    "random-sparse" (same but on `nterms` subsets sampled without
    replacement).
    """
    if _exact_int(n, "variable count") < 1:
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
        degree = _exact_int(degree, "degree")
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
            nterms = _exact_int(nterms, "term count")
            if not 1 <= nterms <= count:
                raise InputError(f"term count must lie in 1..{count}, got {nterms}")
            masks = masks[np.sort(rng.choice(len(masks), size=nterms, replace=False))]
        coefs = rng.standard_normal(len(masks))
        order = np.argsort(masks)
        return SparsePolynomial._from_arrays(n, masks[order], coefs[order])
    raise InputError(f"unknown polynomial family {kind!r}")
