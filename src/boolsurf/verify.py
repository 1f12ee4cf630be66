"""The acceptance suite: one self-contained criterion per promised behaviour.

Each criterion is registered with an id, a title, and an optional wall
clock budget; `run_all` executes them in order and reports pass/fail
with a one-line detail.  Everything is seeded, so two runs of the suite
produce identical numbers.

Two suite-level constants deserve a note.  The polylog ceiling check
multiplies out 32 * (log(e n))^(2K+1) with K = SUITE_DEGREE_EXPONENT_K;
the true exponent constant for degree-d threshold functions is known to
exist but has no published numeric value, so the suite pins the smallest
sensible choice and asserts the (very generous) resulting ceiling.  The
noise-sensitivity scaling check likewise asserts boundedness of
NS_delta / sqrt(t) against the pinned NS_RATIO_CEILING rather than any
derived constant; measured ratios sit below 0.4, so 1.0 is a meaningful
regression guard without pretending to quantitative content.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import boundary, partition, restriction
from .core import (TruthTable, _one_level, _sensitive_directions, bsa, bsa_via_tails,
                   fractional_moment, noise_sensitivity, noise_sensitivity_semigroup,
                   popcount_table)
from .errors import BoolsurfError, InputError, VerificationError
from .interval import _product, prove, sqrt_sum, working_bits
from .ptf import generate, sign_table
from .seeding import substream

SUITE_DEGREE_EXPONENT_K = 1
NS_RATIO_CEILING = 1.0
SUITE_SEED = 20260814


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    title: str
    passed: bool
    detail: str
    seconds: float
    budget: float | None


_REGISTRY: list[tuple[str, str, float | None, object]] = []


def _criterion(cid: str, title: str, budget: float | None = None):
    def register(fn):
        _REGISTRY.append((cid, title, budget, fn))
        return fn
    return register


def criteria_ids() -> list[str]:
    return [cid for cid, _, _, _ in _REGISTRY]


def run_criterion(cid: str) -> CriterionResult:
    for want, title, budget, fn in _REGISTRY:
        if want == cid:
            start = time.perf_counter()
            try:
                passed, detail = fn()
            except VerificationError as exc:
                passed, detail = False, f"verification error: {exc}"
            except BoolsurfError as exc:
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                passed = False
                detail += f"; exceeded {budget:g}s budget"
            return CriterionResult(cid, title, passed, detail, elapsed, budget)
    raise KeyError(f"unknown criterion {cid!r}")


def run_all(only=None) -> list[CriterionResult]:
    """Run every criterion, or those whose ids `only` lists, in registry
    order.  An empty `only` or an unknown id raises InputError before any
    criterion runs."""
    if only is not None:
        only = set(only)
        if not only:
            raise InputError("no criteria selected")
        unknown = only - set(criteria_ids())
        if unknown:
            raise InputError(f"unknown criteria: {', '.join(sorted(unknown))}")
    return [run_criterion(cid) for cid in criteria_ids() if only is None or cid in only]


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"[{r.cid}] {status} {r.title} ({r.seconds:.2f}s) {r.detail}"


# ---------------------------------------------------------------- corpora

@lru_cache(maxsize=1)
def _ptf_tables():
    """Sign tables of polynomials spanning every generator family (22 entries)."""
    polys = [generate("majority", n) for n in (1, 2, 3, 5, 8, 9, 11)]
    polys += [generate("harmonic", n) for n in (6, 8)]
    polys += [generate("parity", 6, subset=mask) for mask in (0b1, 0b11, 0b111111)]
    polys += [generate("random", 10, degree=2, seed=s) for s in range(5)]
    polys += [generate("random", 8, degree=3, seed=s) for s in range(3)]
    polys += [generate("random-sparse", 12, degree=3, nterms=20, seed=s) for s in range(2)]
    return [sign_table(p)[0] for p in polys]


@lru_cache(maxsize=1)  # c2 and c3 share one corpus and its memoised profiles
def _random_tables(count: int, max_n: int, stream: int):
    rng = substream(SUITE_SEED, stream)
    tables = []
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        bits = rng.integers(0, 2, size=1 << n, dtype=np.int8)
        tables.append(TruthTable(n, 1 - 2 * bits))
    return tables


# ---------------------------------------------------------------- criteria

@_criterion("c1", "golden values: majority of 5 and parity on {1,2} in n=5", budget=1.0)
def _c1():
    from . import cli
    checks = []
    with tempfile.TemporaryDirectory() as td:
        for spec, want_inf, want_bsa in (
                ("maj:5", 1.875, 5.0 * math.sqrt(3.0) / 8.0),
                ("par:5:1,2", 2.0, math.sqrt(2.0))):
            path = os.path.join(td, "report.json")
            code = cli.main(["analyze", spec, "--out", path])
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            checks.append(code == 0)
            checks.append(report["influence_total"] == want_inf)
            checks.append(abs(report["bsa"] - want_bsa) <= 1e-12)
    return all(checks), f"exact influence and 1e-12 surface area on both specs ({sum(checks)}/6 checks)"


@_criterion("c2", "tail-sum route equals histogram route for surface area", budget=10.0)
def _c2():
    tables = _random_tables(500, 12, 2) + _ptf_tables()
    worst = 0.0
    exact_half = True
    for f in tables:
        a = bsa(f)
        worst = max(worst, abs(a - bsa_via_tails(f)))
        exact_half = exact_half and fractional_moment(f, 0.5) == a
    passed = worst <= 1e-12 and exact_half
    return passed, f"{len(tables)} functions, max |difference| = {worst:.3e}, half-moment identity exact"


def _area_below_root_influence(counts, n: int) -> bool:
    """Prove BSA < sqrt(Inf) from the histogram: with c_s points at
    sensitivity s, that is (sum_s c_s sqrt(s))^2 < 2^n sum_s c_s s."""
    terms = [(int(c), s) for s, c in enumerate(counts)]
    influence = sum(c * s for c, s in terms) << n

    def claim(bits):
        lo, hi = sqrt_sum(terms, bits)
        return _product(lo, hi, lo, hi, bits)[1] < influence << bits

    return prove(claim, working_bits(partition.CERT_PRECISION))


@_criterion("c3", "surface area at most sqrt(influence), strict off the constant-sensitivity case")
def _c3():
    tables = _random_tables(500, 12, 2) + _ptf_tables()
    min_slack = math.inf
    ok = True
    for f in tables:
        profile = f.profile()
        # one level s holds every point: (2^n sqrt(s))^2 = 2^n (2^n s) exactly
        if not _one_level(profile.counts):
            ok = ok and _area_below_root_influence(profile.counts, f.n)
            min_slack = min(min_slack, math.sqrt(profile.moment(1.0)) - profile.bsa())
    return ok, f"{len(tables)} functions, smallest strict slack {min_slack:.3e}"


@_criterion("c4", "sensitive-fraction bound exhaustive over all functions on 1..4 variables",
            budget=60.0)
def _c4():
    details = []
    ok = True
    for ell in range(1, 5):
        report = restriction.sensitive_fraction_bound_exhaustive(ell)
        ok = ok and report.violations == 0
        details.append(f"l={ell}: {report.functions_checked} functions, "
                       f"max ratio {report.max_ratio:.4f}")
    return ok, "; ".join(details)


@_criterion("c5", "tail coupling floor holds exactly for random functions at every level")
def _c5():
    tables = _random_tables(1000, 12, 5)
    checked = 0
    for f in tables:
        for m in range(1, f.n + 1):
            restriction.tail_coupling_check(f, m)  # raises on violation
            checked += 1
    maj5 = restriction.tail_coupling_check(TruthTable.majority(5), 3)
    exact = (maj5.p_e == Fraction(20, 32)
             and maj5.coupling_lb == Fraction(20, 32) * Fraction(19, 27)
             and maj5.bound_ratio == Fraction(19, 27))
    return exact, f"{checked} (function, level) pairs, golden 5-variable case exact"


@_criterion("c6", "sandwich certification over every near-equal split with n <= 60",
            budget=300.0)
def _c6():
    triples = 0
    failures = 0
    for n, sizes in partition.near_equal_sweep(range(1, 61)):
        for *_, lower, upper, gap_ok in partition.sandwich_rows(
                n, sizes, range(n + 1), partition.CERT_PRECISION):
            triples += 1
            if not partition._all_passed(lower, upper, gap_ok):
                failures += 1
    return failures == 0, f"{triples} (n, k, b) triples at 30-digit precision, {failures} failures"


def _random_composition(rng, n: int, parts: int) -> tuple[int, ...]:
    if parts == 1:
        return (n,)
    # parts end after each sorted cut position in 0..n - 2, and at n - 1
    edges = [-1, *sorted(rng.choice(n - 1, size=parts - 1, replace=False).tolist()), n - 1]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


@_criterion("c7", "gap bound covers the sandwich gap on random arbitrary-size splits")
def _c7():
    rng = substream(SUITE_SEED, 7)
    failures = 0
    cases = 10_000
    for _ in range(cases):
        n = int(rng.integers(2, 41))
        k = int(rng.integers(0, n))  # k < n
        b = int(rng.integers(1, min(4, n) + 1))
        spec = partition.BlockPartitionSpec(n, k, _random_composition(rng, n, b))
        report = partition.sandwich_check(spec)
        if not (report.pass_lower and report.pass_gap):
            failures += 1
    return failures == 0, f"{cases} random (n <= 40, k < n, b <= 4) splits, {failures} failures"


def _c6_hypergeometric_cases():
    # a near-equal split has at most two distinct sizes, its first and its last
    return sorted({(n, n - k, m) for n, sizes in partition.near_equal_sweep(range(1, 61))
                   for k in range(n + 1) for m in (sizes[0], sizes[-1])})


@_criterion("c8", "square-root mean enclosure on random distributions and the sweep's "
                  "hypergeometric cases")
def _c8():
    rng = substream(SUITE_SEED, 8)
    failures = 0
    random_cases = 10_000
    for _ in range(random_cases):
        size = int(rng.integers(1, 9))
        values = rng.uniform(0.0, 10.0, size=size)
        weights = rng.uniform(0.1, 1.0, size=size)
        probs = weights / weights.sum()
        try:
            partition.jensen_bounds([float(v) for v in values], [float(p) for p in probs])
        except VerificationError:
            failures += 1
    hg_checked = 0
    for n, successes, m in _c6_hypergeometric_cases():
        if successes == 0:
            continue  # identically zero variable: outside the enclosure's hypothesis
        support, weights = partition._hg_weights(n, successes, m)
        try:  # the point masses hg_pmf gives: each weight over C(n, m)
            partition._jensen_bounds(list(support), weights, math.comb(n, m))
        except VerificationError:
            failures += 1
        hg_checked += 1
    return failures == 0, (f"{random_cases} random distributions + {hg_checked} "
                           f"hypergeometric cases, {failures} escapes")


def _hypergeometric_law(words, n: int, masks, levels: dict) -> bool:
    """Whether hist[j] C(n, m) = len(masks) sum_s levels[s] w_s[j], where hist[j] (word, mask)
    pairs share j of the masks' m bits and w_s is `partition._hg_weights(n, s, m)`.  It holds
    when levels[s] words have s bits and `masks` are all m-subsets or `words` all such words."""
    m = int(np.bitwise_count(masks[0]))
    hist = np.bincount(np.bitwise_count(np.bitwise_and.outer(words, masks)).ravel(),
                       minlength=m + 1)
    want = [0] * (m + 1)
    for s, count in levels.items():
        for j, weight in zip(*partition._hg_weights(n, s, m)):
            want[j] += count * weight
    return [h * math.comb(n, m) for h in hist.tolist()] == [len(masks) * w for w in want]


@_criterion("c9", "shuffle table: hypergeometric block counts, mean equal to the exact "
                  "block average", budget=10.0)
def _c9():
    rng = substream(SUITE_SEED, 9)
    cases, passed, worst = 1000, 0, 0.0
    for _ in range(cases):
        n = int(rng.integers(4, 17))
        k = int(rng.integers(0, n + 1))
        b = int(rng.integers(1, min(6, n) + 1))
        sizes = _random_composition(rng, n, b)
        words, table = partition._shuffle_table(n - k, sizes)
        edges = [1 << e for e in np.cumsum((0,) + sizes).tolist()]  # masks edges[l + 1] - edges[l]
        law = all(_hypergeometric_law(words, n, [hi - lo], {n - k: math.comb(n, k)})
                  for lo, hi in zip(edges, edges[1:]))
        exact = float(partition.block_average_B(partition.BlockPartitionSpec(n, k, sizes)))
        gap = abs(math.fsum(table.tolist()) / len(table) - exact)
        # relative to B, to first order in u = 2^-53: b rounded roots and their b - 1 sums
        # (b u), sqrt(b) and the division by it, fsum and the mean's division (4 u), B's float
        # (u), one u more for the u^2 terms; B = 0 leaves no room: each placement sums to 0
        passed += law and gap <= (b + 6) * 2.0**-53 * exact
        worst = max(worst, gap / (exact or 1.0))
    return passed == cases, (f"{passed}/{cases} cases with hypergeometric block counts and "
                             f"a table mean within (b + 6) 2^-53 of B, worst {worst:.2e}")


@_criterion("c10", "block-splitting surface-area bound proved level by level on majority, "
                   "parity, and random degree-2 thresholds", budget=10.0)
def _c10():
    functions = [TruthTable.majority(9), TruthTable.parity(8, (1 << 8) - 1)] + [
        sign_table(generate("random", 10, degree=2, seed=100 + s))[0] for s in range(20)]
    proved, laws, worst = 0, 0, math.inf
    for f in functions:
        n, counts, words = f.n, f.profile().counts.tolist(), _sensitive_directions(f.values)
        for b in (2, 3):
            # block l meets x's s(x) sensitive directions in Hg(n, s(x), m_l) bits, so RHS =
            # sum_s c_s B_s / 2^n; sqrt(s) <= B_s + b at each level averages to BSA <= RHS + b
            sizes = partition.near_equal_sizes(n, b)
            laws += all(_hypergeometric_law(words, n, np.flatnonzero(popcount_table(n) == m),
                                            dict(enumerate(counts))) for m in set(sizes))
            rows = list(partition.sandwich_rows(n, sizes, range(n + 1), partition.CERT_PRECISION))
            proved += all(row[8] for row in rows)  # row k: B_s, sqrt(s) <= B_s + b at s = n - k
            rhs = math.fsum(c * row[4] for c, row in zip(reversed(counts), rows)) / (1 << n)
            worst = min(worst, rhs + b - bsa(f))
    runs = 2 * len(functions)
    return proved == laws == runs, (
        f"{proved}/{runs} (function, blocks) runs proved at every level, "
        f"{laws}/{runs} with hypergeometric block counts, smallest margin {worst:.4f}")


@_criterion("c11", "noise sensitivity: smoothing route agrees, single coordinate is exact")
def _c11():
    tables = _random_tables(200, 10, 11)
    worst = 0.0
    for f in tables:
        for delta in (0.05, 0.1, 0.25):
            worst = max(worst, abs(noise_sensitivity(f, delta)
                                   - noise_sensitivity_semigroup(f, delta)))
    dictator = TruthTable.dictator(6, 0)
    exact = all(noise_sensitivity(dictator, d) == d for d in (0.05, 0.1, 0.25, 0.4))
    passed = worst <= 1e-10 and exact
    return passed, f"600 route comparisons, max gap {worst:.3e}; dictator exact: {exact}"


@_criterion("c12", "noise-sensitivity scaling ratio stays bounded for majority")
def _c12():
    worst = 0.0
    for n in (5, 9, 13):
        f = TruthTable.majority(n)
        for step in range(1, 11):
            delta = step / 100.0
            t = -math.log1p(-2.0 * delta)
            worst = max(worst, noise_sensitivity(f, delta) / math.sqrt(t))
    return worst <= NS_RATIO_CEILING, (
        f"max NS/sqrt(t) = {worst:.4f} <= pinned ceiling {NS_RATIO_CEILING}")


@_criterion("c13", "edge-biased half-mass threshold: exhaustive small n (vacuous there), "
                   "majorities, random degree-2 thresholds", budget=120.0)
def _c13():
    # For n <= 4 the threshold Inf^2 / (4 BSA^2) is at most n / 4 <= 1, so
    # every exhaustive share is 1; only the other two families can fail.
    failures = 0
    checked = 0
    for n in range(1, 5):
        report = boundary.edge_threshold_check_exhaustive(n)
        failures += report.failures
        checked += report.functions_checked
    for n in range(3, 16, 2):
        checked += 1
        if not boundary.boundary_report(TruthTable.majority(n)).passed:
            failures += 1
    for s in range(100):
        table, _ = sign_table(generate("random", 14, degree=2, seed=200 + s))
        checked += 1
        if not boundary.boundary_report(table).passed:
            failures += 1
    return failures == 0, f"{checked} functions checked, {failures} failures"


@_criterion("c14", "surface area stays under the suite's polylog ceiling for every "
                   "generated threshold function (vacuous: BSA <= sqrt(n) < 5, ceiling >= 32)")
def _c14():
    # s <= n <= 24 gives BSA <= sqrt(24) < 5, and 32 ln(e n)^(2K + 1) >= 32: this cannot fail.
    exponent = 2 * SUITE_DEGREE_EXPONENT_K + 1
    worst = math.inf
    ok = True
    for f in _ptf_tables():
        ceiling = 32.0 * math.log(math.e * f.n) ** exponent
        ok = ok and bsa(f) <= ceiling
        worst = min(worst, ceiling - bsa(f))
    return ok, (f"{len(_ptf_tables())} threshold functions, smallest headroom {worst:.1f} "
                f"(K={SUITE_DEGREE_EXPONENT_K} is a suite parameter, not a derived constant)")
