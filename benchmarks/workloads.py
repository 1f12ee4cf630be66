"""The benchmark's three workloads, built from a seed.

The seed sets polynomial coefficients, compositions, populations, Monte
Carlo seeds and the order of operations.  It never sets the amount of
work: the number of operations and the work units of each one are fixed
per workload, so throughput compares across seeds.

- ``cube``: exact full-cube analysis at n = 20..24 through the CLI's
  ``analyze``, ``boundary`` and ``tail``, plus the all-functions audits on
  up to 4 variables.  The Walsh-Hadamard transform, the sensitivity scan
  and ``sign_table`` run on arrays of 2^20..2^24 entries.  Unit: cube
  points (2^n per operation).
- ``certify``: near-equal ``partition --n`` sweeps, ``partition --sizes``
  compositions and ``jensen_bounds`` on hypergeometric PMFs, at 15, 30
  and 50 digits.  Only ``partition`` and mpmath work here.  Unit:
  certificates (sandwich triples plus enclosures).
- ``sampling``: seeded Monte Carlo with ``workers=2``: ``restrict`` grids,
  exact-checked ``sweep --kind alpha``, shuffle estimates of the block
  average and the block-splitting audit.  Unit: Monte Carlo trials.

Every operation's output is checked against references computed here
from closed forms, exact integers and Fractions.  The Monte Carlo
estimates are checked against the package's exact routines
(``block_average_B`` and ``alpha_exact``), within 4 standard errors plus
``ABS_NOISE``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt
from pathlib import Path
from typing import Callable

import numpy as np

from boolsurf import boundary, cli, core, partition, ptf, restriction

WORKERS = {"cube": None, "certify": None, "sampling": 2}
TOL = 1e-12
RANDS_TERMS = 64
RESTRICT_TRIALS = 600
RESTRICT_RATES = "0.25,0.0625,0.015625"
ALPHA_TRIALS = 4000
MC_TRIALS = 100_000
MC_CALLS = 40
BLOCK_TRIALS = 4000
BLOCK_TABLES = 10


class OpError(Exception):
    """An operation ended without a usable output."""


@dataclass
class Op:
    """One timed call: `run` gets a scratch file and returns the output."""

    name: str
    units: int
    run: Callable[[Path], object]
    check: Callable[[object], list[str]]


def cli_op(name: str, argv: list[str], units: int, check) -> Op:
    def run(out: Path):
        code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise OpError(f"exit code {code}")
        return out.read_bytes()
    return Op(name, units, run, check)


# ------------------------------------------------------------ output bytes

def canonical(value):
    """JSON-ready form of a result that keeps every digit."""
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {k: canonical(v) for k, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, np.generic):
        return canonical(value.item())
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "shape": list(value.shape),
                "data": value.tobytes().hex()}
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if hasattr(value, "man_exp"):  # mpmath mpf: exact mantissa and exponent
        return "mpf:%d:%d" % value.man_exp
    if hasattr(value, "__slots__"):
        return {k: canonical(getattr(value, k)) for k in value.__slots__ if not k.startswith("_")}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def output_bytes(result) -> bytes:
    if isinstance(result, bytes):
        return result
    return json.dumps(canonical(result), sort_keys=True).encode()


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ------------------------------------------------------------ references

def majority_bsa(n: int) -> float:
    """C(n, (n-1)/2) 2^(1-n) sqrt((n+1)/2) for odd n."""
    return comb(n, (n - 1) // 2) * 2.0 ** (1 - n) * sqrt((n + 1) / 2)


def hg_weights(population: int, successes: int, draws: int) -> dict[int, Fraction]:
    """Exact hypergeometric PMF from integer binomials."""
    total = comb(population, draws)
    low = max(0, draws - (population - successes))
    return {s: Fraction(comb(successes, s) * comb(population - successes, draws - s), total)
            for s in range(low, min(draws, successes) + 1)}


def mean_sqrt_float(population: int, successes: int, draws: int) -> float:
    total = comb(population, draws)
    low = max(1, draws - (population - successes))
    return math.fsum(comb(successes, s) * comb(population - successes, draws - s) / total
                     * sqrt(s) for s in range(low, min(draws, successes) + 1))


def block_average_float(n: int, k: int, sizes) -> float:
    """B recomputed in floats from integer binomial weights."""
    return math.fsum(mean_sqrt_float(n, n - k, m) for m in sizes) / sqrt(len(sizes))


# ------------------------------------------------------------ cube

# family -> variable counts for analyze, boundary and tail
CUBE_FUNCTIONS = {
    "maj": (21, 20, 20),
    "harm": (20, 21, 20),
    "rand": (22, 20, 21),
    "rands": (20, 20, 24),
}


def _cube_spec(family: str, n: int, seed: int) -> str:
    if family in ("maj", "harm"):
        return f"{family}:{n}"
    if family == "rand":
        return f"rand:d=2,n={n},seed={seed}"
    return f"rands:d=3,n={n},terms={RANDS_TERMS},seed={seed}"


def _check_analyze(n: int, majority: bool):
    def check(data):
        r = json.loads(data)
        counts = r["sensitivity_counts"]
        points = 1 << n
        problems = []
        if r["n"] != n or sum(counts) != points:
            problems.append("sensitivity counts do not cover the cube")
        hist_bsa = math.fsum(c * sqrt(m) for m, c in enumerate(counts)) / points
        hist_inf = sum(m * c for m, c in enumerate(counts)) / points
        if not _close(r["bsa"], hist_bsa):
            problems.append(f"bsa {r['bsa']} != histogram {hist_bsa}")
        if not _close(r["bsa"], r["bsa_via_tails"]):
            problems.append("bsa and bsa_via_tails differ by more than 1e-12")
        if not _close(math.fsum(r["influence_per_coordinate"]), r["influence_total"]):
            problems.append("per-coordinate influences do not sum to the total")
        if not _close(r["influence_total"], hist_inf):
            problems.append("total influence disagrees with the histogram")
        if majority and not _close(r["bsa"], majority_bsa(n)):
            problems.append(f"majority bsa {r['bsa']} != closed form {majority_bsa(n)}")
        return problems
    return check


def _check_boundary(n: int, majority: bool):
    def check(data):
        r = json.loads(data)
        problems = []
        if not r["threshold_check"]["passed"]:
            problems.append("edge threshold check failed")
        if not _close(r["var_sqrt_sens"], r["influence"] - r["bsa"] ** 2):
            problems.append("Var(sqrt s) != Inf - BSA^2")
        for level, plus, minus in r["level_sign_counts"]:
            if plus + minus != comb(n, level):
                problems.append(f"level {level} does not hold C(n, level) points")
            if majority and plus != (comb(n, level) if 2 * level <= n else 0):
                problems.append(f"majority level {level} has {plus} plus signs")
        return problems
    return check


def _check_tail(n: int):
    def check(data):
        rows = _csv_rows(data)
        problems = [] if len(rows) == n else [f"{len(rows)} tail rows, expected {n}"]
        for row in rows:
            m = int(row["m"])
            p_e = Fraction(row["p_e_exact"])
            coupling = Fraction(row["coupling_lb_exact"])
            floor = 1 - (1 - Fraction(1, m)) ** m
            if not floor * p_e <= coupling <= p_e:
                problems.append(f"level {m}: coupling mass outside [floor p_e, p_e]")
            if not _close(float(row["p_e"]), float(p_e)):
                problems.append(f"level {m}: p_e column disagrees with p_e_exact")
        return problems
    return check


def _check_audit(expected_functions: int, attr: str):
    def check(report):
        problems = []
        if report.functions_checked != expected_functions:
            problems.append(f"{report.functions_checked} functions, expected {expected_functions}")
        if getattr(report, attr) != 0:
            problems.append(f"{attr} = {getattr(report, attr)}")
        return problems
    return check


def build_cube(rng) -> list[Op]:
    ops = []
    for family, (n_analyze, n_boundary, n_tail) in CUBE_FUNCTIONS.items():
        majority = family == "maj"
        spec = _cube_spec(family, n_analyze, int(rng.integers(1 << 31)))
        ops.append(cli_op(f"analyze {spec}", ["analyze", spec], 1 << n_analyze,
                          _check_analyze(n_analyze, majority)))
        spec = _cube_spec(family, n_boundary, int(rng.integers(1 << 31)))
        ops.append(cli_op(f"boundary {spec}", ["boundary", spec], 1 << n_boundary,
                          _check_boundary(n_boundary, majority)))
        spec = _cube_spec(family, n_tail, int(rng.integers(1 << 31)))
        ops.append(cli_op(f"tail {spec}", ["tail", spec], 1 << n_tail, _check_tail(n_tail)))
    for ell in range(1, 5):
        functions = 1 << (1 << ell)
        units = functions << ell
        ops.append(Op(f"sensitive_fraction_bound_exhaustive({ell})", units,
                      lambda out, ell=ell: restriction.sensitive_fraction_bound_exhaustive(ell),
                      _check_audit(functions, "violations")))
        ops.append(Op(f"edge_threshold_check_exhaustive({ell})", units,
                      lambda out, ell=ell: boundary.edge_threshold_check_exhaustive(ell),
                      _check_audit(functions - 2, "failures")))
    return [ops[i] for i in rng.permutation(len(ops))]


# ------------------------------------------------------------ certify

PRECISIONS = (15, 30, 50)
SWEEPS = {15: (10, 25, 44), 30: (16, 35, 50), 50: (8, 28, 41)}  # near-equal --n values
COMPOSITIONS = ((8, 2), (12, 3), (16, 4), (20, 2), (24, 3), (28, 4), (32, 2), (36, 3),
                (40, 4), (40, 2))  # (n, parts) for --sizes
JENSEN_CASES = 20  # hypergeometric enclosures per precision


def random_composition(rng, n: int, parts: int) -> tuple[int, ...]:
    cuts = np.sort(rng.choice(n - 1, size=parts - 1, replace=False)) + 1
    return tuple(int(d) for d in np.diff(np.concatenate(([0], cuts, [n]))))


def _check_partition(cases: int, near_equal: bool, sample_seed: int):
    upper_ok = ("1",) if near_equal else ("1", "")

    def check(data):
        rows = _csv_rows(data)
        problems = [] if len(rows) == cases else [f"{len(rows)} rows, expected {cases}"]
        for row in rows:
            n, k = int(row["n"]), int(row["k"])
            if (row["pass_lower"] != "1" or row["pass_upper"] not in upper_ok
                    or row["pass_gap"] == "0"):
                problems.append(f"n={n} k={k} sizes={row['sizes']}: certificate failed")
            if (row["pass_gap"] == "") != (k == n):
                problems.append(f"n={n} k={k}: gap bound presence is wrong")
            if not _close(float(row["A"]), sqrt(n - k)):
                problems.append(f"n={n} k={k}: A != sqrt(n - k)")
        step = max(1, len(rows) // 8)
        for row in rows[sample_seed % step::step][:8]:
            n, k = int(row["n"]), int(row["k"])
            sizes = [int(s) for s in row["sizes"].split("-")]
            reference = block_average_float(n, k, sizes)
            if not _close(float(row["B"]), reference):
                problems.append(f"n={n} k={k}: B {row['B']} != float reference {reference}")
            if not _close(float(row["gap"]), float(row["A"]) - float(row["B"])):
                problems.append(f"n={n} k={k}: gap != A - B")
        return problems
    return check


def _check_jensen(population: int, successes: int, draws: int):
    mean = draws * successes / population
    reference = mean_sqrt_float(population, successes, draws)

    def check(bounds):
        lower, upper, mean_sqrt = float(bounds.lower), float(bounds.upper), float(bounds.mean_sqrt)
        problems = []
        if not lower - TOL <= mean_sqrt <= upper + TOL:
            problems.append("E[sqrt X] outside the enclosure")
        if not _close(mean_sqrt, reference):
            problems.append(f"E[sqrt X] {mean_sqrt} != float reference {reference}")
        if not _close(upper, sqrt(mean)):
            problems.append("upper bound != sqrt(E[X])")
        return problems
    return check


def build_certify(rng) -> list[Op]:
    ops = []
    for precision in PRECISIONS:
        for n in SWEEPS[precision]:
            cases = n * (n + 1)
            ops.append(cli_op(f"partition --n {n} --precision {precision}",
                              ["partition", "--n", str(n), "--precision", str(precision)],
                              cases, _check_partition(cases, True, int(rng.integers(1 << 31)))))
        for n, parts in COMPOSITIONS:
            sizes = "-".join(map(str, random_composition(rng, n, parts)))
            ops.append(cli_op(f"partition --sizes {sizes} --precision {precision}",
                              ["partition", "--sizes", sizes, "--precision", str(precision)],
                              n + 1, _check_partition(n + 1, False, int(rng.integers(1 << 31)))))
        for j in range(JENSEN_CASES):
            population = 10 + 50 * j // (JENSEN_CASES - 1)
            draws = max(1, population // (2 + j % 4))
            successes = int(rng.integers(1, population + 1))
            weights = hg_weights(population, successes, draws)
            values, probs = list(weights), list(weights.values())
            ops.append(Op(f"jensen_bounds(Hg({population},{successes},{draws}), {precision})", 1,
                          lambda out, v=values, p=probs, d=precision:
                              partition.jensen_bounds(v, p, precision=d),
                          _check_jensen(population, successes, draws)))
    return [ops[i] for i in rng.permutation(len(ops))]


# ------------------------------------------------------------ sampling

def _check_restrict(trials: int, cells: int):
    def check(data):
        rows = _csv_rows(data)
        problems = [] if len(rows) == cells else [f"{len(rows)} rows, expected {cells}"]
        for row in rows:
            est = float(row["estimate"])
            if int(row["trials"]) != trials or float(row["rejection_rate"]) != 0.0:
                problems.append(f"rate {row['rate']}: wrong trial accounting")
            if not 0.0 <= est <= 1.0:
                problems.append(f"rate {row['rate']}: estimate {est} outside [0, 1]")
            if not _close(float(row["stderr"]), sqrt(est * (1.0 - est) / trials)):
                problems.append(f"rate {row['rate']}: stderr is not the binomial one")
        return problems
    return check


def _check_alpha(rows_expected: int):
    def check(data):
        rows = _csv_rows(data)
        problems = [] if len(rows) == rows_expected else [f"{len(rows)} rows"]
        for row in rows:
            est, err, exact = float(row["alpha"]), float(row["stderr"]), float(row["alpha_exact"])
            if abs(est - exact) > 4.0 * err + partition.ABS_NOISE:
                problems.append(f"n={row['n']} seed={row['seed']}: alpha {est} vs exact {exact}")
        return problems
    return check


def _check_mc_average(spec):
    def check(estimate):
        exact = float(partition.block_average_B(spec))
        if abs(estimate.estimate - exact) > 4.0 * estimate.stderr + partition.ABS_NOISE:
            return [f"estimate {estimate.estimate} +- {estimate.stderr} vs exact {exact}"]
        return []
    return check


def _check_block_bound(table, blocks: int, trials: int):
    def check(report):
        problems = []
        if not report.passed or report.margin < 0.0:
            problems.append("block bound failed")
        if report.trials != trials or report.blocks != blocks:
            problems.append("wrong trial or block accounting")
        if not _close(report.margin, report.rhs_estimate + blocks + 4.0 * report.stderr
                      - report.lhs):
            problems.append("margin does not match its parts")
        if not 0.0 <= report.lhs <= sqrt(table.n):
            problems.append("surface area outside [0, sqrt(n)]")
        return problems
    return check


def build_sampling(rng) -> list[Op]:
    workers = str(WORKERS["sampling"])
    ops = []
    cells = len(RESTRICT_RATES.split(","))
    for n in (14, 15, 16):
        spec = f"rand:d=2,n={n},seed={int(rng.integers(1 << 31))}"
        ops.append(cli_op(f"restrict {spec}",
                          ["restrict", spec, "--rate", RESTRICT_RATES, "--delta", "0.0625",
                           "--trials", str(RESTRICT_TRIALS), "--workers", workers,
                           "--seed", str(int(rng.integers(1 << 31)))],
                          cells * RESTRICT_TRIALS, _check_restrict(RESTRICT_TRIALS, cells)))
    for n in (10, 11):
        seeds = ",".join(str(int(s)) for s in rng.integers(1 << 31, size=2))
        ops.append(cli_op(f"sweep alpha n={n} seeds={seeds}",
                          ["sweep", "--kind", "alpha", "--exact", "--n", str(n), "--degree", "2",
                           "--seeds", seeds, "--trials", str(ALPHA_TRIALS), "--workers", workers],
                          2 * ALPHA_TRIALS, _check_alpha(2)))
    for j in range(MC_CALLS):
        n = 4 + j % 13
        parts = 1 + j % min(6, n)
        k = int(rng.integers(0, n + 1))
        sizes = random_composition(rng, n, parts)
        y = np.zeros(n, dtype=np.int64)
        y[:n - k] = 1
        rng.shuffle(y)
        seed = int(rng.integers(1 << 31))
        spec = partition.BlockPartitionSpec(n, k, sizes)
        ops.append(Op(f"mc_partition_average(n={n}, k={k}, sizes={sizes})", MC_TRIALS,
                      lambda out, y=y, sizes=sizes, seed=seed: partition.mc_partition_average(
                          y, sizes, MC_TRIALS, seed=seed, workers=WORKERS["sampling"]),
                      _check_mc_average(spec)))
    for _ in range(BLOCK_TABLES):
        poly_seed = int(rng.integers(1 << 31))
        table, _ = ptf.sign_table(ptf.generate("random", 10, degree=2, seed=poly_seed))
        for blocks in (2, 3):
            seed = int(rng.integers(1 << 31))
            # a new table per call: tables memoise their profile, a new process would not
            ops.append(Op(f"bsa_block_bound(rand:d=2,n=10,seed={poly_seed}, {blocks})",
                          BLOCK_TRIALS,
                          lambda out, v=table.values, b=blocks, s=seed: partition.bsa_block_bound(
                              core.TruthTable(10, v), b, BLOCK_TRIALS, seed=s,
                              workers=WORKERS["sampling"]),
                          _check_block_bound(table, blocks, BLOCK_TRIALS)))
    return [ops[i] for i in rng.permutation(len(ops))]


BUILDERS = {"cube": build_cube, "certify": build_certify, "sampling": build_sampling}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operations for `seed`, in the order they run."""
    rng = np.random.default_rng([int(seed), list(BUILDERS).index(workload)])
    return BUILDERS[workload](rng)
