"""Command-line front end.

Subcommands: analyze, tail, partition, restrict, boundary, verify, sweep.
Reports are deterministic: one (spec, options, worker count) triple always
produces byte-identical output.  JSON floats use Python's shortest
round-trip form; CSV floats carry 17 significant digits with a '.'
decimal point, no locale.

Exit codes: 0 success, 2 malformed input or an unwritable output, 3 capacity
exceeded or out of memory, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable

import numpy as np

from . import boundary as boundary_mod
from . import partition as partition_mod
from . import restriction as restriction_mod
from . import verify as verify_mod
from .core import (TruthTable, _check_n, bsa_via_tails, fractional_moment,
                   noise_sensitivity, total_influence)
from .errors import (BoolsurfError, CapacityError, InputError, ParseError,
                     VerificationError)
from .ptf import (SparsePolynomial, alpha_estimate, alpha_exact, generate, sign_table,
                  variables_mask)

DEFAULT_MOMENTS = "0.25,0.5,0.75,1"
DEFAULT_DELTAS = "0.05,0.1,0.25"
DEFAULT_PARTITION_N = "1..12"
# (n, k, sizes) triples one `partition --n` sweep may certify; c6 checks 75,640
PARTITION_SWEEP_CAP = 10**6
INT_LIST_CAP = 10**6  # integers one list option may expand to, counted before expanding


# ------------------------------------------------------------ tokens and lists

_INTEGER = re.compile(r"-?[0-9]+")
_DECIMAL = re.compile(r"-?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?")


def integer(text: str) -> int:
    """The one integer token: ASCII digits after an optional '-'.  argparse
    names this function in its messages ("invalid integer value")."""
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(f"invalid integer value: {text!r}")


def decimal(text: str) -> float:
    """The one decimal token: `_DECIMAL`, and finite (1e400 is not)."""
    if _DECIMAL.fullmatch(text) and math.isfinite(value := float(text)):
        return value
    raise ParseError(f"invalid decimal value: {text!r}")


def _items(text: str, sep: str = ",") -> list[str]:
    """The items of a `sep`-joined list, none of them empty."""
    items = text.split(sep)
    if "" in items:
        raise ParseError(f"empty item in list {text!r}")
    return items


def parse_int_list(text: str) -> list[int]:
    """Integers from 'a,b,c' with 'lo..hi' range chunks, e.g. '1..4,8'."""
    out: list[int] = []
    for chunk in _items(text):
        lo, sep, hi = chunk.partition("..")
        if not sep:
            out.append(integer(chunk))
            continue
        start, stop = integer(lo), integer(hi)
        if stop < start:
            raise InputError(f"empty range {chunk!r}")
        if len(out) + stop - start + 1 > INT_LIST_CAP:
            raise CapacityError(f"{text!r} expands to more than {INT_LIST_CAP} integers")
        out.extend(range(start, stop + 1))
    return out


def parse_float_list(text: str) -> list[float]:
    return [decimal(item) for item in _items(text)]


# ------------------------------------------------------------ function specs

@dataclass
class FunctionSpec:
    """A parsed function source: generator family, inline polynomial, or table file."""

    text: str
    kind: str
    polynomial: SparsePolynomial | None = None
    table: TruthTable | None = None

    def require_polynomial(self) -> SparsePolynomial:
        if self.polynomial is None:
            raise InputError(f"{self.kind} specs carry no polynomial; this command needs one")
        return self.polynomial

    def resolve_table(self) -> tuple[TruthTable, int | None]:
        """Truth table plus the zero-evaluation count (None for table sources)."""
        if self.table is not None:
            return self.table, None
        table, zero_hits = sign_table(self.polynomial)
        return table, zero_hits


def _parse_kv_int(pairs: str, allowed: dict[str, bool], what: str) -> dict[str, int]:
    """Parse 'k=v,k=v' with integer values; `allowed` maps key -> required."""
    out: dict[str, int] = {}
    for chunk in _items(pairs):
        key, sep, value = chunk.partition("=")
        if not sep or key not in allowed or key in out:  # a repeat would shadow the first
            raise ParseError(f"bad parameter {chunk!r} in {what} spec")
        out[key] = integer(value)
    missing = [k for k, required in allowed.items() if required and k not in out]
    if missing:
        raise ParseError(f"{what} spec is missing {', '.join(missing)}")
    return out


def _parse_generator(text: str) -> FunctionSpec:
    name, _, rest = text.partition(":")
    name = name.lower()
    if name in ("maj", "majority", "harm", "harmonic"):
        kind = "majority" if name.startswith("maj") else "harmonic"
        return FunctionSpec(text, kind, polynomial=generate(kind, integer(rest)))
    if name in ("par", "parity"):
        head, sep, subset_text = rest.partition(":")
        if not sep:
            raise ParseError("parity spec is par:<n>:<v1,v2,...>", position=len(name) + 1)
        n = integer(head)
        mask = variables_mask([integer(v) for v in _items(subset_text)], n)
        return FunctionSpec(text, "parity", polynomial=generate("parity", n, subset=mask))
    if name == "rand":
        params = _parse_kv_int(rest, {"d": True, "n": True, "seed": False}, "rand")
        poly = generate("random", params["n"], degree=params["d"],
                        seed=params.get("seed", 0))
        return FunctionSpec(text, "random", polynomial=poly)
    if name == "rands":
        params = _parse_kv_int(rest, {"d": True, "n": True, "terms": True, "seed": False},
                               "rands")
        poly = generate("random-sparse", params["n"], degree=params["d"],
                        nterms=params["terms"], seed=params.get("seed", 0))
        return FunctionSpec(text, "random-sparse", polynomial=poly)
    raise ParseError(f"unknown generator {name!r}", position=0)


def parse_table_text(content: str) -> TruthTable:
    """Truth-table file format: first line n=<int>, second line 2^n signs in {+,-}."""
    lines = [line.strip() for line in content.splitlines() if line.strip()]
    if len(lines) != 2 or not lines[0].startswith("n="):
        raise ParseError("table file needs two lines: 'n=<int>' then the sign row")
    n = _check_n(integer(lines[0][2:]))
    row = lines[1]
    if len(row) != 1 << n:
        raise ParseError(f"sign row has {len(row)} characters, expected {1 << n}")
    bad = set(row) - {"+", "-"}
    if bad:
        raise ParseError(f"sign row contains {sorted(bad)}; only '+' and '-' are allowed",
                         position=min(row.index(ch) for ch in bad))
    values = np.frombuffer(row.encode("ascii"), dtype=np.uint8)
    return TruthTable(n, np.where(values == ord("+"), 1, -1).astype(np.int8))


def _polynomial_spec(text: str, content: str, where: str = "") -> FunctionSpec:
    """Spec `text` for the polynomial JSON `content`; `where` names it in errors."""
    try:
        data = json.loads(content)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad polynomial JSON{where}: {exc.msg}", position=exc.pos)
    return FunctionSpec(text, "polynomial", polynomial=SparsePolynomial.from_json_dict(data))


def parse_function_spec(text: str) -> FunctionSpec:
    """Resolve a spec string: generator shorthand, inline polynomial JSON,
    or @path to a polynomial-JSON or truth-table file."""
    text = text.strip()
    if not text:
        raise ParseError("empty function spec", position=0)
    if text.startswith("{"):
        return _polynomial_spec(text, text)
    if text.startswith("@"):
        path = text[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                content = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}")
        stripped = content.lstrip()
        if stripped.startswith("n="):
            return FunctionSpec(text, "table", table=parse_table_text(content))
        if stripped.startswith("{"):
            return _polynomial_spec(text, content, f" in {path}")
        raise ParseError(f"{path} is neither a table file nor polynomial JSON")
    return _parse_generator(text)


# ------------------------------------------------------------ output plumbing

def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return str(value)

def render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(_csv_cell, row)))
    return "\n".join(lines) + "\n"


def render_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def emit(text: str | Iterable[str], out: str | None) -> None:
    """Write a string, or an iterable of strings in turn (held one at a
    time), to the file `out` or to stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}")
    else:
        sys.stdout.writelines(chunks)


def _rows_payload(command: str, spec_text: str | None, header: list[str],
                  rows: list[list]) -> dict:
    body = [dict(zip(header, row)) for row in rows]
    payload = {"command": command}
    if spec_text is not None:
        payload["spec"] = spec_text
    payload["rows"] = body
    return payload


def _emit_table(args, command: str, spec_text: str | None, header: list[str],
                rows: list[list]) -> None:
    if args.format == "json":
        emit(render_json(_rows_payload(command, spec_text, header, rows)), args.out)
    else:
        emit(render_csv(header, rows), args.out)


# ------------------------------------------------------------ commands

def _cmd_analyze(args) -> int:
    if args.format != "json":
        raise InputError("analyze reports are JSON only")
    spec = parse_function_spec(args.spec)
    table, zero_hits = spec.resolve_table()
    profile = table.profile()
    influence = total_influence(table)
    moments = parse_float_list(args.moments)
    deltas = parse_float_list(args.deltas)
    report = {
        "command": "analyze",
        "spec": spec.text,
        "kind": spec.kind,
        "n": table.n,
        "influence_total": float(influence.total),
        "influence_per_coordinate": [float(v) for v in influence.per_coordinate],
        "bsa": float(profile.bsa()),
        "bsa_via_tails": float(bsa_via_tails(table)),
        "vertex_boundary_fraction": profile.count_ge(1) / profile.points,
        "sensitivity_counts": [int(c) for c in profile.counts],
        "fractional_moments": {repr(a): float(fractional_moment(table, a)) for a in moments},
        "noise_sensitivity": {repr(d): float(noise_sensitivity(table, d)) for d in deltas},
    }
    if zero_hits is not None:
        report["zero_sign_evaluations"] = zero_hits
    emit(render_json(report), args.out)
    return 0


def _cmd_tail(args) -> int:
    spec = parse_function_spec(args.spec)
    table, _ = spec.resolve_table()
    levels = list(range(1, table.n + 1)) if args.m is None else parse_int_list(args.m)
    header = ["m", "p_e", "coupling_lb", "bound_ratio", "floor",
              "p_e_exact", "coupling_lb_exact"]
    rows = []
    for m in levels:
        r = restriction_mod.tail_coupling_check(table, m)
        rows.append([r.m, float(r.p_e), float(r.coupling_lb),
                     None if r.bound_ratio is None else float(r.bound_ratio),
                     float(r.floor), str(r.p_e), str(r.coupling_lb)])
    _emit_table(args, "tail", spec.text, header, rows)
    return 0


_PARTITION_HEADER = ["n", "k", "sizes", "A", "B", "gap", "gap_bound",
                     "pass_lower", "pass_upper", "pass_gap"]
_FLAG_CELL = {True: "1", False: "0", None: ""}


def _partition_line(row: tuple) -> str:
    """One CSV line of a partition row, each column formatted as its type
    is known: the same bytes `render_csv` writes for the row."""
    n, k, label, a, b, gap, bound, lower, upper, gap_ok = row
    bound = "" if bound is None else format(bound, ".17g")
    return (f"{n},{k},{label},{a:.17g},{b:.17g},{gap:.17g},{bound},"
            f"{_FLAG_CELL[lower]},{_FLAG_CELL[upper]},{_FLAG_CELL[gap_ok]}\n")


def _cmd_partition(args) -> int:
    if args.sizes is not None:
        if args.n is not None:
            raise InputError("--n sweeps near-equal splits; it cannot go with --sizes")
        sizes = tuple(map(integer, _items(args.sizes, "-")))
        n, sizes = partition_mod._check_split(sum(sizes), sizes)
        ks = range(0, n + 1) if args.k is None else [
            partition_mod._check_k(n, k) for k in parse_int_list(args.k)]
        groups = [(n, sizes, ks)]
    else:
        if args.k is not None:
            raise InputError("--k selects zero counts for --sizes; give --sizes too")
        n_text = DEFAULT_PARTITION_N if args.n is None else args.n
        ns = parse_int_list(n_text)
        sweep = partition_mod.near_equal_sweep(ns)  # rejects n < 1
        triples = sum(n * (n + 1) for n in ns)
        if triples > PARTITION_SWEEP_CAP:
            raise CapacityError(
                f"--n {n_text} sweeps {triples} (n, k, sizes) triples; "
                f"the cap is {PARTITION_SWEEP_CAP}")
        groups = ((n, sizes, range(n + 1)) for n, sizes in sweep)
    # every input is checked before the first line, so no error cuts the stream short
    partition_mod._check_precision(args.precision)
    cases = failures = 0

    def rows():
        nonlocal cases, failures
        for n, sizes, ks in groups:
            for row in partition_mod.sandwich_rows(n, sizes, ks, args.precision):
                cases += 1
                if not partition_mod._all_passed(*row[7:]):
                    failures += 1
                yield row

    if args.format == "json":
        _emit_table(args, "partition", None, _PARTITION_HEADER, list(rows()))
    else:
        emit(chain([",".join(_PARTITION_HEADER) + "\n"], map(_partition_line, rows())), args.out)
    if failures:
        print(f"partition: {failures} of {cases} cases failed certification",
              file=sys.stderr)
        return 4
    return 0


def _cmd_restrict(args) -> int:
    spec = parse_function_spec(args.spec)
    poly = spec.require_polynomial()
    rates = parse_float_list(args.rate)
    deltas = parse_float_list(args.delta)
    header = ["rate", "delta", "trials", "estimate", "stderr", "rejection_rate"]
    rows = []
    for rate in rates:
        for delta in deltas:
            r = restriction_mod.restriction_failure_prob(
                poly, rate, delta, args.trials, seed=args.seed, workers=args.workers)
            rows.append([rate, delta, r.trials,
                         float(r.estimate), float(r.stderr), float(r.rejection_rate)])
    _emit_table(args, "restrict", spec.text, header, rows)
    return 0


def _cmd_boundary(args) -> int:
    if args.format != "json":
        raise InputError("boundary reports are JSON only (levels go to --levels-csv)")
    spec = parse_function_spec(args.spec)
    table, _ = spec.resolve_table()
    report = boundary_mod.boundary_report(table)
    payload = {
        "command": "boundary",
        "spec": spec.text,
        "n": report.n,
        "is_constant": report.is_constant,
        "influence": report.influence,
        "bsa": report.bsa,
        "var_sqrt_sens": report.var_sqrt_sens,
        "vertex_boundary_fraction": report.vertex_boundary_fraction,
        "threshold": report.threshold,
        "edge_biased_prob": report.edge_biased_prob,
    }
    if not report.is_constant:
        payload["threshold_check"] = {"passed": report.passed, "margin": report.margin}
    levels = [list(row) for row in boundary_mod.level_sign_counts(table)]
    payload["level_sign_counts"] = levels
    emit(render_json(payload), args.out)
    if args.levels_csv:
        emit(render_csv(["level", "plus", "minus"], levels), args.levels_csv)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for cid, title, budget, _ in verify_mod._REGISTRY:
            limit = f" (budget {budget:g}s)" if budget else ""
            print(f"{cid}: {title}{limit}")
        return 0
    results = verify_mod.run_all(None if args.only is None else _items(args.only))
    for result in results:
        print(verify_mod.format_result(result))
    failed = [r.cid for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 4
    return 0


def _family_table(family: str, n: int) -> TruthTable:
    family = family.lower()
    if family == "maj":
        return TruthTable.majority(n)
    if family == "harm":
        return sign_table(generate("harmonic", n))[0]
    if family == "sqrtpar":
        return TruthTable.parity(n, (1 << math.isqrt(n)) - 1)
    raise InputError(f"unknown sweep family {family!r} (use maj, harm, or sqrtpar)")


def _cmd_sweep(args) -> int:
    n_list = parse_int_list(args.n)  # every list is read before any table is built
    if args.kind == "bsa":
        header = ["family", "n", "bsa", "bsa_via_tails", "influence_total",
                  "vertex_boundary_fraction"]
        rows = []
        for family in _items(args.family):
            for n in n_list:
                table = _family_table(family, n)
                profile = table.profile()
                rows.append([family, n, profile.bsa(), bsa_via_tails(table),
                             profile.moment(1.0), profile.count_ge(1) / profile.points])
        _emit_table(args, "sweep", None, header, rows)
        return 0
    if args.kind == "ns":
        header = ["family", "n", "delta", "t", "ns", "ns_over_sqrt_t"]
        rows = []
        deltas = parse_float_list(args.delta)
        for family in _items(args.family):
            for n in n_list:
                table = _family_table(family, n)
                for delta in deltas:
                    ns = noise_sensitivity(table, delta)  # checks 0 < delta < 1/2
                    t = -math.log(1.0 - 2.0 * delta)
                    rows.append([family, n, delta, t, ns, ns / math.sqrt(t)])
        _emit_table(args, "sweep", None, header, rows)
        return 0
    if args.kind == "alpha":
        header = ["n", "degree", "seed", "alpha", "stderr", "alpha_exact"]
        rows = []
        seeds = parse_int_list(args.seeds)
        for n in n_list:
            for seed in seeds:
                poly = generate("random", n, degree=args.degree, seed=seed)
                # first, so a capacity error comes before the Monte Carlo work
                exact = alpha_exact(poly) if args.exact else None
                est = alpha_estimate(poly, args.trials, seed=seed, workers=args.workers)
                rows.append([n, args.degree, seed, est.estimate, est.stderr, exact])
        _emit_table(args, "sweep", None, header, rows)
        return 0
    raise InputError(f"unknown sweep kind {args.kind!r}")


# ------------------------------------------------------------ parser / main

class _Parser(argparse.ArgumentParser):  # the subcommand parsers are of this class too
    """Usage errors print one line, prefixed like every other error."""

    def error(self, message):
        self.exit(2, f"{self.prog}: {message}\n")


@lru_cache(maxsize=1)  # argparse keeps no state between parse_args calls
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boolsurf",
        description="Sensitivity, surface area, and boundary geometry of Boolean "
                    "functions; exact at small n, seeded Monte Carlo beyond.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, default_format):
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default=default_format)

    p = sub.add_parser("analyze", help="exact sensitivity/surface-area report")
    p.add_argument("spec", help="maj:5 | harm:8 | par:5:1,2 | rand:d=2,n=12,seed=7 | "
                                "rands:d=2,n=16,terms=20,seed=7 | inline JSON | @file")
    p.add_argument("--moments", default=DEFAULT_MOMENTS,
                   help="fractional-moment orders (comma list)")
    p.add_argument("--deltas", default=DEFAULT_DELTAS,
                   help="noise rates (comma list)")
    add_output(p, "json")

    p = sub.add_parser("tail", help="exact tail masses and coupling floors by level")
    p.add_argument("spec")
    p.add_argument("--m", help="levels, e.g. 1..9 or 2,4,6 (default 1..n)")
    add_output(p, "csv")

    p = sub.add_parser("partition", help="certified block-partition sandwich sweep")
    p.add_argument("--n", help=f"population sizes to sweep (default {DEFAULT_PARTITION_N})")
    p.add_argument("--sizes", help="explicit dash-joined block sizes, e.g. 3-2-2")
    p.add_argument("--k", help="zero counts to sweep with --sizes (default 0..n)")
    p.add_argument("--precision", type=integer, default=partition_mod.DEFAULT_PRECISION,
                   help="decimal digits (10..50)")
    add_output(p, "csv")

    p = sub.add_parser("restrict", help="Monte Carlo restriction-collapse grid")
    p.add_argument("spec")
    p.add_argument("--rate", default="0.25,0.0625,0.015625",
                   help="free-coordinate rates (comma list)")
    p.add_argument("--delta", default="0.0625",
                   help="closeness thresholds (comma list)")
    p.add_argument("--trials", type=integer, default=10_000)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--workers", type=integer, default=None)
    add_output(p, "csv")

    p = sub.add_parser("boundary", help="boundary geometry report and threshold check")
    p.add_argument("spec")
    p.add_argument("--levels-csv", help="also write per-level sign counts to this path")
    add_output(p, "json")

    p = sub.add_parser("verify", help="run the acceptance criteria suite")
    p.add_argument("--only", help="comma list of criterion ids, e.g. c1,c6")
    p.add_argument("--list", action="store_true", help="list criteria and exit")

    p = sub.add_parser("sweep", help="parameter sweeps with one CSV row per cell")
    p.add_argument("--kind", choices=("bsa", "ns", "alpha"), required=True)
    p.add_argument("--family", default="maj",
                   help="bsa/ns sweeps: comma list of maj, harm, sqrtpar")
    p.add_argument("--n", default="3,5,7,9,11,13,15")
    p.add_argument("--delta", default="0.01,0.02,0.05,0.1",
                   help="ns sweep noise rates")
    p.add_argument("--degree", type=integer, default=2, help="alpha sweep degree")
    p.add_argument("--seeds", default="0..4", help="alpha sweep seeds")
    p.add_argument("--trials", type=integer, default=10_000)
    p.add_argument("--workers", type=integer, default=None)
    p.add_argument("--exact", action="store_true",
                   help="alpha sweep: also enumerate the exact average")
    add_output(p, "csv")

    return parser


_DISPATCH = {
    "analyze": _cmd_analyze,
    "tail": _cmd_tail,
    "partition": _cmd_partition,
    "restrict": _cmd_restrict,
    "boundary": _cmd_boundary,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, CapacityError):
        return 3
    if isinstance(exc, VerificationError):
        return 4
    if isinstance(exc, (InputError, BoolsurfError)):
        return 2
    raise exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:  # argparse handles --help and bad flags
        return int(exc.code or 0)
    prefix = f"boolsurf {args.command}"
    if extra:  # the top-level parser would report these without the command
        print(f"{prefix}: unrecognized arguments: {' '.join(extra)}", file=sys.stderr)
        return 2
    # warnings print as one line, not as a path plus a source line; the
    # filters still decide whether a warning shows at all
    default_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"{prefix}: warning: {message}\n"
    try:
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()  # a closed reader shows up here, not at interpreter exit
        return code
    except BoolsurfError as exc:
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except MemoryError:  # a request too large for this host is over capacity, too
        print(f"{prefix}: out of memory", file=sys.stderr)
        return 3
    except BrokenPipeError as exc:  # stdout is unwritable, like an unwritable --out
        # the interpreter flushes stdout again at exit: let that write go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"{prefix}: cannot write stdout: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = default_format
