import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from boolsurf.cli import (_build_parser, exit_code_for, main, parse_float_list,
                          parse_function_spec, parse_int_list, parse_table_text)
from boolsurf.core import TruthTable
from boolsurf.errors import (CapacityError, InputError, ParseError,
                             VerificationError)


def format_table_text(table: TruthTable) -> str:
    """The truth-table file format: an n= line, then one +/- per point."""
    row = "".join("+" if v == 1 else "-" for v in table.values)
    return f"n={table.n}\n{row}\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- spec parsing


def test_parse_generator_specs():
    spec = parse_function_spec("maj:5")
    assert spec.kind == "majority"
    assert spec.polynomial.n == 5
    spec = parse_function_spec("par:5:1,2")
    assert spec.polynomial.terms == {0b00011: 1.0}
    spec = parse_function_spec("harm:3")
    assert abs(spec.polynomial.terms[0b100] - 1.0 / math.sqrt(3.0)) < 1e-15


def test_parse_generator_determinism():
    a = parse_function_spec("rand:d=2,n=8,seed=3")
    b = parse_function_spec("rand:d=2,n=8,seed=3")
    assert a.polynomial.terms == b.polynomial.terms
    c = parse_function_spec("rands:d=3,n=12,terms=20,seed=0")
    assert len(c.polynomial.terms) == 20


def test_parse_generator_errors():
    with pytest.raises(ParseError):
        parse_function_spec("xyz:3")
    with pytest.raises(ParseError):
        parse_function_spec("")
    with pytest.raises(ParseError):
        parse_function_spec("maj:five")
    with pytest.raises(ParseError):
        parse_function_spec("par:5")  # missing variable list
    with pytest.raises(ParseError):
        parse_function_spec("par:5:1,1")  # repeated variable
    with pytest.raises(InputError):
        parse_function_spec("par:5:9")  # out of range
    with pytest.raises(ParseError):
        parse_function_spec("rand:n=8")  # missing degree
    with pytest.raises(ParseError):
        parse_function_spec("rand:d=2,n=8,bogus=1")


def test_parse_inline_json():
    spec = parse_function_spec('{"n": 2, "terms": [{"vars": [1], "coef": 1.0}]}')
    assert spec.kind == "polynomial"
    assert spec.polynomial.terms == {1: 1.0}


def test_parse_inline_json_errors():
    with pytest.raises(ParseError) as info:
        parse_function_spec('{"n": 2, "terms": [')
    assert info.value.position is not None
    with pytest.raises(InputError):
        parse_function_spec('{"n": 2, "terms": [{"vars": [1, 1], "coef": 1.0}]}')


def test_parse_table_file(tmp_path):
    f = TruthTable.majority(3)
    path = tmp_path / "maj3.txt"
    path.write_text(format_table_text(f))
    spec = parse_function_spec(f"@{path}")
    assert spec.kind == "table"
    assert spec.table == f
    table, zero_hits = spec.resolve_table()
    assert table == f and zero_hits is None


def test_parse_polynomial_file(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text('{"n": 3, "terms": [{"vars": [1, 2], "coef": 2.5}]}')
    spec = parse_function_spec(f"@{path}")
    assert spec.polynomial.terms == {0b011: 2.5}


def test_parse_file_errors(tmp_path):
    with pytest.raises(InputError):
        parse_function_spec(f"@{tmp_path}/missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("n=2\n++-\n")  # row too short
    with pytest.raises(ParseError):
        parse_function_spec(f"@{bad}")
    bad.write_text("n=2\n++x-\n")
    with pytest.raises(ParseError):
        parse_function_spec(f"@{bad}")
    bad.write_text("hello\n")
    with pytest.raises(ParseError):
        parse_function_spec(f"@{bad}")
    bad.write_text("n=30\n" + "+" * 8 + "\n")
    with pytest.raises(CapacityError):
        parse_function_spec(f"@{bad}")


def test_table_text_negative_n_is_malformed():
    with pytest.raises(InputError):
        parse_table_text("n=-1\n+\n")


def test_table_text_round_trip():
    for f in (TruthTable.majority(3), TruthTable.constant(0, -1),
              TruthTable.random(5, seed=2)):
        assert parse_table_text(format_table_text(f)) == f


def test_parse_lists():
    assert parse_int_list("1..4,8") == [1, 2, 3, 4, 8]
    assert parse_int_list("7") == [7]
    assert parse_float_list("0.1,0.25") == [0.1, 0.25]
    with pytest.raises(ParseError):
        parse_int_list("a..b")
    with pytest.raises(InputError):
        parse_int_list("5..2")
    with pytest.raises(ParseError):
        parse_float_list("x")
    with pytest.raises(ParseError):
        parse_int_list(",")


def test_require_polynomial_for_table_specs(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(format_table_text(TruthTable.majority(3)))
    spec = parse_function_spec(f"@{path}")
    with pytest.raises(InputError):
        spec.require_polynomial()


# ---------------------------------------------------------------- exit codes


def test_exit_code_mapping():
    assert exit_code_for(InputError("x")) == 2
    assert exit_code_for(ParseError("x")) == 2
    assert exit_code_for(CapacityError("x")) == 3
    assert exit_code_for(VerificationError("x")) == 4
    with pytest.raises(KeyError):
        exit_code_for(KeyError("unrelated"))


def test_cli_bad_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "nope:3")
    assert code == 2
    assert "boolsurf analyze" in err


def test_cli_capacity_exits_3(capsys):
    code, _, err = run_cli(capsys, "analyze", "rand:d=2,n=30")
    assert code == 3
    assert "exceed" in err or "cap" in err


def test_cli_unknown_criterion_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "c99")
    assert code == 2


def test_cli_bad_flag_exits_nonzero(capsys):
    code, _, _ = run_cli(capsys, "analyze", "maj:3", "--format", "yaml")
    assert code == 2


# each row exits with its documented code: 2 for malformed input, 3 over a cap
@pytest.mark.parametrize("argv, exit_code", [
    (["partition", "--sizes", "3-x-2"], 2),
    (["partition", "--sizes", "3-0-2"], 2),
    (["partition", "--sizes=-3"], 2),
    (["partition", "--sizes", "3-"], 2),
    (["partition", "--sizes", "3--2"], 2),
    (["partition", "--sizes="], 2),
    (["analyze", "maj:5", "--out", "{missing}/x.json"], 2),
    (["tail", "maj:5", "--m", "1..x"], 2),
    (["restrict", "maj:5", "--trials", "0"], 2),
    (["restrict", "maj:5", "--rate", "2"], 2),
    (["restrict", "maj:5", "--trials", "10", "--workers", "0"], 2),
    (["partition", "--n", "2", "--k", "1"], 2),
    (["partition", "--sizes", "2-1", "--n", "7"], 2),
    (["partition", "--n", "1..100000"], 3),
    (["partition", "--n", "1..2000000000"], 3),
    (["analyze", "rand:d=2,n=5,seed=-4"], 2),
    (["analyze", "rands:d=2,n=5,terms=3,seed=-4"], 2),
    (["restrict", "maj:5", "--trials", "10", "--seed", "-1"], 2),
    (["sweep", "--kind", "alpha", "--n", "3", "--trials", "10", "--seeds", "-1"], 2),
    (["sweep", "--kind", "ns", "--n", "3", "--delta", "0.5"], 2),
    (["analyze", '{{"n": 1e400, "terms": []}}'], 2),
    (["analyze", '{{"n": 2, "terms": [{{"vars": ["a"], "coef": 1.0}}]}}'], 2),
    (["analyze", '{{"n": 2, "terms": [{{"vars": [1e400], "coef": 1.0}}]}}'], 2),
    (["analyze", '{{"n": 2, "terms": [{{"vars": [1], "coef": 1' + "0" * 400 + '}}]}}'], 2),
    (["restrict", "maj:5", "--trials", "1_0"], 2),
    (["tail", "maj:3", "--m", "1,,2"], 2),
    (["tail", "maj:3", "--m", " +1"], 2),
    (["tail", "maj:3", "--m", ""], 2),
    (["partition", "--sizes", "2-2", "--k", ""], 2),
    (["analyze", "par:5:1,,2"], 2),
    (["analyze", "par:5:"], 2),
    (["analyze", "maj:+5"], 2),
    (["analyze", "maj:\uff15"], 2),
    (["analyze", "rand:d=+2,n=1_0"], 2),
    (["analyze", "rand:d=2,n=5,n=6"], 2),
    (["partition", "--sizes", "1_0", "--k", "0"], 2),
    (["partition", "--sizes", "\uff12-\uff12"], 2),
    (["analyze", "maj:5", "--deltas", ",0.1,"], 2),
    (["analyze", "maj:5", "--deltas", "0.0_1"], 2),
    (["analyze", "maj:5", "--moments", "nan"], 2),
    (["analyze", "maj:5", "--moments", "1e400"], 2),
    (["sweep", "--kind", "bsa", "--n", "3,,5"], 2),
    (["verify", "--only", ""], 2),
    (["partition", "--sizes", "2", "--precision", "1_0"], 2),
    (["partition", "--n", "0"], 2),
    (["partition", "--n", "-3"], 2),
    (["partition", "--n", "0..2"], 2),
    (["partition", "--sizes", "3-2", "--bogus"], 2),
    (["analyze", '{{"n": 3.7, "terms": []}}'], 2),
    (["analyze", '{{"n": "3", "terms": []}}'], 2),
    (["analyze", '{{"n": true, "terms": []}}'], 2),
    (["analyze", '{{"n": 2, "terms": [{{"vars": [true], "coef": 1.0}}]}}'], 2),
    (["analyze", '{{"n": 2, "terms": [{{"vars": [1], "coef": "1e0"}}]}}'], 2),
    (["analyze", '{{"n": 2, "terms": [{{"vars": [1], "coef": true}}]}}'], 2),
    (["restrict", '{{"n": 2, "terms": [{{"vars": [1], "coef": 1e308}}, '
                  '{{"vars": [2], "coef": 1e308}}]}}'], 2),
], ids=["sizes-not-integer", "sizes-zero-block", "sizes-leading-dash", "sizes-trailing-dash",
        "sizes-double-dash", "sizes-empty", "out-dir-missing", "tail-bad-range",
        "restrict-zero-trials", "restrict-rate-above-1", "restrict-zero-workers",
        "partition-k-without-sizes", "partition-n-with-sizes", "partition-sweep-over-cap",
        "partition-range-unbounded", "rand-negative-seed",
        "rands-negative-seed", "restrict-negative-seed", "sweep-alpha-negative-seed",
        "sweep-ns-delta-half", "json-n-infinite", "json-variable-not-integer",
        "json-variable-infinite", "json-coef-too-large", "restrict-trials-underscore",
        "tail-empty-item", "tail-signed-spaced", "tail-empty-list", "sizes-empty-k-list",
        "parity-empty-item", "parity-no-variables", "maj-signed", "maj-fullwidth-digit",
        "rand-signed-underscore", "rand-repeated-parameter", "sizes-underscore",
        "sizes-fullwidth-digits", "deltas-empty-items", "deltas-underscore", "moments-nan",
        "moments-overflow", "sweep-n-empty-item", "verify-only-empty",
        "partition-precision-underscore", "partition-n-zero", "partition-n-negative",
        "partition-n-range-from-zero", "unrecognized-argument",
        "json-n-fractional", "json-n-string", "json-n-bool", "json-variable-bool",
        "json-coef-string", "json-coef-bool", "restrict-json-coef-sum-overflows"])
def test_malformed_input_exits_2_with_one_line(capsys, tmp_path, argv, exit_code):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    # a warning would print before the error line; make one fail the test outright
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, *argv)
    assert code == exit_code
    assert len(err.splitlines()) == 1 and err.startswith(f"boolsurf {argv[0]}: ")


@pytest.mark.parametrize("header", ["n= 2", "n=+2", "n=0_2", "n=\uff12"],
                         ids=["spaced", "signed", "underscore", "fullwidth-digit"])
def test_malformed_table_header_exits_2_with_one_line(capsys, tmp_path, header):
    path = tmp_path / "table.txt"
    path.write_text(f"{header}\n++-+\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "tail", f"@{path}")
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("boolsurf tail: ")


def readme_cli_lines():
    """The `boolsurf ...` lines of README's CLI quickstart block, comments cut."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI quickstart", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("boolsurf ")]


# verify is left out: tests/test_acceptance.py runs every criterion
@pytest.mark.parametrize("line", [line for line in readme_cli_lines()
                                  if line.split()[1] != "verify"])
def test_readme_cli_quickstart_runs(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)  # boundary writes its --levels-csv here
    code, out, _ = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0 and out


def test_warning_prints_as_one_line():
    # pytest records warnings in-process, so run the CLI as a user would
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "boolsurf", "restrict", "maj:5", "--trials", "10"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("boolsurf restrict: warning: rate=0.25 ")


# buffered, stdout fails at the final flush; unbuffered, at the first print
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_reader_exits_2_with_one_line(unbuffered):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        done = subprocess.run(
            [sys.executable, "-m", "boolsurf", "verify", "--only", "c12"], stdout=write_end,
            stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == "boolsurf verify: cannot write stdout: [Errno 32] Broken pipe\n"


def _limit_address_space():
    import resource
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# each asks for hundreds of GiB; the address-space limit makes the allocation
# fail at once instead of letting an overcommitting host start paging it in
@pytest.mark.parametrize("argv", [
    ["restrict", "maj:5", "--trials", "100000000000", "--rate", "0.01"],
    ["sweep", "--kind", "alpha", "--n", "3", "--seeds", "0", "--trials", "100000000000"],
], ids=["restrict", "sweep-alpha"])
def test_out_of_memory_exits_3_with_one_line(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "boolsurf", *argv], capture_output=True,
        text=True, env=env, timeout=120, preexec_fn=_limit_address_space)
    assert done.returncode == 3
    assert done.stderr == f"boolsurf {argv[0]}: out of memory\n"


# the byte cap refuses the request before any chunk is drawn, and a bad
# seed or rate is still reported as such when the request is also too large
@pytest.mark.parametrize("extra, code, message", [
    ([], 3, "out of memory"),
    (["--seed", "-1"], 2, "seed must be >= 0, got -1"),
    (["--rate", "2"], 2, "free-rate must lie strictly in (0, 1), got 2.0"),
], ids=["too-large", "and-negative-seed", "and-rate-above-1"])
def test_trial_count_over_the_byte_cap_exits_before_drawing(capsys, monkeypatch, extra, code,
                                                            message):
    def no_draw(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr("boolsurf.restriction._trial_values", no_draw)
    argv = ["restrict", "maj:5", "--trials", "100000000000", *extra]
    assert run_cli(capsys, *argv) == (code, "", f"boolsurf restrict: {message}\n")


# ---------------------------------------------------------------- analyze


def test_analyze_majority5_golden(capsys):
    code, out, _ = run_cli(capsys, "analyze", "maj:5")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "analyze"
    assert report["n"] == 5
    assert report["influence_total"] == 1.875
    assert report["influence_per_coordinate"] == [0.375] * 5
    assert abs(report["bsa"] - 1.0825317547305482) < 1e-15
    assert abs(report["bsa_via_tails"] - report["bsa"]) < 1e-12
    assert report["vertex_boundary_fraction"] == 0.625
    assert report["sensitivity_counts"] == [12, 0, 0, 20, 0, 0]
    assert report["zero_sign_evaluations"] == 0
    assert report["fractional_moments"]["0.5"] == report["bsa"]
    assert abs(report["noise_sensitivity"]["0.1"] - 0.15571) < 1e-12


def test_analyze_majority4_counts_ties(capsys):
    code, out, _ = run_cli(capsys, "analyze", "maj:4")
    report = json.loads(out)
    assert code == 0
    assert report["zero_sign_evaluations"] == 6  # the C(4,2) tie points


def test_analyze_embedded_parity(capsys):
    code, out, _ = run_cli(capsys, "analyze", "par:5:1,2")
    report = json.loads(out)
    assert report["influence_total"] == 2.0
    assert abs(report["bsa"] - math.sqrt(2.0)) < 1e-12


def test_analyze_custom_moment_and_delta_grids(capsys):
    code, out, _ = run_cli(capsys, "analyze", "maj:3",
                           "--moments", "0.5,1", "--deltas", "0.1")
    report = json.loads(out)
    assert set(report["fractional_moments"]) == {"0.5", "1.0"}
    assert abs(report["noise_sensitivity"]["0.1"] - 0.136) < 1e-12


def test_analyze_table_spec_has_no_zero_hits(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(format_table_text(TruthTable.majority(3)))
    code, out, _ = run_cli(capsys, "analyze", f"@{path}")
    report = json.loads(out)
    assert "zero_sign_evaluations" not in report
    assert report["kind"] == "table"


def test_analyze_rejects_csv(capsys):
    code, _, err = run_cli(capsys, "analyze", "maj:3", "--format", "csv")
    assert code == 2


def test_analyze_deterministic_bytes(capsys):
    _, first, _ = run_cli(capsys, "analyze", "rand:d=2,n=8,seed=5")
    _, second, _ = run_cli(capsys, "analyze", "rand:d=2,n=8,seed=5")
    assert first == second


def test_analyze_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "maj:3", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["n"] == 3


# ---------------------------------------------------------------- tail


def test_tail_majority9_csv(capsys):
    code, out, _ = run_cli(capsys, "tail", "maj:9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,p_e,coupling_lb,bound_ratio,floor,p_e_exact,coupling_lb_exact"
    assert len(lines) == 10
    p_e = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a >= b for a, b in zip(p_e, p_e[1:]))
    assert p_e[0] == 63.0 / 128.0
    # exact-fraction columns survive the trip
    assert lines[1].split(",")[5] == "63/128"


def test_tail_levels_option_and_json(capsys):
    code, out, _ = run_cli(capsys, "tail", "maj:5", "--m", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["command"] == "tail"
    (row,) = payload["rows"]
    assert row["m"] == 3
    assert row["p_e"] == 20.0 / 32.0
    assert row["p_e_exact"] == "5/8"
    assert abs(row["coupling_lb"] - (20.0 / 32.0) * (19.0 / 27.0)) < 1e-15


def test_tail_deterministic_bytes(capsys):
    _, first, _ = run_cli(capsys, "tail", "maj:7")
    _, second, _ = run_cli(capsys, "tail", "maj:7")
    assert first == second


# ---------------------------------------------------------------- partition


def test_partition_explicit_sizes(capsys):
    code, out, _ = run_cli(capsys, "partition", "--sizes", "3-2-2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,k,sizes,A,B,gap,gap_bound")
    assert len(lines) == 9  # k = 0..7
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "7" and cells[2] == "3-2-2"
        assert cells[7] == "1"  # pass_lower
    # k = n row has no gap bound and no gap flag
    last = lines[-1].split(",")
    assert last[1] == "7" and last[6] == "" and last[9] == ""


def test_partition_near_equal_sweep(capsys):
    code, out, _ = run_cli(capsys, "partition", "--n", "1..6")
    assert code == 0
    lines = out.strip().split("\n")
    # sum over n of n * (n + 1) rows
    assert len(lines) == 1 + sum(n * (n + 1) for n in range(1, 7))
    assert all(line.split(",")[7] == "1" for line in lines[1:])


def test_partition_k_selection(capsys):
    code, out, _ = run_cli(capsys, "partition", "--sizes", "2-2", "--k", "2",
                           "--format", "json")
    payload = json.loads(out)
    (row,) = payload["rows"]
    assert row["n"] == 4 and row["k"] == 2
    assert abs(row["A"] - math.sqrt(2.0)) < 1e-12
    assert abs(row["B"] - 1.2761423749153966) < 1e-12
    assert row["pass_lower"] is True and row["pass_upper"] is True


def test_partition_exact_equalities_print_zero(capsys):
    # B = A exactly when k = n, b = 1, or k = 0 with equal blocks, and the
    # gap bound is exactly 0 when b = 1 or k = 0 with equal blocks
    code, out, _ = run_cli(capsys, "partition", "--n", "12", "--precision", "30")
    assert code == 0
    zero_gaps = zero_bounds = 0
    for line in out.strip().split("\n")[1:]:
        n, k, sizes, _, _, gap, bound = line.split(",")[:7]
        n, k, sizes = int(n), int(k), [int(m) for m in sizes.split("-")]
        equal_blocks = len(set(sizes)) == 1
        if k == n or len(sizes) == 1 or (k == 0 and equal_blocks):
            assert gap == "0"
            zero_gaps += 1
        if k < n and (len(sizes) == 1 or (k == 0 and equal_blocks)):
            assert bound == "0"
            zero_bounds += 1
        assert float(gap) >= 0.0
        assert bound == "" or float(bound) >= 0.0
    assert zero_gaps == 12 + 13 + 6 - 2 and zero_bounds == 12 + 6 - 1


# A, B, gap and gap_bound as earlier releases printed them (their repr),
# on rows with no exact equality: near-equal splits and --sizes ones
PARTITION_GOLDEN = [
    (12, 5, "3-3-3-3", 30, 2.6457513110645907, 2.5374018392189606,
     0.10834947184562982, 0.2577030497790186),
    (12, 7, "4-4-4", 30, 2.23606797749979, 2.1107520108782016,
     0.12531596662158828, 0.2845904698636096),
    (12, 1, "2-2-2-2-2-2", 30, 3.3166247903554, 3.294999636411992,
     0.02162515394340801, 0.06852530558585537),
    (12, 9, "3-3-2-2-2", 30, 1.7320508075688772, 1.2364602974649606,
     0.49559051010391686, 0.9724808172737464),
    (41, 17, "7-7-7-7-7-6", 50, 4.898979485566356, 4.8348516037438065,
     0.06412788182255, 0.21913382776745993),
    (7, 2, "3-2-2", 15, 2.23606797749979, 2.1622355610023156,
     0.07383241649747418, 0.16335594196489112),
    (12, 4, "5-1-6", 15, 2.8284271247461903, 2.577802238179249,
     0.2506248865669411, 0.3258631449552163),
    (20, 11, "1-6-13", 30, 3.0, 2.5754188528967292,
     0.42458114710327083, 0.5996587393091223),
    (9, 6, "2-7", 50, 1.7320508075688772, 1.5061226521053148,
     0.22592815546356246, 0.3657436689055924),
    (40, 13, "11-29", 30, 5.196152422706632, 5.04525837283615,
     0.15089404987048202, 0.17955083496059682),
]


@pytest.mark.parametrize("n, k, sizes, precision, a, b, gap, bound", PARTITION_GOLDEN)
def test_partition_golden_floats(capsys, n, k, sizes, precision, a, b, gap, bound):
    code, out, _ = run_cli(capsys, "partition", "--sizes", sizes, "--k", str(k),
                           "--precision", str(precision), "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (row["n"], row["k"], row["sizes"]) == (n, k, sizes)
    assert (row["A"], row["B"], row["gap"], row["gap_bound"]) == (a, b, gap, bound)
    assert row["pass_lower"] and row["pass_gap"] and row["pass_upper"] is not False


def test_parser_reuse_keeps_calls_apart(capsys):
    # main parses with one parser per process; no call may see another's options
    code, out, _ = run_cli(capsys, "partition", "--sizes", "3-2", "--k", "1")
    assert code == 0 and len(out.splitlines()) == 2
    code, out, _ = run_cli(capsys, "partition", "--sizes", "3-2")
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == list("012345")
    code, _, err = run_cli(capsys, "partition", "--sizes", "3-2", "--bogus")
    assert code == 2 and "--bogus" in err
    code, out, _ = run_cli(capsys, "partition", "--help")
    assert code == 0 and out.startswith("usage: boolsurf partition")
    code, out, _ = run_cli(capsys, "partition", "--n", "2")
    assert code == 0 and len(out.splitlines()) == 1 + 2 * 3
    assert _build_parser() is _build_parser()


def test_partition_default_sweep_is_1_to_12(capsys):
    code, out, _ = run_cli(capsys, "partition")
    assert code == 0
    assert out == run_cli(capsys, "partition", "--n", "1..12")[1]
    assert len(out.splitlines()) == 1 + sum(n * (n + 1) for n in range(1, 13))


def test_partition_counts_failures_as_rows_stream(capsys, monkeypatch):
    import boolsurf.partition as partition
    sandwich_rows = partition.sandwich_rows

    def failing_at_k1(n, sizes, ks, precision):
        for row in sandwich_rows(n, sizes, ks, precision):
            yield (*row[:7], False, *row[8:]) if row[1] == 1 else row

    monkeypatch.setattr(partition, "sandwich_rows", failing_at_k1)
    for fmt in ("csv", "json"):
        # --n 2 sweeps the splits 2 and 1-1, each at k = 0, 1, 2
        code, out, err = run_cli(capsys, "partition", "--n", "2", "--format", fmt)
        assert code == 4
        assert err == "partition: 2 of 6 cases failed certification\n"
        rows = out.splitlines()[1:] if fmt == "csv" else json.loads(out)["rows"]
        assert len(rows) == 6


def test_partition_bad_input_writes_nothing(capsys, tmp_path):
    # each input is checked before the first row streams out
    path = tmp_path / "p.csv"
    for argv in (["--sizes", "3-2", "--k", "0,9"], ["--sizes", "3-0-2"],
                 ["--n", "3", "--precision", "9"], ["--sizes", "2-2", "--precision", "51"]):
        code, out, _ = run_cli(capsys, "partition", *argv)
        assert code == 2 and out == ""
        code, _, _ = run_cli(capsys, "partition", *argv, "--out", str(path))
        assert code == 2 and not path.exists()


def test_partition_precision_validation(capsys):
    code, _, err = run_cli(capsys, "partition", "--sizes", "2-2", "--precision", "9")
    assert code == 2
    code, _, _ = run_cli(capsys, "partition", "--sizes", "2-2", "--precision", "51")
    assert code == 2


# ---------------------------------------------------------------- restrict


def test_restrict_grid(capsys):
    code, out, _ = run_cli(capsys, "restrict",
                           '{"n": 4, "terms": [{"vars": [1], "coef": 1.0}]}',
                           "--rate", "0.05", "--delta", "0.01",
                           "--trials", "4000", "--seed", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "rate,delta,trials,estimate,stderr,rejection_rate"
    cells = lines[1].split(",")
    estimate, stderr = float(cells[3]), float(cells[4])
    assert abs(estimate - 0.05) <= 4.0 * stderr
    assert float(cells[5]) == 0.0


def test_restrict_needs_polynomial(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(format_table_text(TruthTable.majority(3)))
    code, _, err = run_cli(capsys, "restrict", f"@{path}")
    assert code == 2
    assert "polynomial" in err


def test_restrict_warns_on_high_rate(capsys):
    with pytest.warns(UserWarning):
        code, out, _ = run_cli(capsys, "restrict", "maj:6",
                               "--rate", "0.25", "--delta", "0.01",
                               "--trials", "200")
    assert code == 0


def test_restrict_deterministic_bytes(capsys):
    args = ("restrict", "maj:8", "--rate", "0.05", "--delta", "0.0625",
            "--trials", "2000", "--seed", "3", "--workers", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# ---------------------------------------------------------------- boundary


def test_boundary_majority5(capsys):
    code, out, _ = run_cli(capsys, "boundary", "maj:5")
    assert code == 0
    report = json.loads(out)
    assert report["influence"] == 1.875
    assert abs(report["var_sqrt_sens"] - 0.703125) < 1e-12
    assert abs(report["threshold"] - 0.75) < 1e-12
    assert report["edge_biased_prob"] == 1.0
    assert report["threshold_check"]["passed"] is True
    assert report["threshold_check"]["margin"] == 0.5
    assert report["level_sign_counts"][0] == [0, 1, 0]


def test_boundary_builds_one_report(capsys, monkeypatch):
    import boolsurf.boundary as boundary
    calls = []
    report = boundary.boundary_report

    def counted(f):
        calls.append(f.n)
        return report(f)

    monkeypatch.setattr(boundary, "boundary_report", counted)
    code, out, _ = run_cli(capsys, "boundary", "maj:5")
    assert code == 0 and json.loads(out)["threshold_check"]["passed"] is True
    assert calls == [5]


def test_boundary_constant_skips_threshold(capsys):
    code, out, _ = run_cli(capsys, "boundary",
                           '{"n": 2, "terms": [{"vars": [], "coef": 2.0}]}')
    report = json.loads(out)
    assert report["is_constant"] is True
    assert report["threshold"] is None
    assert "threshold_check" not in report


def test_boundary_levels_csv(capsys, tmp_path):
    path = tmp_path / "levels.csv"
    code, _, _ = run_cli(capsys, "boundary", "maj:5", "--levels-csv", str(path))
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "level,plus,minus"
    assert len(lines) == 7
    assert lines[1] == "0,1,0"
    assert lines[-1] == "5,0,1"


# ---------------------------------------------------------------- verify


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 14
    assert lines[0].startswith("c1:")


def test_verify_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "c1")
    assert code == 0
    assert "[c1] PASS" in out
    assert "1/1 criteria passed" in out


# ---------------------------------------------------------------- sweep


def test_sweep_bsa(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kind", "bsa",
                           "--family", "maj", "--n", "3,5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family,n,bsa,bsa_via_tails,influence_total,vertex_boundary_fraction"
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert cells[1] == "5"
    assert abs(float(cells[2]) - 1.0825317547305482) < 1e-15


def test_sweep_ns_ratio_column(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kind", "ns",
                           "--family", "maj", "--n", "5", "--delta", "0.1")
    assert code == 0
    cells = out.strip().split("\n")[1].split(",")
    delta, t, ns, ratio = (float(c) for c in cells[2:])
    assert t == pytest.approx(-math.log(0.8))
    assert ratio == pytest.approx(ns / math.sqrt(t))


def test_sweep_alpha_exact(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kind", "alpha",
                           "--n", "4", "--seeds", "0,1",
                           "--trials", "3000", "--exact")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,degree,seed,alpha,stderr,alpha_exact"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        est, err, exact = float(cells[3]), float(cells[4]), float(cells[5])
        assert abs(est - exact) <= 4.0 * err + 1e-9


def test_sweep_alpha_exact_capacity(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--kind", "alpha",
                         "--n", "12", "--seeds", "0", "--trials", "100",
                         "--exact")
    assert code == 3


def test_sweep_alpha_exact_capacity_comes_before_the_estimate(capsys, monkeypatch):
    def no_estimate(*args, **kwargs):
        raise AssertionError("alpha_estimate ran before the capacity check")

    monkeypatch.setattr("boolsurf.cli.alpha_estimate", no_estimate)
    code, out, err = run_cli(capsys, "sweep", "--kind", "alpha", "--n", "12",
                             "--seeds", "0", "--trials", "200000", "--exact")
    assert code == 3
    assert out == ""
    assert err == ("boolsurf sweep: exact alpha enumerates 4^n pairs; "
                   "n=12 exceeds the cap of 11\n")


def test_sweep_unknown_family(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--kind", "bsa", "--family", "zig",
                         "--n", "3")
    assert code == 2


# the worker count comes from --workers alone: an environment variable
# of the old name must not move the chunking, and with it the bytes
@pytest.mark.parametrize("argv", [
    ["restrict", "maj:8", "--rate", "0.05", "--trials", "2000", "--seed", "3"],
    ["sweep", "--kind", "alpha", "--n", "6", "--seeds", "0,1", "--trials", "1000"],
], ids=["restrict", "sweep-alpha"])
def test_workers_environment_variable_is_ignored(capsys, monkeypatch, argv):
    monkeypatch.delenv("BOOLSURF_WORKERS", raising=False)
    _, plain, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("BOOLSURF_WORKERS", "3")
    _, with_env, _ = run_cli(capsys, *argv)
    assert with_env == plain


def test_sweep_deterministic_bytes(capsys):
    args = ("sweep", "--kind", "alpha", "--n", "6", "--seeds", "0..2",
            "--trials", "1000", "--workers", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
