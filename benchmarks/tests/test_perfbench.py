"""Tests of the benchmark harness itself.

Run with ``python3 -m pytest benchmarks/tests`` from the repository root.
"""

import json
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("count, expected", [
    (1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_values_beyond(count, expected):
    q = run.tail_percentile(count)
    assert q == expected
    if count >= 20:
        assert count - run._rank(q, count) >= run.TAIL_BEYOND
    higher = [p for p in run.TAIL_LADDER if p > q]
    if higher:
        assert count - run._rank(min(higher), count) < run.TAIL_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50.0) == 50
    assert run.percentile(values, 95.0) == 95
    assert run.percentile(values, 99.9) == 100
    assert run.percentile([7.0], 75.0) == 7.0


def test_self_time_subtracts_children_and_busy_skips_recursion():
    spans = [
        ["a", 0.0, 10.0, -1],  # 0
        ["b", 1.0, 4.0, 0],    # 1
        ["c", 2.0, 3.0, 1],    # 2
        ["b", 5.0, 9.0, 0],    # 3
        ["b", 6.0, 7.0, 3],    # 4: b inside b
        ["a", 20.0, 21.0, -1],  # 5
    ]
    rows = tracing.layer_times(spans)
    assert rows["a"] == {"calls": 2, "busy_s": 11.0, "self_s": 11.0 - 3.0 - 4.0}
    assert rows["b"] == {"calls": 3, "busy_s": 7.0, "self_s": (3.0 - 1.0) + (4.0 - 1.0) + 1.0}
    assert rows["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert tracing.top_level_seconds(spans) == 11.0


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == 4.0
    assert tracing.covered((0.0, 1.0), []) == 0.0


def _op(name, run_fn, check=lambda result: []):
    return workloads.Op(name, 5, run_fn, check)


def _steady_probe():
    return run.PROBE_REF_S


def test_broken_operations_count_in_failed_frac(tmp_path):
    def raises(out):
        raise RuntimeError("boom")

    ops = [
        _op("ok", lambda out: b"fine"),
        _op("raises", raises),
        _op("wrong output", lambda out: b"1", lambda result: ["expected 2"]),
        workloads.cli_op("bad spec", ["analyze", "maj:x"], 5, lambda result: []),
    ]
    m = run.measure(ops, 0.0, tmp_path, _steady_probe)
    assert (m.rounds, m.attempted, m.failed) == (1, 4, 3)
    assert m.units == 5 and len(m.latencies) == 1
    assert m.failed / m.attempted == 0.75
    assert any("exit code 2" in p for p in m.problems)


def test_changed_output_between_rounds_is_a_failure(tmp_path):
    outputs = iter([b"first", b"second"])

    def drifts(out):
        time.sleep(0.03)  # two rounds fit in the 0.05 s budget, a third does not start
        return next(outputs)

    m = run.measure([_op("drifts", drifts)], 0.05, tmp_path, _steady_probe)
    assert (m.rounds, m.attempted, m.failed) == (2, 2, 1)
    assert m.problems == ["drifts: output bytes differ from the first round"]


@pytest.mark.parametrize("speed", [1.0, 2.0])
def test_latencies_scale_by_the_probes_around_them(tmp_path, speed):
    # the probes on either side of the operation average PROBE_REF_S * 4 / (3 * speed)
    probe_times = iter([run.PROBE_REF_S / speed, run.PROBE_REF_S * 5 / (3 * speed)])

    def probe():
        return next(probe_times)

    def sleeps(out):
        time.sleep(0.02)
        return b"done"

    m = run.measure([_op("sleeps", sleeps)], 0.0, tmp_path, probe)
    assert m.raw_seconds >= 0.02
    assert m.latencies == pytest.approx([m.raw_seconds * speed * 3 / 4])
    assert m.work_per_s == pytest.approx(5 / m.latencies[0])


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_work_counts_do_not_depend_on_the_seed(workload):
    first = workloads.build(workload, 1)
    second = workloads.build(workload, 2)
    assert len(first) == len(second)
    assert sorted(op.units for op in first) == sorted(op.units for op in second)
    assert [op.name for op in first] != [op.name for op in second]


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_same_seed_builds_the_same_operations(workload):
    assert ([op.name for op in workloads.build(workload, 3)]
            == [op.name for op in workloads.build(workload, 3)])


def test_tracer_binds_every_namespace_and_restores():
    from boolsurf import cli, ptf, restriction
    original = ptf.eval_on_cube
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert restriction.eval_on_cube is ptf.eval_on_cube is not original
        assert cli.sign_table is ptf.sign_table
        assert tracer.missing == []
        tracer.active = True
        ptf.sign_table(ptf.generate("majority", 3))
        tracer.active = False
    finally:
        tracer.restore()
    assert restriction.eval_on_cube is original and ptf.eval_on_cube is original
    names = [span[0] for span in tracer.spans]
    assert names[:3] == ["ptf.generate", "ptf.sign_table", "ptf.eval_on_cube"]
    parents = {span[0]: tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
    assert parents["ptf.eval_on_cube"] == "ptf.sign_table"
    assert parents["core.walsh_hadamard"] == "ptf.eval_on_cube"
    assert tracer.counts["core.walsh_hadamard.points"] == 8
    assert tracer.counts["ptf.sign_table.zero_hits"] == 0


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.BUILDERS)


def test_majority_closed_form_matches_small_cases():
    from boolsurf import TruthTable, bsa
    for n in (1, 3, 5, 7, 9):
        assert abs(workloads.majority_bsa(n) - bsa(TruthTable.majority(n))) <= 1e-12


def test_float_block_average_matches_the_package():
    from boolsurf import BlockPartitionSpec, block_average_B
    for n, k, sizes in ((7, 2, (3, 2, 2)), (12, 0, (4, 4, 4)), (9, 9, (9,)), (10, 3, (1, 9))):
        exact = float(block_average_B(BlockPartitionSpec(n, k, sizes)))
        assert abs(workloads.block_average_float(n, k, sizes) - exact) <= 1e-12
