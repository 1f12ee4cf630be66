"""Benchmark for boolsurf: seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload cube|certify|sampling --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  Each run is one fresh
process.  It builds the workload's inputs from the seed, then repeats
whole rounds of the workload's operations until they have taken
`--seconds` at the reference host speed (below).
Every round starts with the package's ``lru_cache``s cleared, as for a
CLI user in a new process, and must reproduce the first round's output
digests byte for byte.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
several spawns of this script that import the package, build the inputs
and stop), ``work_per_s``, ``op_p50_s``, ``op_tail_s`` and
``peak_rss_mb``.  ``--trace 1`` runs half the time untraced and half
with spans around every public function named in ``tracing.TARGETS``,
and prints the per-layer metrics, per round.  The line before the last
is a JSON report with the environment, work counts, output digests and
failures; the last line is the result.

End-to-end times are scaled to a reference host speed.  The speed of a
shared host can drift by a third within minutes, which no amount of work
per run averages out, so the benchmark also times a fixed probe kernel
that shares no code with boolsurf (an interpreter loop plus a
memory-bound numpy pass) between operations, at least every
``PROBE_EVERY_S`` seconds.  Each operation's seconds, and each set-up
spawn's, are multiplied by ``PROBE_REF_S`` over the mean of the probes
on either side of it.  The report keeps the unscaled throughput, and the
per-layer span times are unscaled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
SETUP_SPAWNS = 7
PROBE_REF_S = 0.04  # probe time that defines the reference host speed
PROBE_EVERY_S = 0.5
PROBE_LOOP = 300_000
PROBE_PASSES = 8
WALL_CAP = 2.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MB"}
UNIT_NAMES = {"cube": "cube points", "certify": "certificates", "sampling": "Monte Carlo trials"}


# ------------------------------------------------------------ statistics

def _rank(q: float, count: int) -> int:
    """Nearest rank (1-based) of percentile q among `count` sorted values."""
    return max(1, -(-round(q * 10) * count // 1000))


def percentile(sorted_values, q: float) -> float:
    return sorted_values[_rank(q, len(sorted_values)) - 1]


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND values above it.

    Falls back to the median when there are too few values for any.
    """
    for q in TAIL_LADDER:
        if count - _rank(q, count) >= TAIL_BEYOND:
            return q
    return 50.0


# ------------------------------------------------------------ measurement

class HostProbe:
    """Times a fixed kernel that uses no boolsurf code, to track host speed."""

    def __init__(self):
        self._a = np.ones(1 << 20)  # 8 MiB: larger than a core's private caches
        self._b = np.empty_like(self._a)
        self.samples: list[float] = []

    def __call__(self) -> float:
        t0 = perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        for _ in range(PROBE_PASSES):
            np.multiply(self._a, 1.5, out=self._b)
            np.add(self._a, self._b, out=self._b)
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


@dataclass
class Measurement:
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    units: int = 0
    scaled_seconds: float = 0.0  # all operations, at the reference host speed
    raw_seconds: float = 0.0  # wall seconds of successful operations, unscaled
    cpu_seconds: float = 0.0  # process and child CPU seconds of all operations
    latencies: list[float] = field(default_factory=list)  # scaled seconds
    round_rates: list[float] = field(default_factory=list)  # units per scaled second
    digests: list[str] = field(default_factory=list)  # first round, per operation
    problems: list[str] = field(default_factory=list)

    @property
    def work_per_s(self) -> float:
        """Median over rounds, so one round caught by a host slowdown does not set it."""
        return statistics.median(self.round_rates) if self.round_rates else 0.0


def clear_caches() -> None:
    """Empty every lru_cache the package's modules bind."""
    for module in tracing.package_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _cpu_seconds() -> float:
    own, children = (resource.getrusage(who) for who in
                     (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def measure(ops, seconds: float, scratch: Path, probe: HostProbe, tracer=None) -> Measurement:
    """Run whole rounds of `ops` until they took `seconds` at reference speed.

    Counting scaled rather than wall seconds keeps the number of rounds,
    and so the tail percentile, independent of the host's speed.  At least
    one round runs, and none starts after WALL_CAP times `seconds` of wall
    time, which only operations that fail at once can reach.  An operation
    fails when it raises, when its check reports a mismatch, or when its
    output bytes differ from the first round's.  Failed operations add no
    work and no latency.
    """
    from workloads import output_bytes
    out = scratch / "op.out"
    m = Measurement()
    pending: list[tuple[float, int | None]] = []  # (raw seconds, units or None if failed)
    last_probe = probe()
    last_probe_at = perf_counter()
    round_units = round_seconds = 0.0

    def flush() -> None:
        nonlocal last_probe, last_probe_at, round_units, round_seconds
        current = probe()
        scale = PROBE_REF_S / ((last_probe + current) / 2)
        last_probe, last_probe_at = current, perf_counter()
        for raw, units in pending:
            m.scaled_seconds += raw * scale
            if units is not None:
                m.latencies.append(raw * scale)
                round_units += units
                round_seconds += raw * scale
        pending.clear()

    start = perf_counter()
    while m.rounds == 0 or (m.scaled_seconds < seconds
                            and perf_counter() - start < WALL_CAP * seconds):
        clear_caches()
        round_units = round_seconds = 0.0
        for index, op in enumerate(ops):
            m.attempted += 1
            if tracer is not None:
                tracer.active = True
            cpu0 = _cpu_seconds()
            t0 = perf_counter()
            try:
                result = op.run(out)
            except Exception as exc:  # a failing operation is counted, not fatal
                problems = [f"{type(exc).__name__}: {exc}"]
            else:
                problems = None
            finally:
                elapsed = perf_counter() - t0
                m.cpu_seconds += _cpu_seconds() - cpu0
                if tracer is not None:
                    tracer.active = False
            if problems is None:
                try:
                    problems = op.check(result)
                except Exception as exc:  # a check that cannot parse the output
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                digest = hashlib.sha256(output_bytes(result)).hexdigest()
                if m.rounds == 0:
                    m.digests.append(digest)
                elif digest != m.digests[index]:
                    problems.append("output bytes differ from the first round")
            elif m.rounds == 0:
                m.digests.append("")
            if problems:
                m.failed += 1
                m.problems.extend(f"{op.name}: {p}" for p in problems[:3])
                pending.append((elapsed, None))
            else:
                m.units += op.units
                m.raw_seconds += elapsed
                pending.append((elapsed, op.units))
            if perf_counter() - last_probe_at >= PROBE_EVERY_S:
                flush()
        flush()
        if round_seconds:
            m.round_rates.append(round_units / round_seconds)
        m.rounds += 1
    return m


def end_to_end(m: Measurement, setup_s: float) -> dict[str, float]:
    ordered = sorted(m.latencies) or [0.0]
    return {
        "setup_s": setup_s,
        "work_per_s": m.work_per_s,
        "op_p50_s": percentile(ordered, 50.0),
        "op_tail_s": percentile(ordered, tail_percentile(len(m.latencies))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, m: Measurement, untraced_wps: float) -> dict[str, float]:
    """Per-round layer metrics of a traced measurement; span times are unscaled."""
    values = dict.fromkeys(tracing.per_layer_units(), 0.0)
    for name, row in tracing.layer_times(tracer.spans).items():
        for key, value in row.items():
            values[f"{name}.{key}"] = value / m.rounds
    for key, value in tracer.counts.items():
        values[key] = value / m.rounds
    for ratio, (num, den) in tracing.RATIOS.items():
        values[ratio] = values[num] / values[den] if values[den] else 0.0
    values["proc.cpu_s"] = m.cpu_seconds / m.rounds
    covered = tracing.top_level_seconds(tracer.spans)
    values["trace.untraced_share"] = 1.0 - covered / m.raw_seconds if m.raw_seconds else 0.0
    values["trace.traced_over_untraced_wps"] = (m.work_per_s / untraced_wps
                                                if untraced_wps else 0.0)
    return values


# ------------------------------------------------------------ setup and environment

def setup_seconds(workload: str, seed: int, probe: HostProbe) -> float:
    """Median scaled time from spawning this script to its inputs being built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    before = probe()
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up process exited with code {code}")
        after = probe()
        times.append(elapsed * PROBE_REF_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


def _llc_bytes():
    """Size of the highest cache level of cpu0, as sysfs reports it."""
    best = (0, None)
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        best = max(best, (level, value))
    return best[1]


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import boolsurf
    import workloads
    try:
        mpmath_version = version("mpmath")
    except PackageNotFoundError:
        mpmath_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath_version,
        "boolsurf": boolsurf.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "workers": workloads.WORKERS[workload],
        "bytes_note": "core.walsh_hadamard.bytes and core.TruthTable.profile.bytes are "
                      "computed from array sizes, not measured",
    }


# ------------------------------------------------------------ main

def _import_package() -> None:
    if not (SRC / "boolsurf" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no boolsurf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import boolsurf
    if Path(boolsurf.__file__).resolve().parent != SRC / "boolsurf":
        raise SystemExit(f"run.py: imported boolsurf from {boolsurf.__file__}, not {SRC}")


def _parse_args(argv):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.BUILDERS, "all"], required=True,
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_workload(args) -> int:
    import warnings

    import workloads
    warnings.simplefilter("ignore", UserWarning)  # restrict's rate-guideline notice
    ops = workloads.build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    scratch = SCRATCH / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    probe = HostProbe()
    try:
        if args.trace:
            untraced = measure(ops, args.seconds / 2, scratch, probe)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(ops, args.seconds / 2, scratch, probe, tracer)
            finally:
                tracer.restore()
            runs = [untraced, traced]
            metrics = per_layer(tracer, traced, untraced.work_per_s)
            units = tracing.per_layer_units()
            extra = {"bindings": dict(tracer.bindings), "missing_targets": tracer.missing}
        else:
            setup_s = setup_seconds(args.workload, args.seed, probe)
            runs = [measure(ops, args.seconds, scratch, probe)]
            metrics = end_to_end(runs[0], setup_s)
            units = END_TO_END
            extra = {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    first = runs[0]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.workload, args.seed),
        "unit_of_work": UNIT_NAMES[args.workload],
        "rounds": [r.rounds for r in runs],
        "work_per_round": {"operations": len(ops), "units": sum(op.units for op in ops)},
        "operations": len(first.latencies),
        "tail_percentile": tail_percentile(len(first.latencies)),
        "failed_frac": failed / attempted,
        "raw_work_per_s": first.units / first.raw_seconds if first.raw_seconds else 0.0,
        "host_probe": {"reference_s": PROBE_REF_S, "samples": len(probe.samples),
                       "median_s": statistics.median(probe.samples)},
        "round_digest": hashlib.sha256("".join(first.digests).encode()).hexdigest(),
        "op_digests": [[op.name, d] for op, d in zip(ops, first.digests)],
        "problems": [p for r in runs for p in r.problems][:20],
        **extra,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and all(r.digests == first.digests for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one summary line each, then a combined result."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.BUILDERS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        *_, report_line, result_line = proc.stdout.splitlines()
        report, result = json.loads(report_line)["report"], json.loads(result_line)
        shown = {name: m["value"] for name, m in result["metrics"].items()
                 if m["value"] or not args.trace}  # traced runs: skip idle layers
        shown["failed_frac"] = report["failed_frac"]
        print(f"{workload} ({report['unit_of_work']}): "
              + " ".join(f"{name}={value:.6g}" for name, value in shown.items()))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{name}": m
                                    for name, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    _import_package()
    args = _parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
