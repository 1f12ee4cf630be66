"""Per-layer spans around the public functions of the boolsurf modules.

The tracer wraps each target function in every namespace that binds it
(``restriction`` binds ``eval_on_cube`` imported from ``ptf``, ``cli``
binds ``sign_table`` and ``total_influence``, and so on), so a call is
recorded whichever module it comes through.  Spans stay in memory as
``[name, start, end, parent]`` lists and are reduced once, when the
traced phase ends.  Work counts are taken at the same boundaries from
the call's arguments and results.

The ``bytes`` counts of the Walsh-Hadamard transform and of the
sensitivity scan are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index]


def _wht_bytes(points: int) -> int:
    # float64 copy (read + write), then log2(N) stages that read and write every entry
    return 16 * points * (1 + max(points.bit_length() - 1, 0))


def _scan_bytes(n: int) -> int:
    # per axis: read the int8 values, read and write the uint8 counters; one bincount read
    return (3 * n + 1) << n


def _walsh(args, kwargs, result):
    return {"points": len(result), "bytes": _wht_bytes(len(result))}


def _profile_before(args, kwargs):
    table = args[0]
    if getattr(table, "_profile", None) is not None:
        return {}  # memoised on the table: no scan runs
    return {"points": 1 << table.n, "bytes": _scan_bytes(table.n)}


def _sign_table(args, kwargs, result):
    return {"zero_hits": int(result[1])}


def _restrict_poly(args, kwargs, result):
    return {"terms": len(_arg(args, kwargs, 0, "p").terms)}


def _alpha_estimate(args, kwargs, result):
    return {"trials": int(_arg(args, kwargs, 1, "trials"))}


def _alpha_exact(args, kwargs, result):
    return {"trials": 4 ** _arg(args, kwargs, 0, "p").n}  # every (A, B) pair


def _failure_prob(args, kwargs, result):
    return {"trials": result.trials, "accepted": result.trials - result.rejected}


def _jensen(args, kwargs, result):
    values = _arg(args, kwargs, 0, "values")
    return {"support": len(values) if hasattr(values, "__len__") else 0}


def _block_average(args, kwargs, result):
    sizes = _arg(args, kwargs, 0, "spec").sizes
    return {"blocks": len(sizes), "distinct_sizes": len(set(sizes))}


def _trials_at(index):
    def count(args, kwargs, result):
        return {"trials": int(_arg(args, kwargs, index, "trials"))}
    return count


def _mc_values(args, kwargs, result):
    from boolsurf.seeding import resolve_workers
    total = int(_arg(args, kwargs, 0, "total"))
    workers = resolve_workers(_arg(args, kwargs, 2, "workers"))
    return {"trials": total, "chunks": min(total, workers)}


# target -> (counts taken after the call, counts taken before it, count names)
TARGETS = {
    "core.walsh_hadamard": (_walsh, None, ("points", "bytes")),
    "core.TruthTable.profile": (None, _profile_before, ("points", "bytes")),
    "core.TruthTable.__init__": (None, None, ()),
    "core.total_influence": (None, None, ()),
    "core.noise_sensitivity": (None, None, ()),
    "ptf.sign_table": (_sign_table, None, ("zero_hits",)),
    "ptf.eval_on_cube": (None, None, ()),
    "ptf.restrict_poly": (_restrict_poly, None, ("terms",)),
    "ptf.alpha_estimate": (_alpha_estimate, None, ("trials",)),
    "ptf.alpha_exact": (_alpha_exact, None, ("trials",)),
    "ptf.generate": (None, None, ()),
    "restriction.restriction_failure_prob": (_failure_prob, None, ("trials", "accepted")),
    "restriction.tail_coupling_check": (None, None, ()),
    "restriction.sensitive_fraction_bound_exhaustive": (None, None, ()),
    "boundary.boundary_report": (None, None, ()),
    "boundary.edge_threshold_check_exhaustive": (None, None, ()),
    "partition.sandwich_check": (None, None, ()),
    "partition.gap_bound": (None, None, ()),
    "partition.jensen_bounds": (_jensen, None, ("support",)),
    "partition.block_average_B": (_block_average, None, ("blocks", "distinct_sizes")),
    "partition.mc_partition_average": (_trials_at(2), None, ("trials",)),
    "partition.bsa_block_bound": (_trials_at(2), None, ("trials",)),
    "seeding.mc_values": (_mc_values, None, ("trials", "chunks")),
    "seeding.substream": (None, None, ()),
    "cli.main": (None, None, ()),
    "cli.parse_function_spec": (None, None, ()),
}

# useful-outcome ratios: name -> (numerator count, denominator count)
RATIOS = {
    "restriction.restriction_failure_prob.accepted_ratio": (
        "restriction.restriction_failure_prob.accepted",
        "restriction.restriction_failure_prob.trials"),
    "partition.block_average_B.blocks_per_distinct": (
        "partition.block_average_B.blocks",
        "partition.block_average_B.distinct_sizes"),
}

# whole-run figures reported next to the layers
EXTRAS = {
    "proc.cpu_s": "s",
    "trace.untraced_share": "ratio",
    "trace.traced_over_untraced_wps": "ratio",
}

_COUNT_UNITS = {"bytes": "B"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for target, (_, _, counts) in TARGETS.items():
        units[f"{target}.calls"] = "count"
        units[f"{target}.busy_s"] = "s"
        units[f"{target}.self_s"] = "s"
        for count in counts:
            units[f"{target}.{count}"] = _COUNT_UNITS.get(count, "count")
    for ratio in RATIOS:
        units[ratio] = "ratio"
    units.update(EXTRAS)
    return units


def package_modules() -> list:
    """The loaded boolsurf package and its submodules."""
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "boolsurf" or name.startswith("boolsurf."))]


class Tracer:
    """Records spans while `active`; `install` patches, `restore` undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self.bindings: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, after=None, before=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            pre = before(args, kwargs) if before else None
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if pre:
                counts.update({f"{name}.{k}": v for k, v in pre.items()})
            if after:
                counts.update({f"{name}.{k}": v for k, v in after(args, kwargs, result).items()})
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in each boolsurf namespace that binds it."""
        modules = package_modules()
        for target, (after, before, _) in TARGETS.items():
            module_name, *path = target.split(".")
            owner = sys.modules.get(f"boolsurf.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.append(target)
                continue
            wrapper = self.wrap(target, original, after, before)
            if len(path) > 1:  # a method: the class is its only binding
                self._patch(target, owner, path[-1], original, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(target, module, attr, original, wrapper)

    def _patch(self, target, namespace, attr, original, wrapper) -> None:
        setattr(namespace, attr, wrapper)
        self._patches.append((namespace, attr, original))
        self.bindings[target] += 1

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()


def covered(interval, children) -> float:
    """Length of the part of `interval` that the `children` intervals cover."""
    start, end = interval
    total = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            reach = c_end
    return total


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    Busy time counts a span only when no enclosing span has the same
    name, so recursion is not counted twice.  Self time is a span's
    duration minus the part covered by its child spans.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - covered((start, end), children.get(index, ()))
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy_s"] += end - start
    return out


def top_level_seconds(spans) -> float:
    """Time covered by spans that have no traced parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
