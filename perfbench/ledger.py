"""Outside-in per-layer ledger: spans around calls into ``repro`` modules.

The traced run replaces the public methods listed in :data:`LAYERS` with
wrappers that record one span per call: function, start, end, parent
span, whether it raised, and the operation it ran under (the index of
the enclosing or most recent ``FrontEnd.execute_outcome`` call).  Spans
live in flat arrays until the run ends.  A span's self time is its
duration minus the time its child spans cover; summing self time by
layer splits the traced wall time across layers without double
counting nested calls.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Iterable, Sequence

from stats import cost_growth

#: layer → the (module, class, methods) it times.
LAYERS: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
    "replication.log": (
        ("repro.replication.log", "Log", ("extended", "merge", "add")),
    ),
    "replication.viewcache": (
        ("repro.replication.viewcache", "QuorumViewCache", ("merged_view", "note_write")),
    ),
    "replication.repository": (
        (
            "repro.replication.repository",
            "Repository",
            ("read_log", "write_log", "read_snapshot", "log_version"),
        ),
    ),
    "sim.network": (("repro.sim.network", "Network", ("gather",)),),
    "sim.kernel": (("repro.sim.kernel", "Simulator", ("run", "drain")),),
    "cc": tuple(
        (module, cls, ("choose_event", "pre_commit", "on_finalize"))
        for module, cls in (
            ("repro.cc.hybrid", "HybridCC"),
            ("repro.cc.locking", "DynamicLockingCC"),
            ("repro.cc.static_ts", "StaticTimestampCC"),
        )
    ),
    "replication.view": (
        ("repro.replication.view", "View", ("commit_order_serial", "begin_order_split")),
    ),
    "replication.serialcache": (
        ("repro.replication.serialcache", "SerialPrefixCache", ("committed_node",)),
    ),
    "txn.manager": (
        ("repro.txn.manager", "TransactionManager", ("begin", "commit", "abort")),
    ),
    "obs.trace": (("repro.obs.trace", "Tracer", ("start_span", "end_span", "event")),),
    "obs.audit": (
        ("repro.obs.audit", "Auditor", ("on_span_start", "on_span_end", "finish")),
    ),
    "resilience": (
        ("repro.replication.antientropy", "AntiEntropy", ("synchronize",)),
        ("repro.resilience.policy", "RetryPolicy", ("backoff",)),
    ),
    "sim.workload": (("repro.sim.workload", "WorkloadGenerator", ("run",)),),
    "replication.frontend": (
        ("repro.replication.frontend", "FrontEnd", ("execute_outcome",)),
    ),
}

#: The call that defines one operation: every per-op figure divides by it.
OP_FUNCTION = "FrontEnd.execute_outcome"
CC_CHOOSE = tuple(f"{cls}.choose_event" for _m, cls, _f in LAYERS["cc"])

# Per-layer metrics: name → (unit, better).
_SELF = ("us", "lower")
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"{layer}.self_us_per_op": _SELF for layer in LAYERS},
    "replication.log.calls_per_op": ("count", "lower"),
    "replication.log.cost_growth": ("ratio", "lower"),
    "replication.viewcache.hit_ratio": ("ratio", "higher"),
    "replication.viewcache.rebuild_ratio": ("ratio", "lower"),
    "replication.repository.log_entries_end": ("count", "lower"),
    "sim.network.gathers_per_op": ("count", "lower"),
    "sim.network.probes_per_gather": ("count", "lower"),
    "sim.network.sim_wait_per_op": ("sim_units", "lower"),
    "sim.kernel.events_per_op": ("count", "lower"),
    "cc.conflicts_per_op": ("count", "lower"),
    "replication.serialcache.hit_ratio": ("ratio", "higher"),
    "txn.manager.commit_us": ("us", "lower"),
    "txn.manager.useful_ratio": ("ratio", "higher"),
    "obs.trace.spans_per_op": ("count", "lower"),
    "obs.audit.finish_s": ("s", "lower"),
    "resilience.retries_per_op": ("count", "lower"),
    "resilience.antientropy_syncs": ("count", "lower"),
    "ledger.coverage": ("ratio", "higher"),
    "ledger.overhead": ("ratio", "lower"),
}

# Which end-to-end metric each per-layer metric should move, on which
# workload, written down before measuring.  "flat" predicts no change.
Q, H, R = "queue-longlog-hybrid", "hotkey-blocking", "readmostly-chaos-multiversion"
MOVES_LAYER: dict[str, tuple[tuple[str, str, str], ...]] = {
    "replication.log": (
        ("ops_per_wall_s", Q, "moves"),
        ("op_cost_growth", Q, "moves"),
        ("peak_rss_mb", Q, "moves"),
        ("ops_per_wall_s", H, "flat"),
    ),
    "replication.viewcache": (("op_wall_us_p50", Q, "moves"),),
    "replication.repository": (
        ("peak_rss_mb", Q, "moves"),
        ("op_cost_growth", Q, "moves"),
    ),
    "sim.kernel": (("op_wall_us_p50", Q, "moves"),),
    "cc": (
        ("ops_per_wall_s", H, "moves"),
        ("ops_per_wall_s", R, "moves"),
        ("op_fail_ratio", H, "moves"),
    ),
    "replication.view": (("ops_per_wall_s", H, "moves"),),
    "replication.serialcache": (("ops_per_wall_s", H, "moves"),),
    "txn.manager": (
        ("txn_abort_ratio", H, "moves"),
        ("ops_per_wall_s", R, "moves"),
    ),
    "obs.trace": tuple(("ops_per_wall_s", w, "moves") for w in (Q, H, R)),
    "obs.audit": tuple(("ops_per_wall_s", w, "moves") for w in (Q, H, R)),
    "resilience": (
        ("sim_op_latency_p99", R, "moves"),
        ("op_fail_ratio", R, "moves"),
        ("sim_op_latency_p99", Q, "flat"),
        ("op_fail_ratio", H, "flat"),
    ),
    "sim.workload": (("ops_per_wall_s", H, "moves"),),
    "replication.frontend": (("ops_per_wall_s", H, "moves"),),
    "ledger": tuple(("ops_per_wall_s", w, "moves") for w in (Q, H, R)),
}
#: Metric-level exceptions to the layer map.
MOVES_METRIC: dict[str, tuple[tuple[str, str, str], ...]] = {
    "sim.network.self_us_per_op": tuple(("op_wall_us_p50", w, "moves") for w in (Q, H, R)),
    **{
        f"sim.network.{count}": (
            ("messages_per_commit", R, "moves"),
            ("sim_op_latency_p99", R, "moves"),
        )
        for count in ("gathers_per_op", "probes_per_gather", "sim_wait_per_op")
    },
}


def moves(metric: str) -> tuple[tuple[str, str, str], ...]:
    """(end-to-end metric, workload, "moves" | "flat") pairs for ``metric``."""
    if metric in MOVES_METRIC:
        return MOVES_METRIC[metric]
    return MOVES_LAYER[metric.rpartition(".")[0]]


class SpanRecorder:
    """Spans of wrapped calls in flat arrays, nested by a call stack."""

    def __init__(self) -> None:
        self.functions: list[tuple[str, str]] = []  # id → (layer, Class.method)
        self.func = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.counters: Counter[str] = Counter()
        self.op_index = -1
        self.stack: list[int] = []  # indices of the open spans

    def function_id(self, layer: str, name: str) -> int:
        self.functions.append((layer, name))
        return len(self.functions) - 1


def self_times(
    start: Sequence[int], end: Sequence[int], parent: Sequence[int]
) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for index, up in enumerate(parent):
        if up >= 0:
            own[up] -= end[index] - start[index]
    return own


# -- counters taken at the call boundary --------------------------------------


def _gather(counters: Counter, traced: Callable) -> Callable:
    def gather(network, *args, **kwargs):
        sim_before = network.sim.now
        result = traced(network, *args, **kwargs)
        counters["probes"] += len(result.attempted)
        counters["sim_wait"] += network.sim.now - sim_before
        return result

    return gather


def _run(counters: Counter, traced: Callable) -> Callable:
    def run(*args, **kwargs):
        events = traced(*args, **kwargs)
        counters["events"] += events
        return events

    return run


#: Class.method → counter taken around the span (outside its timing).
_HOOKS: dict[str, Callable[[Counter, Callable], Callable]] = {
    "Network.gather": _gather,
    "Simulator.run": _run,
}


def _wrap(recorder: SpanRecorder, fn: Callable, layer: str, name: str) -> Callable:
    """``fn`` recording one span per call into ``recorder``."""
    func_id = recorder.function_id(layer, name)
    func, parent, op = recorder.func, recorder.parent, recorder.op
    start, end, raised = recorder.start, recorder.end, recorder.raised
    stack = recorder.stack

    def traced(*args, **kwargs):
        index = len(func)
        func.append(func_id)
        parent.append(stack[-1] if stack else -1)
        op.append(recorder.op_index)
        end.append(0)
        raised.append(1)
        stack.append(index)
        start.append(perf_counter_ns())
        try:
            result = fn(*args, **kwargs)
        finally:
            end[index] = perf_counter_ns()
            stack.pop()
        raised[index] = 0
        return result

    wrapper = traced
    if name in _HOOKS:
        wrapper = _HOOKS[name](recorder.counters, traced)
    elif name == OP_FUNCTION:

        def wrapper(*args, **kwargs):
            recorder.op_index += 1
            return traced(*args, **kwargs)

    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap every method in :data:`LAYERS` (once per process)."""
    for layer, targets in LAYERS.items():
        for module, cls_name, methods in targets:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                fn = getattr(cls, method)
                setattr(cls, method, _wrap(recorder, fn, layer, f"{cls_name}.{method}"))


# -- per-run aggregates and the metrics derived from them ----------------------


def raw_totals(recorder: SpanRecorder, own: Sequence[int], wall_ns: int) -> dict[str, float]:
    """Additive per-run totals from the recorded spans and their self times.

    Keys: ``ops``, ``wall_ns``, ``spans``, ``self_ns.<layer>``,
    ``calls.<fn>``, ``raised.<fn>``, ``dur_ns.<fn>``, and the boundary
    counters.  Totals from several runs combine by :func:`combine`.
    """
    functions = recorder.functions
    totals: Counter[str] = Counter(recorder.counters)
    for index, func_id in enumerate(recorder.func):
        layer, name = functions[func_id]
        totals[f"self_ns.{layer}"] += own[index]
        totals[f"calls.{layer}"] += 1
        totals[f"calls.{name}"] += 1
        totals[f"dur_ns.{name}"] += recorder.end[index] - recorder.start[index]
        totals[f"raised.{name}"] += recorder.raised[index]
    totals["ops"] = totals[f"calls.{OP_FUNCTION}"]
    totals["wall_ns"] = wall_ns
    totals["spans"] = len(recorder.func)
    return dict(totals)


def log_cost_growth(recorder: SpanRecorder, own: Sequence[int]) -> float:
    """``replication.log`` self time per op: last tenth over first tenth."""
    ops = recorder.op_index + 1
    per_op = [0] * ops
    log_ids = {i for i, (layer, _n) in enumerate(recorder.functions) if layer == "replication.log"}
    for index, func_id in enumerate(recorder.func):
        op = recorder.op[index]
        if func_id in log_ids and op >= 0:
            per_op[op] += own[index]
    return cost_growth(per_op)


def combine(runs: Iterable[dict[str, float]]) -> Counter[str]:
    """Sum per-run totals; ``*_max`` keys keep the largest."""
    out: Counter[str] = Counter()
    for run in runs:
        for key, value in run.items():
            if key.endswith("_max"):
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    totals: dict[str, float],
    *,
    runs: int,
    log_growths: Sequence[float],
    untraced_wall_ns: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from combined traced-run totals."""
    t = Counter(totals)
    ops = t["ops"]
    out = {
        f"{layer}.self_us_per_op": t[f"self_ns.{layer}"] / ops / 1e3 for layer in LAYERS
    }
    cache_total = t["viewcache.hits"] + t["viewcache.delta_merges"] + t["viewcache.rebuilds"]
    serial_total = (
        t["serialcache.hits"] + t["serialcache.delta_folds"] + t["serialcache.rebuilds"]
    )
    out.update(
        {
            "replication.log.calls_per_op": t["calls.replication.log"] / ops,
            "replication.log.cost_growth": statistics.median(log_growths),
            "replication.viewcache.hit_ratio": _ratio(t["viewcache.hits"], cache_total),
            "replication.viewcache.rebuild_ratio": _ratio(t["viewcache.rebuilds"], cache_total),
            "replication.repository.log_entries_end": t["log_entries_max"],
            "sim.network.gathers_per_op": t["calls.Network.gather"] / ops,
            "sim.network.probes_per_gather": _ratio(t["probes"], t["calls.Network.gather"]),
            "sim.network.sim_wait_per_op": t["sim_wait"] / ops,
            "sim.kernel.events_per_op": t["events"] / ops,
            "cc.conflicts_per_op": sum(t[f"raised.{name}"] for name in CC_CHOOSE) / ops,
            "replication.serialcache.hit_ratio": _ratio(t["serialcache.hits"], serial_total),
            "txn.manager.commit_us": _ratio(
                t["dur_ns.TransactionManager.commit"], t["calls.TransactionManager.commit"]
            )
            / 1e3,
            "txn.manager.useful_ratio": _ratio(
                t["calls.TransactionManager.commit"] - t["raised.TransactionManager.commit"],
                t["calls.TransactionManager.begin"],
            ),
            "obs.trace.spans_per_op": t["calls.Tracer.start_span"] / ops,
            "obs.audit.finish_s": t["dur_ns.Auditor.finish"] / runs / 1e9,
            "resilience.retries_per_op": t["calls.RetryPolicy.backoff"] / ops,
            "resilience.antientropy_syncs": t["calls.AntiEntropy.synchronize"] / runs,
            "ledger.coverage": sum(t[f"self_ns.{layer}"] for layer in LAYERS) / t["wall_ns"],
            "ledger.overhead": t["wall_ns"] / untraced_wall_ns - 1,
        }
    )
    return out
