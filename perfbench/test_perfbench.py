"""Unit tests of the benchmark's own arithmetic and metric tables.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
They need no ``repro`` import and finish in well under a second.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import ledger
import run
from probe import REFERENCE_NS, SIZE, HostProbe
from stats import MIN_BEYOND, cost_growth, percentile
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_nested_span_tree():
    # In call order: 0 [0, 100) has children 1 [10, 40) and 3 [50, 90);
    # 1 has child 2 [15, 25).
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    own = ledger.self_times(start, end, parent)
    assert own == [100 - 30 - 40, 30 - 10, 10, 40]
    assert sum(own) == 100  # self times partition the root's wall time


def test_recorded_spans_nest_and_attribute_operations():
    recorder = ledger.SpanRecorder()

    class Toy:
        def inner(self, fail):
            if fail:
                raise KeyError("x")
            return 1

        def execute_outcome(self, fail=False):
            try:
                return self.inner(fail)
            except KeyError:
                return 0

    Toy.inner = ledger._wrap(recorder, Toy.inner, "inner", "Toy.inner")
    Toy.execute_outcome = ledger._wrap(recorder, Toy.execute_outcome, "op", ledger.OP_FUNCTION)
    toy = Toy()
    toy.execute_outcome()
    toy.execute_outcome(fail=True)
    assert list(recorder.parent) == [-1, 0, -1, 2]
    assert list(recorder.op) == [0, 0, 1, 1]
    assert list(recorder.raised) == [0, 0, 0, 1]
    own = ledger.self_times(recorder.start, recorder.end, recorder.parent)
    totals = ledger.raw_totals(recorder, own, wall_ns=1)
    assert totals["ops"] == 2
    assert totals["calls.inner"] == 2 and totals["raised.Toy.inner"] == 1
    spans = sum(e - s for e, s, p in zip(recorder.end, recorder.start, recorder.parent) if p < 0)
    assert totals["self_ns.op"] + totals["self_ns.inner"] == spans


def test_percentile_reports_rank_and_sample_count():
    samples = list(range(1, 1001))  # 1..1000
    p50 = percentile(samples, 50)
    assert (p50.q, p50.value, p50.n) == (50, 500, 1000)
    p99 = percentile(samples, 99)
    assert p99.value == 990 and p99.n == 1000
    assert sum(s > p99.value for s in samples) >= MIN_BEYOND


def test_percentile_falls_back_to_highest_with_ten_beyond():
    samples = list(range(1, 201))  # p99 would leave only 2 samples beyond
    p99 = percentile(samples, 99)
    assert p99.value == 190 and p99.q == pytest.approx(95.0) and p99.n == 200
    assert sum(s > p99.value for s in samples) == MIN_BEYOND
    with pytest.raises(ValueError):
        percentile(list(range(MIN_BEYOND)), 50)


def test_cost_growth_on_rising_series():
    assert cost_growth([5.0] * 50) == 1.0
    rising = [float(i) for i in range(1, 101)]  # first tenth 1..10, last 91..100
    assert cost_growth(rising) == pytest.approx(95.5 / 5.5)
    with pytest.raises(ValueError):
        cost_growth([1.0] * 9)


def test_probe_scale_footprint_and_chase():
    probe = HostProbe()
    assert probe.footprint_bytes == 4 * SIZE
    ends = set()
    for _ in range(50):
        probe.sample()
        ends.add(probe._at)
    assert len(ends) == 50  # the chase does not fall into a short cycle
    probe.samples = type(probe.samples)("q", [REFERENCE_NS, 2 * REFERENCE_NS, 4 * REFERENCE_NS])
    assert probe.scale() == 0.5  # a host twice as slow halves every wall time


def _timed_run(seed: int, scale: float) -> dict:
    return {
        "seed": seed,
        "counts": {"attempted": 120, "succeeded": 90, "degraded": 10},
        "commits": 30,
        "aborts": 10,
        "messages": 600,
        "sim_latencies": [4.0] * 100,
        "wall_s": 2.0,
        "setup_s": 0.4,
        "rss_mb": 66.0,
        "op_wall": {"p50_us": 1000.0, "p99_us": 5000.0, "p99_q": 99, "n": 120, "growth": 2.0},
        "probe": {"scale": scale, "samples": 30, "footprint_mb": 16.0},
    }


def test_end_to_end_brings_wall_times_to_reference_speed():
    metrics, notes = run.end_to_end([_timed_run(1, 0.5), _timed_run(1, 0.5), _timed_run(2, 0.5)])
    assert metrics["op_wall_us_p50"] == 500.0 and metrics["op_wall_us_p99"] == 2500.0
    assert metrics["ops_per_wall_s"] == 100 / (2.0 * 0.5)
    assert metrics["setup_s"] == 0.2
    assert metrics["peak_rss_mb"] == 50.0
    assert metrics["op_cost_growth"] == 2.0  # a ratio of two times in one run: not scaled
    assert metrics["messages_per_commit"] == 20.0 and metrics["txn_abort_ratio"] == 0.25
    assert "unscaled: ops_per_wall_s 50, op_wall_us_p50 1000" in notes[-1]


def test_combine_sums_and_keeps_max():
    merged = ledger.combine([{"ops": 2, "log_entries_max": 7}, {"ops": 3, "log_entries_max": 5}])
    assert merged == {"ops": 5, "log_entries_max": 7}


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == ledger.PER_LAYER
    for workload in BENCHMARK["workloads"]:
        assert WORKLOADS[workload["name"]].why == workload["why"]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["per_layer"]:
        pairs = ledger.moves(metric["name"])
        assert pairs, metric["name"]
        for e2e, workload, prediction in pairs:
            assert e2e in end_to_end and workload in WORKLOADS
            assert prediction in ("moves", "flat")
