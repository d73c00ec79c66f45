"""One benchmark run of one workload, in a fresh process.

Usage: ``python3 child.py '<json>'`` with keys ``workload``, ``seed``,
``mode`` (``untraced``, ``traced`` or ``deep``) and ``spans_out`` (a
path for the traced run's spans, or null).  Prints one JSON object.

``untraced`` times each ``FrontEnd.execute_outcome`` call and, between
calls, samples the host-speed probe (``probe.py``); ``traced`` records
the ledger's spans instead; ``deep`` runs the workload's shortened
prefix under the deep auditor, untimed.  Every mode runs the workload
through ``repro.scenarios.run_scenario`` exactly as it is, and reports
its correctness verdict and a fingerprint digest.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from array import array
from pathlib import Path

import ledger
from probe import EVERY, HostProbe
from stats import cost_growth, percentile
from workloads import WORKLOADS


def _digest(fingerprint: dict) -> str:
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_spans(recorder: ledger.SpanRecorder, own: list[int], path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("span,parent,op,layer,function,start_ns,end_ns,self_ns,raised\n")
        for index, func_id in enumerate(recorder.func):
            layer, name = recorder.functions[func_id]
            out.write(
                f"{index},{recorder.parent[index]},{recorder.op[index]},{layer},{name},"
                f"{recorder.start[index]},{recorder.end[index]},{own[index]},"
                f"{recorder.raised[index]}\n"
            )


def _cluster_state(cluster) -> dict[str, float]:
    """Cache hit counts and the largest per-object log, at the end of a run."""
    out: dict[str, float] = {}
    for frontend in cluster.frontends:
        for key, value in frontend.view_cache.stats().items():
            out[f"viewcache.{key}"] = out.get(f"viewcache.{key}", 0) + value
        for cache in frontend.serial_caches.values():
            for key, value in cache.stats().items():
                out[f"serialcache.{key}"] = out.get(f"serialcache.{key}", 0) + value
    out["log_entries_max"] = max(
        repo.entry_count(name)
        for repo in cluster.repositories
        for name in repo.stored_objects()
    )
    return out


def run(workload_name: str, seed: int, mode: str, spans_out: str | None) -> dict:
    root = Path(__file__).resolve().parent.parent
    import repro

    if Path(repro.__file__).resolve().parent != root / "src" / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, not this checkout")

    from repro.obs.audit import Auditor
    from repro.replication.frontend import FrontEnd
    from repro.scenarios import runner
    from repro.sim.workload import WorkloadGenerator

    workload = WORKLOADS[workload_name]
    recorder = None
    clusters = []
    if mode == "traced":
        recorder = ledger.SpanRecorder()
        ledger.install(recorder)
        build = runner.build_scenario

        def capturing_build(*args, **kwargs):
            built = build(*args, **kwargs)
            clusters.append(built[0])
            return built

        runner.build_scenario = capturing_build

    op_ns = array("q")
    probe = None
    if mode == "untraced":
        execute_outcome = FrontEnd.execute_outcome

        def timed_execute_outcome(*args, **kwargs):
            began = time.perf_counter_ns()
            try:
                return execute_outcome(*args, **kwargs)
            finally:
                op_ns.append(time.perf_counter_ns() - began)
                if len(op_ns) % EVERY == 0:
                    probe.sample()

        FrontEnd.execute_outcome = timed_execute_outcome

    # Measurement window: first transaction through Auditor.finish().
    marks: dict = {}
    generator_run = WorkloadGenerator.run
    finish = Auditor.finish

    def marked_run(self, total):
        nonlocal probe
        marks["first_monotonic"] = time.monotonic()
        if mode == "untraced":
            probe = HostProbe()  # built after set-up, before the window opens
        marks["first_ns"] = time.perf_counter_ns()
        marks["metrics"] = generator_run(self, total)
        return marks["metrics"]

    def marked_finish(self):
        report = finish(self)
        marks["end_ns"] = time.perf_counter_ns()
        return report

    WorkloadGenerator.run = marked_run
    Auditor.finish = marked_finish

    verdict = runner.run_scenario(
        workload.scenario,
        seed=seed,
        mechanism=workload.mechanism,
        profile=workload.profile,
        policy=workload.policy,
        rpc_mode="batched",
        transactions=workload.deep_prefix if mode == "deep" else workload.transactions,
        streaming=mode != "deep",
    )
    wall_ns = marks["end_ns"] - marks["first_ns"]
    if probe is not None:
        wall_ns -= sum(probe.samples)
    fingerprint = verdict["fingerprint"]
    latencies = [
        sample for samples in marks["metrics"].latencies.values() for sample in samples
    ]
    result = {
        "ok": verdict["ok"],
        "violations": verdict["violations"],
        "counts": verdict["counts"],
        "fingerprint": _digest(fingerprint),
        "commits": fingerprint["commits"],
        "aborts": fingerprint["aborts"],
        "messages": fingerprint["messages_sent"],
        "first_monotonic": marks["first_monotonic"],
        "wall_s": wall_ns / 1e9,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_latencies": latencies,
    }
    if mode == "untraced":
        p50, p99 = percentile(op_ns, 50), percentile(op_ns, 99)
        result["op_wall"] = {
            "p50_us": p50.value / 1e3,
            "p99_us": p99.value / 1e3,
            "p99_q": p99.q,
            "n": p99.n,
            "growth": cost_growth(op_ns),
        }
        result["probe"] = {
            "scale": probe.scale(),
            "samples": len(probe.samples),
            "footprint_mb": probe.footprint_bytes / 2**20,
        }
    if recorder is not None:
        own = ledger.self_times(recorder.start, recorder.end, recorder.parent)
        totals = ledger.raw_totals(recorder, own, wall_ns)
        totals.update(_cluster_state(clusters[0]))
        result["ledger"] = totals
        result["log_growth"] = ledger.log_cost_growth(recorder, own)
        if spans_out:
            _write_spans(recorder, own, spans_out)
    return result


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    print(
        json.dumps(
            run(request["workload"], request["seed"], request["mode"], request.get("spans_out"))
        )
    )
