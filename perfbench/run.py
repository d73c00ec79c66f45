"""Benchmark entry point: one audited workload, untraced or traced.

    python3 perfbench/run.py --workload queue-longlog-hybrid --seed 1 \\
        --seconds 20 --trace 0

Each run first deep-audits a shortened prefix of the workload at its own
seed and at the held-out seed, then repeats the full workload, each time
in a fresh process with an empty ``REPRO_CACHE_DIR``, until ``--seconds``
have passed.  ``--trace 0`` reports the end-to-end metrics, with wall
times brought to a reference host speed by the probe in ``probe.py``;
``--trace 1`` alternates untraced and traced runs and reports the
per-layer ledger.  The correctness gate runs before anything is
reported: a failing run prints ``"correct": false`` and exits 1.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import ledger
from stats import percentile
from workloads import DEFAULT_SEED, HELD_OUT_SEED, SUBSEEDS, WORKLOADS, subseed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Scratch space inside the checkout: per-run caches, spans, results.
SCRATCH = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "ops_per_wall_s": "1/s",
    "op_wall_us_p50": "us",
    "op_wall_us_p99": "us",
    "op_cost_growth": "ratio",
    "sim_op_latency_p50": "sim_units",
    "sim_op_latency_p99": "sim_units",
    "messages_per_commit": "count",
    "op_fail_ratio": "ratio",
    "txn_abort_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, spans_out: Path | None = None) -> dict:
    """Run one workload in a fresh process with an empty kernel cache."""
    cache = tempfile.mkdtemp(prefix="cache-", dir=SCRATCH)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_CACHE_DIR=cache)
    request = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "spans_out": str(spans_out) if spans_out else None,
    }
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(request)],
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} run of {workload} at seed {seed} exited "
                          f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["seed"] = seed
    result["mode"] = mode
    result["setup_s"] = result["first_monotonic"] - launched
    return result


def gate(result: dict) -> list[str]:
    """Correctness failures of one run (empty when it passed)."""
    where = f"{result['mode']} run at seed {result['seed']}"
    problems = []
    if result["violations"]:
        problems.append(f"{where}: {result['violations']} audit violation(s)")
    if not result["counts"]["accounted"]:
        problems.append(f"{where}: operations or transactions unaccounted for")
    if not result["ok"]:
        problems.append(f"{where}: run_scenario verdict not ok")
    return problems


def deep_checks(workload: str, seed: int) -> tuple[list[dict], list[str], list[str]]:
    """Deep-audit the prefix at the run's seed and at a second, held-out seed."""
    other = HELD_OUT_SEED if seed != HELD_OUT_SEED else DEFAULT_SEED
    runs = [spawn(workload, subseed(s, 0), "deep") for s in (seed, other)]
    problems = [p for run in runs for p in gate(run)]
    if runs[0]["fingerprint"] == runs[1]["fingerprint"]:
        problems.append(f"seeds {seed} and {other} gave the same fingerprint")
    notes = [
        f"deep audit, {WORKLOADS[workload].deep_prefix} transactions: "
        + ", ".join(
            f"input seed {r['seed']} {'ok' if not gate(r) else 'FAILED'} "
            f"({r['violations']} violations)"
            for r in runs
        )
        + (", fingerprints differ" if runs[0]["fingerprint"] != runs[1]["fingerprint"] else "")
    ]
    return runs, problems, notes


def identity_checks(runs: list[dict]) -> list[str]:
    """Every run at one input seed, traced or not, has one fingerprint."""
    seen: dict[int, str] = {}
    problems = []
    for run in runs:
        first = seen.setdefault(run["seed"], run["fingerprint"])
        if run["fingerprint"] != first:
            problems.append(f"{run['mode']} run at seed {run['seed']} changed the fingerprint")
    return problems


def timed_runs(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Cycle the input seeds until ``seconds`` pass.

    Untraced: at least one run per input seed plus one repeat, so the
    fingerprint check always compares two runs.  Traced: untraced and
    traced runs of each input seed in pairs, at least one pair per seed.
    """
    modes = ("untraced", "traced") if traced else ("untraced",)
    minimum = SUBSEEDS * len(modes) + (0 if traced else 1)
    runs: list[dict] = []
    began = time.monotonic()
    index = 0
    while len(runs) < minimum or time.monotonic() - began < seconds:
        input_seed = subseed(seed, index % SUBSEEDS)
        for mode in modes:
            spans = None
            if mode == "traced" and index == 0:
                spans = SCRATCH / "spans" / f"{workload}-seed{seed}.csv"
                spans.parent.mkdir(exist_ok=True)
            runs.append(spawn(workload, input_seed, mode, spans))
        index += 1
    return runs


def end_to_end(runs: list[dict]) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics: timings are medians over runs, each run's wall
    times brought to the reference host speed by its probe (``probe.py``);
    counts pool the first run of each input seed, so they depend on
    ``--seed`` alone."""
    distinct = list({r["seed"]: r for r in reversed(runs)}.values())
    latencies = [x for r in distinct for x in r["sim_latencies"]]
    sim50, sim99 = percentile(latencies, 50), percentile(latencies, 99)
    attempted = sum(r["counts"]["attempted"] for r in distinct)
    served = sum(r["counts"]["succeeded"] + r["counts"]["degraded"] for r in distinct)
    commits = sum(r["commits"] for r in distinct)
    aborts = sum(r["aborts"] for r in distinct)
    median = statistics.median

    def timings(scaled: bool) -> dict[str, float]:
        def at(r: dict) -> float:
            return r["probe"]["scale"] if scaled else 1.0

        return {
            "ops_per_wall_s": median([
                (r["counts"]["succeeded"] + r["counts"]["degraded"]) / (r["wall_s"] * at(r))
                for r in runs
            ]),
            "op_wall_us_p50": median([r["op_wall"]["p50_us"] * at(r) for r in runs]),
            "op_wall_us_p99": median([r["op_wall"]["p99_us"] * at(r) for r in runs]),
            "setup_s": median([r["setup_s"] * at(r) for r in runs]),
        }

    scaled = timings(True)
    metrics = {
        "ops_per_wall_s": scaled["ops_per_wall_s"],
        "op_wall_us_p50": scaled["op_wall_us_p50"],
        "op_wall_us_p99": scaled["op_wall_us_p99"],
        "op_cost_growth": median([r["op_wall"]["growth"] for r in runs]),
        "sim_op_latency_p50": sim50.value,
        "sim_op_latency_p99": sim99.value,
        "messages_per_commit": sum(r["messages"] for r in distinct) / commits,
        "op_fail_ratio": (attempted - served) / attempted,
        "txn_abort_ratio": aborts / (commits + aborts),
        "setup_s": scaled["setup_s"],
        "peak_rss_mb": median([r["rss_mb"] - r["probe"]["footprint_mb"] for r in runs]),
    }
    op_q = min(r["op_wall"]["p99_q"] for r in runs)
    scales = [r["probe"]["scale"] for r in runs]
    notes = [
        f"op_wall_us_*: median over {len(runs)} runs of per-run percentiles, "
        f"{min(r['op_wall']['n'] for r in runs)}-{max(r['op_wall']['n'] for r in runs)} "
        f"operations per run, p99 reported at p{op_q:g}",
        f"sim_op_latency_*: {sim50.n} operations from {len(distinct)} input seeds, "
        f"p99 reported at p{sim99.q:g}",
        f"counts: {attempted} operations, {commits} commits, {aborts} aborts "
        f"from {len(distinct)} input seeds",
        f"wall times at reference host speed: probe scale {min(scales):.3f}-{max(scales):.3f}, "
        f"median {median(scales):.3f}; unscaled: "
        + ", ".join(f"{name} {value:.6g}" for name, value in timings(False).items()),
    ]
    return metrics, notes


def per_layer(runs: list[dict]) -> tuple[dict[str, float], list[str]]:
    traced = [r for r in runs if r["mode"] == "traced"]
    untraced_wall = {r["seed"]: r["wall_s"] for r in runs if r["mode"] == "untraced"}
    totals = ledger.combine(r["ledger"] for r in traced)
    metrics = ledger.layer_metrics(
        totals,
        runs=len(traced),
        log_growths=[r["log_growth"] for r in traced],
        untraced_wall_ns=sum(untraced_wall[r["seed"]] for r in traced) * 1e9,
    )
    wall = totals["wall_ns"]
    rows = sorted(ledger.LAYERS, key=lambda layer: -totals[f"self_ns.{layer}"])
    notes = [f"traced runs: {len(traced)}, {totals['ops']:.0f} operations, "
             f"{totals['spans']:.0f} spans; layer self time per op and share of traced wall:"]
    notes += [
        f"  {layer:<24} {totals[f'self_ns.{layer}'] / totals['ops'] / 1e3:9.1f} us/op "
        f"{totals[f'self_ns.{layer}'] / wall:6.1%}"
        for layer in rows
    ]
    return metrics, notes


def report(metrics: dict[str, float], units: dict[str, str], traced: bool) -> list[str]:
    lines = []
    for name, value in metrics.items():
        line = f"  {name:<40} {value:14.6g} {units[name]}"
        if traced:
            line += "   should move: " + "; ".join(
                f"{e2e} on {w}" + (" (flat)" if kind == "flat" else "")
                for e2e, w, kind in ledger.moves(name)
            )
        lines.append(line)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    traced = bool(args.trace)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"inputs={[subseed(args.seed, i) for i in range(SUBSEEDS)]} "
          f"held-out seed={HELD_OUT_SEED} trace={args.trace}")
    print(f"python {platform.python_version()} cpus={os.cpu_count()} {platform.machine()}")

    deep_runs: list[dict] = []
    runs: list[dict] = []
    try:
        deep_runs, problems, notes = deep_checks(args.workload, args.seed)
        if not problems:
            runs = timed_runs(args.workload, args.seed, args.seconds, traced)
    except ChildFailed as failure:
        problems, notes = [str(failure)], []
    problems += [p for run in runs for p in gate(run)] + identity_checks(runs)
    for note in notes:
        print(note)
    # Every operation this invocation executed and checked; when any check
    # fails, the whole invocation's results are void and all count as failed.
    attempted = sum(r["counts"]["attempted"] for r in deep_runs + runs) or 1
    if problems:
        for problem in problems:
            print("FAIL:", problem)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        return 1

    print(f"{len(runs)} runs, every input seed's fingerprint identical across its runs"
          + (", traced equal to untraced" if traced else ""))
    if traced:
        metrics, notes = per_layer(runs)
        units = {name: unit for name, (unit, _better) in ledger.PER_LAYER.items()}
    else:
        metrics, notes = end_to_end(runs)
        units = END_TO_END
    for note in notes:
        print(note)
    for line in report(metrics, units, traced):
        print(line)
    results = SCRATCH / "results"
    results.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k != "sim_latencies"} for r in runs],
    }
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"PASS; details in {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
