"""Runs one workload: the untraced measurement or the traced ledger.

The untraced run is what gates: set-up (timed, repeated, median
reported), a garbage collection, then whole passes through the real
one-call paths until ``--seconds`` have gone by.  The traced run re-enacts
the same jobs under spans, runs the direct probes, and reports per-layer
metrics only; the ratio of the two runs' time per pass is the tracing
overhead.

Timings are taken from the *quiet* passes: the fastest third.  Every pass
does the same work, and on a shared host interference only ever adds
time — the measuring host shows bursts of +20 to +40 % lasting seconds —
so the fast passes are the ones that measured the program and the slow
ones mostly measured the neighbours.  Failures are counted over every
pass.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time

from perfbench import spec
from perfbench.hygiene import OUT_DIR, environment_record
from perfbench.ledger import Ledger
from perfbench.tracing import SpanRecorder
from perfbench.workloads import WORKLOADS, derive

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Passes are ranked by duration and the fastest one in this many kept.
QUIET_ONE_IN = 3

#: Fewest measured jobs: the quiet third then holds 120 samples or more,
#: so that ten or more lie beyond the 90th percentile.
MIN_JOBS = 120 * QUIET_ONE_IN

#: The spans of a re-enacted job must account for this share of its wall
#: time, or the ledger does not describe the job.
MIN_COVERAGE = 0.9

#: Share of ``--seconds`` the traced run spends on pairs of passes, one
#: untraced and one traced; the direct probes take the rest.
TRACED_SHARE = 0.6


def peak_rss_mb(children: bool) -> float:
    """Peak resident set in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def _passes(run_pass, seconds: float, min_jobs: int,
            slices: int = 1) -> tuple[int, int, float]:
    """Whole passes (``slices`` calls each) until ``seconds`` have
    elapsed and ``min_jobs`` jobs ran; every job kind is measured equally
    often.  Returns (attempted, failed, window seconds)."""
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        for _ in range(slices):
            ran, bad = run_pass()
            attempted += ran
            failed += bad
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and attempted >= min_jobs:
            return attempted, failed, elapsed


def quiet(passes: list, slices: int = 1) -> list:
    """The fastest one in :data:`QUIET_ONE_IN` of ``passes``, each a
    tuple that starts with its duration.  With ``slices`` > 1 the list
    cycles through the slices of a pass; each slice is ranked among its
    own repeats, so the kept set still holds every job kind equally
    often."""
    kept = []
    for index in range(slices):
        repeats = sorted(passes[index::slices], key=lambda entry: entry[0])
        kept += repeats[:max(1, len(repeats) // QUIET_ONE_IN)]
    return kept


def run_untraced(name: str, seed: int, seconds: float,
                 quick: bool) -> dict:
    """End-to-end metrics of one workload."""
    setups = []
    workload = None
    for _ in range(1 if quick else SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = WORKLOADS[name](seed, quick)
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    passes: list[tuple[float, int, list[float]]] = []

    def timed_pass() -> tuple[int, int]:
        samples: list[float] = []
        started = time.perf_counter()
        ran, bad = workload.measured_pass(samples)
        passes.append((time.perf_counter() - started, ran, samples))
        return ran, bad

    try:
        gc.collect()
        attempted, failed, window = _passes(
            timed_pass, seconds, 1 if quick else MIN_JOBS, workload.slices
        )
    finally:
        workload.close()
    kept = quiet(passes, workload.slices)
    samples = [sample for _, _, taken in kept for sample in taken]
    values = {
        "setup_s": statistics.median(setups),
        "job_s_p50": statistics.median(samples),
        "job_s_p90": statistics.quantiles(samples, n=10)[-1],
        "jobs_per_s": sum(ran for _, ran, _ in kept)
        / sum(seconds for seconds, _, _ in kept),
        "peak_rss_mb": peak_rss_mb(workload.counts_children),
    }
    return {
        "workload": name,
        "trace": 0,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "passes": len(passes),
        "samples": len(samples),
        "window_s": window,
        "oracle_sim_cycles": workload.sim_cycles,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in spec.END_TO_END
        },
    }


def run_traced(name: str, seed: int, seconds: float, quick: bool) -> dict:
    """Per-layer metrics of one workload, and its span file."""
    workload = WORKLOADS[name](seed, quick)
    workload.setup()
    ledger = Ledger(list(spec.PER_LAYER_NAMES))
    spans = SpanRecorder()
    untraced: list[float] = []
    traced: list[float] = []

    def pass_pair() -> tuple[int, int]:
        """An untraced pass, then a traced one: taking turns, so the
        tracing overhead compares passes run under the same conditions."""
        started = time.perf_counter()
        for _ in range(workload.slices):
            workload.measured_pass([])
        untraced.append(time.perf_counter() - started)
        before = spans.total(workload.root_span)
        outcome = workload.traced_pass(spans, ledger, count=not traced)
        traced.append(spans.total(workload.root_span) - before)
        return outcome

    try:
        gc.collect()
        attempted, failed, traced_window = _passes(
            pass_pair, 0.0 if quick else seconds * TRACED_SHARE, 1
        )
        workload.probe(ledger)
    finally:
        workload.close()
    ledger.harvest(spans)
    derive(ledger)
    coverage = spans.coverage()
    ledger.set("bench.span_coverage", coverage)
    # Only the spans that re-enact what the untraced pass runs: probes
    # and the farm's worker-side re-enactment are extra work, not
    # overhead.
    ledger.set("bench.trace_overhead_ratio",
               statistics.median(traced) / statistics.median(untraced))
    ledger.time("bench.generator_s", workload.generator_seconds)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{name}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        handle.write(spans.chrome_trace_json())
    units = {m.name: m.unit for m in spec.PER_LAYER}
    return {
        "workload": name,
        "trace": 1,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and coverage >= MIN_COVERAGE,
        "passes": len(traced),
        "window_s": traced_window,
        "spans": len(spans.spans),
        "trace_file": os.path.relpath(trace_path, os.path.dirname(OUT_DIR)),
        "probe_errors": ledger.probe_errors,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in ledger.values().items()
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 quick: bool) -> dict:
    """One run, with the host record attached."""
    run = run_traced if trace else run_untraced
    result = run(name, seed, seconds, quick)
    result["environment"] = environment_record(seed)
    return result


def contract_line(result: dict) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })
