"""Smoke test of the benchmark itself (not part of tier-1).

Run with ``python3 -m pytest perfbench -q`` from the repository root.  A
``--quick`` pass of every workload — one set-up, one pass — must emit
every declared metric, fail nothing and cover its jobs with spans; and a
corrupted oracle must be counted as a failure, or the correctness gate
gates nothing.
"""

import json
import os

import pytest

from perfbench.hygiene import ROOT, prepare_environment

prepare_environment()  # before anything below imports ``repro``

from perfbench import compare, spec  # noqa: E402
from perfbench.runner import MIN_COVERAGE, run_workload  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_end_to_end_metrics(name):
    result = run_workload(name, SEED, seconds=0.0, trace=0, quick=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 6
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    # Only check_verdicts simulates nothing.
    assert (result["oracle_sim_cycles"] > 0) == (name != spec.CHECK_VERDICTS)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_per_layer_metrics(name):
    result = run_workload(name, SEED, seconds=0.0, trace=1, quick=True)
    assert result["correct"] and result["failed"] == 0
    assert result["probe_errors"] == []
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(values) == set(spec.PER_LAYER_NAMES)
    assert values["bench.span_coverage"] >= MIN_COVERAGE
    for metric in spec.PER_LAYER:
        if name in metric.on and not metric.zero_ok:
            assert values[metric.name] > 0, metric.name
    if name == spec.SIM_UNIFIED:
        # The bypass workload really bypasses: no DMA, no software cache
        # and no code upload on unified-memory targets, and no compiling.
        for flat in ("machine.dma_ops", "machine.dma_bytes",
                     "runtime.softcache_probes", "sched.uploads",
                     "lang.parse_s", "analysis.run_s", "farm.batch_wall_s"):
            assert values[flat] == 0, flat
    with open(os.path.join(ROOT, "perfbench", result["trace_file"])) as fh:
        events = json.load(fh)["traceEvents"]
    assert sum(1 for e in events if e["ph"] == "X") == result["spans"]


def test_corrupted_oracle_is_a_failure():
    workload = WORKLOADS[spec.SIM_DISTRIBUTED](SEED, quick=True)
    workload.setup()
    try:
        assert workload.measured_pass([]) == (len(workload.jobs), 0)
        report = json.loads(workload.oracle[0])
        report["simulated_cycles"] += 1
        workload.oracle[0] = json.dumps(
            report, sort_keys=True, separators=(",", ":"))
        assert workload.measured_pass([]) == (len(workload.jobs), 1)
    finally:
        workload.close()


def test_wrong_verdict_is_a_failure():
    workload = WORKLOADS[spec.CHECK_VERDICTS](SEED, quick=True)
    workload.setup()
    workload.expected["dma-overrun"]["cell"] = []
    failed = sum(
        workload.measured_pass([])[1] for _ in range(workload.slices))
    assert failed == 1


def test_benchmark_json_matches_declaration(capsys):
    assert compare.validate(None) == 0
    assert "0 problem(s)" in capsys.readouterr().out
