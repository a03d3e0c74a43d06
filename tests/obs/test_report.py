"""Run-report determinism and regression detection.

The report layer's contract, at the *byte* level of the canonical
JSON (:func:`repro.obs.report.report_json`):

* the same program on the same target yields an identical report under
  the reference and codegen engines (modulo the ``engine`` identity
  field itself);
* repeat runs on fresh machines are byte-identical — no wall-clock,
  iteration-order or id leakage;
* target-independent fields (workload identity, schema, engine) agree
  across every registered target, while simulated quantities may
  legitimately differ.

On top of determinism, :func:`~repro.obs.report.diff_reports` must
catch an injected simulated-cycle regression (the CI negative test)
and stay silent on identical reports.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.compiler.driver import compile_program
from repro.game.sources import ai_kernel_source, figure2_source
from repro.machine.config import resolve_target, target_names
from repro.machine.machine import Machine
from repro.obs import MetricsHub, TraceRecorder
from repro.obs.report import (
    REPORT_KIND,
    REPORT_SCHEMA_VERSION,
    ReportError,
    collect_report,
    diff_reports,
    flatten_report,
    load_report,
    report_json,
    save_report,
    trend_rows,
    validate_report,
)
from repro.sched import SchedOptions
from repro.tools import report as report_tool
from repro.vm.interpreter import (
    DEFAULT_ENGINE,
    ENGINE_NAMES,
    RunOptions,
    run_program,
)

BASELINES = pathlib.Path(__file__).resolve().parents[2] / "baselines" / "reports"

WORKLOADS = {
    "figure2": figure2_source,
    "ai-kernel": lambda: ai_kernel_source(entity_count=8),
}


def make_report(workload: str, engine: str = DEFAULT_ENGINE,
                target: str = "cell", policy: str | None = "locality"):
    config = resolve_target(target)
    program = compile_program(WORKLOADS[workload](), config)
    machine = Machine(config)
    hub = MetricsHub()
    machine.attach_metrics(hub)
    sched = SchedOptions(policy=policy) if policy else None
    result = run_program(
        program, machine, RunOptions(engine=engine, sched=sched)
    )
    return collect_report(
        result, workload=workload, hub=hub, engine=engine, target=target
    )


class TestByteIdentity:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_identical_across_engines(self, workload):
        texts = {
            engine: report_json(make_report(workload, engine=engine))
            for engine in ENGINE_NAMES
        }
        reference = texts["reference"]
        for engine, text in texts.items():
            # Only the engine identity field may differ.
            expected = reference.replace(
                '"engine":"reference"', f'"engine":"{engine}"'
            )
            assert text == expected, (
                f"{workload}: {engine} report diverges from reference"
            )

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_identical_across_repeat_runs(self, workload):
        assert report_json(make_report(workload)) == report_json(
            make_report(workload)
        )

    def test_identical_in_compat_mode(self):
        first = report_json(make_report("figure2", policy=None))
        second = report_json(make_report("figure2", policy=None))
        assert first == second

    def test_target_independent_fields_agree_across_targets(self):
        reports = {
            target: make_report("figure2", target=target).as_dict()
            for target in target_names()
        }
        reference = next(iter(reports.values()))
        for target, report in reports.items():
            assert report["kind"] == REPORT_KIND
            assert report["schema_version"] == REPORT_SCHEMA_VERSION
            assert report["workload"] == reference["workload"]
            assert report["engine"] == reference["engine"]
            assert report["policy"] == reference["policy"]
            assert report["target"] == target
            assert report["simulated_cycles"] > 0

    def test_trace_recorder_does_not_change_simulated_fields(self):
        plain = make_report("figure2").as_dict()
        config = resolve_target("cell")
        program = compile_program(figure2_source(), config)
        machine = Machine(config)
        machine.attach_trace(TraceRecorder())
        hub = MetricsHub()
        machine.attach_metrics(hub)
        result = run_program(
            program, machine,
            RunOptions(sched=SchedOptions(policy="locality")),
        )
        traced = collect_report(
            result, workload="figure2", hub=hub, engine=DEFAULT_ENGINE,
            target="cell",
        ).as_dict()
        # Tracing adds the dropped-events gauge but must not perturb
        # any simulated quantity.
        assert traced["gauges"].pop("trace.dropped_events") == 0
        assert traced == plain


class TestValidation:
    def test_roundtrip_through_disk(self, tmp_path):
        report = make_report("figure2")
        path = tmp_path / "r.json"
        save_report(report, str(path))
        loaded = load_report(str(path))
        assert validate_report(loaded) == []
        assert loaded == report.as_dict()

    def test_rejects_wrong_kind_and_version(self):
        obj = make_report("figure2").as_dict()
        obj["kind"] = "something-else"
        obj["schema_version"] = 99
        problems = validate_report(obj)
        assert any("kind" in p for p in problems)
        assert any("schema_version" in p for p in problems)

    def test_rejects_missing_fields(self, tmp_path):
        obj = make_report("figure2").as_dict()
        del obj["counters"]
        assert any("counters" in p for p in validate_report(obj))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ReportError):
            load_report(str(path))

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ReportError):
            load_report(str(path))


class TestDiff:
    def test_identical_reports_diff_clean(self):
        a = make_report("figure2").as_dict()
        b = make_report("figure2").as_dict()
        assert diff_reports(a, b) == []

    def test_detects_injected_cycle_regression(self, tmp_path):
        a = make_report("figure2").as_dict()
        b = json.loads(json.dumps(a))
        b["simulated_cycles"] += 1000
        entries = diff_reports(a, b)
        assert [e.metric for e in entries] == ["simulated_cycles"]
        assert entries[0].pct is not None and entries[0].pct > 0
        # Through the CLI, against a committed baseline: the regression
        # flips ``report diff``'s exit code from clean to differences.
        baseline = BASELINES / "game-frame__cell.json"
        regressed = json.loads(baseline.read_text())
        regressed["simulated_cycles"] += 1000
        path = tmp_path / "regressed.json"
        path.write_text(json.dumps(regressed))
        assert report_tool.main(["diff", str(baseline), str(baseline)]) == 0
        assert report_tool.main(["diff", str(baseline), str(path)]) == 3

    def test_detects_counter_change(self):
        a = make_report("figure2").as_dict()
        b = json.loads(json.dumps(a))
        b["counters"]["dma.bytes_get"] += 64
        assert any(
            e.metric == "counters.dma.bytes_get" for e in diff_reports(a, b)
        )

    def test_wall_seconds_ignored_by_default(self):
        a = make_report("figure2").as_dict()
        b = json.loads(json.dumps(a))
        b["wall_seconds"] = 123.456
        assert diff_reports(a, b) == []
        assert diff_reports(a, b, ignore=()) != []

    def test_tolerance_suppresses_small_drift(self):
        a = make_report("figure2").as_dict()
        b = json.loads(json.dumps(a))
        b["simulated_cycles"] = int(a["simulated_cycles"] * 1.004)
        assert diff_reports(a, b, thresholds={"simulated_cycles": 1.0}) == []
        assert diff_reports(a, b) != []

    def test_longest_prefix_threshold_wins(self):
        a = make_report("figure2").as_dict()
        b = json.loads(json.dumps(a))
        b["counters"]["dma.bytes_get"] += 1
        thresholds = {"counters": 0.0, "counters.dma.bytes_get": "ignore"}
        assert diff_reports(a, b, thresholds=thresholds) == []

    def test_one_sided_metric_is_a_difference(self):
        a = make_report("figure2").as_dict()
        b = json.loads(json.dumps(a))
        del b["counters"]["dma.bytes_get"]
        entries = diff_reports(a, b)
        assert any(e.metric == "counters.dma.bytes_get" for e in entries)
        assert all(
            e.pct is None
            for e in entries
            if e.metric == "counters.dma.bytes_get"
        )

    def test_histogram_shift_detected(self):
        a = make_report("figure2").as_dict()
        b = json.loads(json.dumps(a))
        key = next(iter(b["histograms"]))
        b["histograms"][key]["p90"] *= 2
        assert any(
            e.metric == f"histograms.{key}.p90" for e in diff_reports(a, b)
        )


class TestTrend:
    def test_rows_carry_deltas(self):
        base = make_report("figure2").as_dict()
        drift = json.loads(json.dumps(base))
        drift["simulated_cycles"] = base["simulated_cycles"] * 2
        rows = trend_rows(
            [("a.json", base), ("b.json", drift), ("c.json", base)]
        )
        assert rows[0]["value"] == base["simulated_cycles"]
        assert "delta_pct" not in rows[0]
        assert rows[1]["delta_pct"] == 100.0
        assert rows[2]["delta_pct"] == -50.0

    def test_flatten_paths_are_stable(self):
        flat = flatten_report(make_report("figure2").as_dict())
        assert "simulated_cycles" in flat
        assert any(path.startswith("counters.") for path in flat)
        assert any(path.startswith("histograms.") for path in flat)
        assert "kind" not in flat and "schema_version" not in flat
