"""Unit tests for the metrics layer: histograms, hub, instrumentation.

Covers the :class:`~repro.obs.metrics.Histogram` arithmetic (bucket
placement, exact extremes, percentile clamping), the hub/null-hub
recorder contract, the per-family registry, end-to-end instrumentation
on real workloads, and the docs-table sync (the same contract
``repro.analysis.diagnostics.CODES`` has with its docs table).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.compiler.driver import compile_program
from repro.game.sources import ai_kernel_source, figure2_source
from repro.machine.config import CELL_LIKE, resolve_target
from repro.machine.machine import Machine
from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    METRICS,
    NULL_METRICS,
    Histogram,
    MetricsHub,
    derived_metrics,
    metric_key,
)
from repro.sched import SchedOptions
from repro.vm.interpreter import RunOptions, run_program


class TestHistogram:
    def test_empty(self):
        h = Histogram("t")
        assert (h.count, h.total, h.min, h.max) == (0, 0, 0, 0)
        assert h.percentile(0.5) == 0

    def test_exact_extremes_survive_coarse_buckets(self):
        h = Histogram("t")
        for value in (3, 100, 7000):
            h.observe(value)
        assert h.min == 3
        assert h.max == 7000
        assert h.total == 7103
        assert h.count == 3

    def test_bucket_placement_is_inclusive_upper_bound(self):
        h = Histogram("t", bounds=(10, 20))
        h.observe(10)   # first bucket (<= 10)
        h.observe(11)   # second bucket
        h.observe(20)   # second bucket
        h.observe(21)   # overflow
        assert h.counts == [1, 2, 1]

    def test_percentile_returns_bucket_bound(self):
        h = Histogram("t", bounds=(10, 100, 1000))
        for _ in range(9):
            h.observe(5)
        h.observe(500)
        assert h.percentile(0.5) == 10
        assert h.percentile(0.9) == 10
        assert h.percentile(1.0) == 500  # clamped to true max

    def test_percentile_clamps_to_observed_max(self):
        h = Histogram("t", bounds=(1024,))
        h.observe(3)
        assert h.percentile(0.5) == 3  # not the 1024 bound

    def test_overflow_bucket_percentile_is_max(self):
        h = Histogram("t", bounds=(10,))
        h.observe(999)
        assert h.percentile(0.5) == 999

    @pytest.mark.parametrize("samples", [
        [], [5] * 9, [5] * 9 + [500], [10 ** 9] * 3, list(range(0, 5000, 7)),
        [2] * 50 + [3000] * 40 + [10 ** 9] * 10,
    ], ids=["empty", "one-bucket", "tail", "overflow", "spread", "heavy-tail"])
    def test_as_dict_percentiles_match_one_walk_each(self, samples):
        h = Histogram("t")
        for value in samples:
            h.observe(value)

        def walk(q):
            # One bucket walk per quantile: the ceil target, the bucket
            # bound clamped to the max, the max past the last bound.
            if not h.count:
                return 0
            target = max(1, -(-int(h.count * q * 1000) // 1000))
            seen = 0
            for index, bucket_count in enumerate(h.counts):
                seen += bucket_count
                if seen >= target:
                    if index >= len(h.bounds):
                        return h.max
                    return min(h.bounds[index], h.max)
            return h.max

        d = h.as_dict()
        assert (d["p50"], d["p90"]) == (walk(0.5), walk(0.9))
        for q in (0.001, 0.5, 0.9, 0.99, 1.0):
            assert h.percentile(q) == walk(q)

    def test_as_dict_omits_empty_buckets(self):
        h = Histogram("t", bounds=(10, 20, 30))
        h.observe(5)
        h.observe(25)
        d = h.as_dict()
        assert d["buckets"] == [[10, 1], [30, 1]]
        assert d["count"] == 2
        assert d["p50"] == 10

    def test_overflow_bucket_bound_is_minus_one(self):
        h = Histogram("t", bounds=(10,))
        h.observe(11)
        assert h.as_dict()["buckets"] == [[-1, 1]]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t", bounds=(10, 10))
        with pytest.raises(ValueError):
            Histogram("t", bounds=(20, 10))
        with pytest.raises(ValueError):
            Histogram("t", bounds=())

    def test_identical_observations_identical_state(self):
        a, b = Histogram("x"), Histogram("x")
        for value in (1, 17, 4096, 12, 1 << 22):
            a.observe(value)
            b.observe(value)
        assert a.as_dict() == b.as_dict()


class TestKeys:
    def test_metric_key_roundtrip(self):
        assert metric_key("dma.xfer_bytes", None) == "dma.xfer_bytes"
        key = metric_key("dma.xfer_bytes", "dma0")
        assert key == "dma.xfer_bytes[dma0]"


class TestHub:
    def test_null_hub_is_disabled(self):
        assert NULL_METRICS.enabled is False
        NULL_METRICS.observe("dma.xfer_bytes", None, 1)  # no-op, no raise
        NULL_METRICS.gauge_set("heap.allocated_bytes", 7)
        assert NULL_METRICS.as_dict() == {"gauges": {}, "histograms": {}}

    def test_observe_and_read_back(self):
        hub = MetricsHub()
        hub.observe("dma.xfer_bytes", "dma0", 128)
        hub.observe("dma.xfer_bytes", "dma0", 256)
        hub.observe("dma.xfer_bytes", "dma1", 64)
        h = hub.histogram("dma.xfer_bytes", "dma0")
        assert h.count == 2
        assert hub.histogram("dma.xfer_bytes", "dma1").count == 1
        assert hub.histogram("dma.xfer_bytes", "dma9") is None

    def test_a_tally_reads_as_observed_samples(self):
        tallied, observed = MetricsHub(), MetricsHub()
        tally = tallied.tally("dma.xfer_bytes", "dma0")
        assert tallied.histograms_dict() == {}  # no sample, no histogram
        for value in (128, 4, 128, 4096, 4):
            tally[value] = tally.get(value, 0) + 1
            observed.observe("dma.xfer_bytes", "dma0", value)
        tallied.observe("dma.xfer_bytes", "dma0", 64)
        observed.observe("dma.xfer_bytes", "dma0", 64)
        assert tallied.as_dict() == observed.as_dict()
        assert tally == {}  # folded on read
        tally[1] = 2
        assert tallied.histogram("dma.xfer_bytes", "dma0").count == 8

    def test_gauges_last_write_wins(self):
        hub = MetricsHub()
        hub.gauge_set("heap.allocated_bytes", 100)
        hub.gauge_set("heap.allocated_bytes", 250)
        assert hub.gauges_dict() == {"heap.allocated_bytes": 250}

    def test_as_dict_sorted_and_json_ready(self):
        import json

        hub = MetricsHub()
        hub.observe("dma.xfer_bytes", "dma1", 8)
        hub.observe("dma.xfer_bytes", "dma0", 8)
        hub.gauge_set("heap.allocated_bytes", 1)
        d = hub.as_dict()
        assert list(d["histograms"]) == [
            "dma.xfer_bytes[dma0]", "dma.xfer_bytes[dma1]",
        ]
        json.dumps(d)  # must not raise

    def test_unknown_family_asserts(self):
        hub = MetricsHub()
        with pytest.raises(AssertionError):
            hub.observe("no.such.metric", None, 1)
        with pytest.raises(AssertionError):
            hub.gauge_set("dma.xfer_bytes", 1)  # histogram, not gauge


class TestRegistry:
    def test_kinds_are_valid(self):
        for family, info in METRICS.items():
            assert info.kind in ("histogram", "gauge"), family
            assert info.description, family

    def test_bucket_bounds_strictly_increasing(self):
        assert list(DEFAULT_BUCKET_BOUNDS) == sorted(set(DEFAULT_BUCKET_BOUNDS))

    def test_docs_registry_table_covers_every_family(self):
        # docs/observability.md promises its table mirrors METRICS.
        doc = (
            Path(__file__).resolve().parents[2]
            / "docs"
            / "observability.md"
        ).read_text()
        for family, info in METRICS.items():
            assert f"`{family}`" in doc, f"{family} missing from docs table"
            assert f"| `{family}` | {info.kind} |" in doc, (
                f"{family} row missing or kind mismatched in docs table"
            )


def _run_with_hub(source, target="cell", sched=None):
    config = resolve_target(target)
    program = compile_program(source, config)
    machine = Machine(config)
    hub = MetricsHub()
    machine.attach_metrics(hub)
    result = run_program(program, machine, RunOptions(sched=sched))
    return hub, result


class TestInstrumentation:
    def test_game_frame_populates_dma_and_offload_families(self):
        hub, _ = _run_with_hub(figure2_source())
        keys = set(hub.histograms_dict())
        assert "dma.xfer_bytes[dma0]" in keys
        assert "dma.wait_cycles[dma0]" in keys
        assert "offload.body_cycles" in keys

    def test_unified_memory_target_records_no_dma(self):
        hub, _ = _run_with_hub(figure2_source(), target="apu")
        assert not any(
            key.startswith("dma.") for key in hub.histograms_dict()
        )
        assert "offload.body_cycles" in hub.histograms_dict()

    def test_softcache_streaks_recorded(self):
        hub, _ = _run_with_hub(ai_kernel_source(entity_count=8))
        keys = set(hub.histograms_dict())
        assert any(key.startswith("softcache.hit_streak[") for key in keys), keys

    def test_scheduler_occupancy_recorded_with_policy(self):
        hub, _ = _run_with_hub(
            figure2_source(), sched=SchedOptions(policy="locality")
        )
        occupancy = hub.histogram("sched.queue_occupancy")
        assert occupancy is not None and occupancy.count > 0

    def test_transfer_byte_totals_match_perf_counters(self):
        hub, result = _run_with_hub(figure2_source())
        perf = result.machine.perf.as_dict()
        observed = sum(
            h.total for key, h in (
                (k, hub.histogram("dma.xfer_bytes", k.split("[", 1)[1][:-1]))
                for k in hub.histograms_dict()
                if k.startswith("dma.xfer_bytes[")
            )
        )
        assert observed == perf["dma.bytes_get"] + perf["dma.bytes_put"]

    def test_no_hub_attached_runs_clean(self):
        config = CELL_LIKE
        program = compile_program(figure2_source(), config)
        machine = Machine(config)
        assert machine.metrics is NULL_METRICS
        result = run_program(program, machine)
        assert result.cycles > 0


class TestDerivedMetrics:
    def test_omits_absent_quantities(self):
        assert derived_metrics({}, 0) == {}
        d = derived_metrics({"dma.bytes_get": 500}, 1000)
        assert d == {"outer_bus_bytes_per_kcycle": 500.0}

    def test_cpi_and_utilization(self):
        sched = {"busy_cycles": 400, "uploads": 2, "jobs": 6}
        d = derived_metrics(
            {}, 1000, instructions=800, sched=sched, accelerators=2
        )
        assert d["cycles_per_instruction"] == 1.25
        assert d["accelerator_utilization_pct"] == 20.0
        assert d["upload_amortization"] == 3.0

    def test_accepts_sched_stats_object(self):
        class FakeStats:
            def as_dict(self):
                return {"busy_cycles": 100, "uploads": 0, "jobs": 1}

        d = derived_metrics({}, 1000, sched=FakeStats(), accelerators=1)
        assert d["accelerator_utilization_pct"] == 10.0
