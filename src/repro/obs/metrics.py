"""Typed metrics: gauges and fixed-bucket histograms over simulated runs.

:class:`~repro.machine.perf.PerfCounters` answer "how many"; the trace
(:mod:`repro.obs.trace`) answers "when".  This module answers the
*distributional* questions in between — how big are the DMA transfers,
how long does a core stall per wait, how deep do the ready queues get,
how streaky is the software cache — without retaining per-event state.

A :class:`MetricsHub` attached to a machine
(:meth:`repro.machine.machine.Machine.attach_metrics`) collects:

* **histograms** — fixed-bucket, integer-valued distributions.  The
  bucket bounds are compile-time constants, so two runs (or two
  engines) that observe the same simulated values produce *identical*
  histogram state — the property that makes run reports
  (:mod:`repro.obs.report`) byte-comparable.
* **gauges** — last-written point-in-time values (heap high water,
  dropped trace events, queue high water).

Instrumentation sites follow the exact pattern the tracing layer
established in PR 3: pre-bind the hub (machines default to the shared
:data:`NULL_METRICS`) and guard every observation with a single
``if metrics.enabled:`` attribute check, so the disabled path costs one
attribute load per site.  ``benchmarks/test_obs_overhead.py`` includes
these guards in its <3% budget.  The hottest sites (each DMA engine's
transfers and waits, each software cache's streaks) count samples into
a :meth:`MetricsHub.tally` instead, which every read folds in first.

Every metric family lives in the :data:`METRICS` registry; the table in
``docs/observability.md`` mirrors it and a test keeps the two in sync
(the same contract ``repro.analysis.diagnostics.CODES`` has with its
docs table).  Families that exist per unit (one histogram per DMA
channel, per software cache) are stored under ``family[label]`` keys,
e.g. ``dma.xfer_bytes[dma0]``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional


class MetricInfo(NamedTuple):
    """Registry entry for one metric family."""

    kind: str  # "histogram" or "gauge"
    labelled: bool  # True when instances exist per unit (dma0, acc1.cache)
    description: str


#: The metric-name registry: single source of truth for what the
#: simulator records.  ``docs/observability.md`` carries a mirror table
#: kept in sync by ``tests/obs/test_metrics.py``.
METRICS: dict[str, MetricInfo] = {
    "dma.xfer_bytes": MetricInfo(
        "histogram", True, "DMA transfer sizes in bytes, per channel"
    ),
    "dma.wait_cycles": MetricInfo(
        "histogram", True,
        "Cycles a core stalled per blocking DMA wait, per channel",
    ),
    "sched.queue_occupancy": MetricInfo(
        "histogram", False,
        "Ready-queue occupancy observed at each job start",
    ),
    "sched.stall_cycles": MetricInfo(
        "histogram", False,
        "Host backpressure stall durations in cycles",
    ),
    "softcache.hit_streak": MetricInfo(
        "histogram", True,
        "Consecutive-hit run lengths at each streak break, per cache",
    ),
    "softcache.miss_streak": MetricInfo(
        "histogram", True,
        "Consecutive-miss run lengths at each streak break, per cache",
    ),
    "offload.body_cycles": MetricInfo(
        "histogram", False,
        "Offload block body durations in cycles (upload excluded)",
    ),
    "heap.allocated_bytes": MetricInfo(
        "gauge", False, "Main-memory heap bytes allocated by the end of the run"
    ),
    "trace.dropped_events": MetricInfo(
        "gauge", False, "Trace events lost to ring wrap-around"
    ),
    "sched.queue_high_water": MetricInfo(
        "gauge", False, "Deepest ready-queue occupancy seen over the run"
    ),
    # The farm lane (:mod:`repro.farm`): host-level batch-execution
    # metrics recorded by the driver, not the simulator.  They are
    # wall-clock quantities, so they live in farm batch summaries —
    # never in per-job RunReports, which stay byte-deterministic.
    "farm.job_wall_ms": MetricInfo(
        "histogram", False,
        "Host wall-clock per completed farm job in milliseconds",
    ),
    "farm.queue_occupancy": MetricInfo(
        "histogram", False,
        "Pending farm jobs observed at each dispatch to a worker",
    ),
    "farm.worker_jobs": MetricInfo(
        "gauge", True, "Jobs completed per farm worker over one batch"
    ),
    "farm.worker_busy_ms": MetricInfo(
        "gauge", True,
        "Host milliseconds each farm worker spent executing jobs",
    ),
    "farm.compiles": MetricInfo(
        "gauge", False,
        "Full compile-pipeline runs the batch paid (cold compiles)",
    ),
    "farm.warm_jobs": MetricInfo(
        "gauge", False,
        "Jobs served entirely from warm programs (zero compile/codegen)",
    ),
}

#: Shared bucket upper bounds (inclusive), in whatever unit the family
#: uses (bytes, cycles, jobs, probes).  Power-of-two-ish spacing covers
#: single-word transfers through megacycle stalls in 16 buckets; one
#: implicit overflow bucket catches the rest.  These are part of the
#: report schema: changing them changes every serialized histogram, so
#: bump :data:`repro.obs.report.REPORT_SCHEMA_VERSION` alongside.
DEFAULT_BUCKET_BOUNDS: tuple[int, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
    1024, 4096, 16384, 65536, 262144, 1048576,
)


def metric_key(family: str, label: Optional[str]) -> str:
    """The storage key of one metric instance: ``family`` or
    ``family[label]``."""
    return family if label is None else f"{family}[{label}]"


class Histogram:
    """A fixed-bucket integer histogram.

    Buckets are half-open ranges ending at each bound in ``bounds``
    (inclusive), plus one overflow bucket.  Alongside the bucket counts
    it tracks exact ``count``/``total``/``min``/``max``, so coarse
    buckets never lose the extremes — :meth:`percentile` clamps its
    bucket-bound estimate to the observed max.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(
        self, name: str, bounds: Iterable[int] = DEFAULT_BUCKET_BOUNDS
    ):
        self.name = name
        self.bounds = tuple(bounds)
        if bounds is not DEFAULT_BUCKET_BOUNDS and (
            not self.bounds or list(self.bounds) != sorted(set(self.bounds))
        ):
            raise ValueError(
                f"histogram bounds must be strictly increasing, "
                f"got {self.bounds!r}"
            )
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min = 0
        self.max = 0

    def observe(self, value: int, times: int = 1) -> None:
        """Record ``times`` samples of ``value``.  Hot path: one bisect,
        one list store."""
        self.counts[bisect_left(self.bounds, value)] += times
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += times
        self.total += value * times

    def percentile(self, q: float) -> int:
        """The q-quantile (0 < q <= 1) estimated from the buckets.

        Returns the upper bound of the bucket containing the quantile,
        clamped to the exact observed max (so ``percentile(1.0)`` is
        always the true maximum); 0 when empty.
        """
        return self._percentiles((q,))[0]

    def _percentiles(self, qs: tuple[float, ...]) -> list[int]:
        """:meth:`percentile` of each of ``qs``, from one running sum of
        the buckets."""
        if self.count == 0:
            return [0] * len(qs)
        running = list(accumulate(self.counts))
        bounds, top = self.bounds, self.max
        found = []
        for q in qs:
            target = max(1, -(-int(self.count * q * 1000) // 1000))  # ceil
            index = bisect_left(running, target)
            found.append(min(bounds[index], top) if index < len(bounds) else top)
        return found

    def as_dict(self) -> dict:
        """A JSON-ready snapshot.  Buckets are ``[bound, count]`` pairs
        with zero buckets omitted (the overflow bucket's bound is -1)."""
        buckets = [
            [self.bounds[i] if i < len(self.bounds) else -1, c]
            for i, c in enumerate(self.counts)
            if c
        ]
        p50, p90 = self._percentiles((0.5, 0.9))
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "p50": p50,
            "p90": p90,
            "buckets": buckets,
        }

    def __repr__(self) -> str:
        return (
            f"Histogram(name={self.name!r}, count={self.count}, "
            f"min={self.min}, max={self.max})"
        )


class NullMetrics:
    """The disabled hub: every machine's default.

    Instrumentation sites pre-bind a hub reference and guard each
    observation with ``if metrics.enabled:``, so with this hub attached
    the whole metrics subsystem costs one attribute check per site.
    """

    enabled = False

    def observe(self, family: str, label: Optional[str], value: int) -> None:
        """Discard the sample (never called on guarded sites)."""

    def gauge_set(self, family: str, value: int,
                  label: Optional[str] = None) -> None:
        """Discard the gauge write."""

    def histograms_dict(self) -> dict:
        return {}

    def gauges_dict(self) -> dict:
        return {}

    def as_dict(self) -> dict:
        return {"gauges": {}, "histograms": {}}


#: The shared disabled hub.  Never mutated; safe to alias widely.
NULL_METRICS = NullMetrics()


class MetricsHub:
    """A bag of named histograms and gauges for one run.

    Attach to a machine with
    :meth:`repro.machine.machine.Machine.attach_metrics` *before*
    building an execution engine, exactly like a trace recorder.
    """

    enabled = True

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, int] = {}
        self._tallies: list[tuple[str, Optional[str], dict[int, int]]] = []

    # -------------------------------------------------------------- writing

    def observe(self, family: str, label: Optional[str], value: int) -> None:
        """Record one histogram sample under ``family`` (+ ``label``)."""
        assert METRICS.get(family, _MISSING).kind == "histogram", family
        self._histogram_at(metric_key(family, label)).observe(value)

    def _histogram_at(self, key: str) -> Histogram:
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(key)
        return histogram

    def tally(self, family: str, label: Optional[str]) -> dict[int, int]:
        """A batched sink for ``family`` (+ ``label``) samples, as a
        counter slot is for a counter: a hot site bound to it at its
        first sample adds each value ``v`` as ``tally[v] = tally.get(v,
        0) + 1``, and every read of the hub first observes and empties
        every tally: what a read sees does not depend on which sink a
        sample took."""
        assert METRICS.get(family, _MISSING).kind == "histogram", family
        tally: dict[int, int] = {}
        self._tallies.append((family, label, tally))
        return tally

    def _fold(self) -> None:
        for family, label, tally in self._tallies:
            if tally:
                histogram = self._histogram_at(metric_key(family, label))
                for value, times in tally.items():
                    histogram.observe(value, times)
                tally.clear()

    def gauge_set(self, family: str, value: int,
                  label: Optional[str] = None) -> None:
        """Set a gauge to ``value`` (last write wins)."""
        assert METRICS.get(family, _MISSING).kind == "gauge", family
        self._gauges[metric_key(family, label)] = value

    # --------------------------------------------------------------- reading

    def histogram(self, family: str,
                  label: Optional[str] = None) -> Optional[Histogram]:
        """The histogram for ``family`` (+ ``label``), or None."""
        self._fold()
        return self._histograms.get(metric_key(family, label))

    def histograms_dict(self) -> dict:
        """All histograms as plain dicts, sorted by key."""
        self._fold()
        return {
            key: h.as_dict() for key, h in sorted(self._histograms.items())
        }

    def gauges_dict(self) -> dict:
        """All gauges, sorted by key."""
        return dict(sorted(self._gauges.items()))

    def as_dict(self) -> dict:
        return {
            "gauges": self.gauges_dict(),
            "histograms": self.histograms_dict(),
        }

    def __repr__(self) -> str:
        self._fold()
        return (
            f"MetricsHub(histograms={len(self._histograms)}, "
            f"gauges={len(self._gauges)})"
        )


#: Sentinel for registry lookups in asserts (unknown family -> loud fail).
_MISSING = MetricInfo("<unknown>", False, "")


# ------------------------------------------------------------ derived metrics


def derived_metrics(
    counters: dict[str, int],
    cycles: int,
    instructions: int = 0,
    sched: Optional[dict] = None,
    accelerators: int = 0,
) -> dict[str, float]:
    """Post-run metrics computed from counters and scheduler stats.

    All inputs are simulated integers, so the rounded floats are
    deterministic across engines and repeats.  Quantities whose inputs
    are absent (no DMA on unified-memory targets, no uploads in compat
    mode) are omitted rather than reported as zero.

    ``sched`` accepts either the ``SchedStats.as_dict()`` form or a
    ``SchedStats`` instance directly.
    """
    if sched is not None and not isinstance(sched, dict):
        sched = sched.as_dict()
    out: dict[str, float] = {}
    if cycles > 0:
        dma_bytes = counters.get("dma.bytes_get", 0) + counters.get(
            "dma.bytes_put", 0
        )
        out["outer_bus_bytes_per_kcycle"] = round(
            dma_bytes * 1000 / cycles, 4
        )
    if instructions > 0 and cycles > 0:
        out["cycles_per_instruction"] = round(cycles / instructions, 4)
    if sched is not None and cycles > 0 and accelerators > 0:
        busy = sched.get("busy_cycles", 0)
        out["accelerator_utilization_pct"] = round(
            100.0 * busy / (cycles * accelerators), 4
        )
        uploads = sched.get("uploads", 0)
        jobs = sched.get("jobs", 0)
        if uploads > 0:
            # Jobs served per cold code upload: the quantity locality
            # placement maximises (greedy re-uploads every rotation).
            out["upload_amortization"] = round(jobs / uploads, 4)
    return out
