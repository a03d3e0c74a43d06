"""Developer-facing analyses.

* :mod:`repro.analysis.dataflow` — CFG construction over the IR and the
  generic worklist fixpoint engine the whole-program analyses build on.
* :mod:`repro.analysis.dmacheck` — flow-sensitive, interprocedural DMA
  discipline checking (races, leaks, orphan waits).
* :mod:`repro.analysis.intervals` — interprocedural abstract
  interpretation over the dataflow engine: an interval × congruence
  (stride/alignment) domain with widening, branch refinement,
  per-function summaries and loop trip-count bounds.
* :mod:`repro.analysis.bounds` — static DMA bounds/alignment proofs on
  the interval domain (``E-dma-oob``, ``W-dma-unaligned``,
  ``W-dma-tiny-transfer``).
* :mod:`repro.analysis.cost` — static per-offload cycle and DMA-traffic
  estimation (``W-cost-unbounded``).
* :mod:`repro.analysis.footprint` — local-store footprint estimation
  per offload block against the target's scratch-pad capacity.
* :mod:`repro.analysis.traffic` — outer-traffic analysis flagging
  uncached hot outer loops (the §5 guidance, mechanized).
* :mod:`repro.analysis.diagnostics` — the unified :class:`Finding`
  type, the diagnostic-code registry, and text/JSON/SARIF renderers.
* :mod:`repro.analysis.runner` — :func:`run_analyses`, the driver that
  runs everything and reports merged findings with per-unit timings.
* :mod:`repro.analysis.annotations` — computes which virtual methods an
  offload block *would need* in its ``domain(...)`` annotation, the
  quantity whose explosion drove the Section 4.1 restructuring.
* :mod:`repro.analysis.effort` — source-effort metrics (lines of code,
  source deltas) used to reproduce the paper's "~200 additional lines"
  style of claim.
"""

from repro.analysis.annotations import (
    AnnotationReport,
    annotation_requirements,
    report_for_program,
)
from repro.analysis.cost import OffloadCost, estimate_program
from repro.analysis.diagnostics import CODES, Finding, RelatedLocation
from repro.analysis.effort import count_loc, source_delta
from repro.analysis.intervals import (
    AbsInt,
    Congruence,
    Interval,
    TripCount,
    analyze_function,
    loop_trips,
)
from repro.analysis.runner import AnalysisResult, run_analyses

__all__ = [
    "AbsInt",
    "AnalysisResult",
    "AnnotationReport",
    "CODES",
    "Congruence",
    "Finding",
    "Interval",
    "OffloadCost",
    "RelatedLocation",
    "TripCount",
    "analyze_function",
    "annotation_requirements",
    "count_loc",
    "estimate_program",
    "loop_trips",
    "report_for_program",
    "run_analyses",
    "source_delta",
]
