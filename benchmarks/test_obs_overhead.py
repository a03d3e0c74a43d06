"""Disabled-observability overhead guard.

The tracing subsystem promises that with the default
:data:`~repro.obs.trace.NULL_RECORDER` attached, every instrumentation
site costs **one attribute check** (``if trace.enabled:``); the metrics
layer (:data:`~repro.obs.metrics.NULL_METRICS`) makes the same promise.
This benchmark turns that promise into a regression gate: the total
cost of all guard checks — trace *and* metrics — executed during the
Figure 2 game-frame workload must stay under 3% of the workload's
wall-clock time.

There is no uninstrumented build left to diff against, so the bound is
computed from first principles rather than A/B noise:

1. micro-time one disabled guard check (modelled exactly as the hot
   sites are written: attribute load + truth test on a pre-bound
   recorder);
2. count how many guard sites the workload actually executed, from its
   perf counters (every traced event kind maps to a counted quantity);
3. assert ``guard_cost * guard_executions < 3% * run_wallclock``.

A direct disabled-vs-enabled comparison is also run as a sanity check
that attaching a real recorder works under timing, but its delta is not
asserted — sub-3% effects are beneath wall-clock noise on shared CI
runners, which is precisely why the analytical bound exists.
"""

from __future__ import annotations

import time
import timeit

from repro.compiler.driver import compile_program
from repro.game.sources import figure2_source
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.obs import NULL_RECORDER, TraceRecorder
from repro.vm.interpreter import RunOptions, run_program

#: The acceptance bound from the issue: <3% overhead when disabled.
OVERHEAD_BUDGET = 0.03

GAME_FRAME = figure2_source(entity_count=48, pair_count=32, frames=3)


def _measure_guard_seconds() -> float:
    """Seconds per disabled guard check (attribute load + truth test)."""

    class Site:
        __slots__ = ("_trace",)

        def __init__(self):
            self._trace = NULL_RECORDER

    site = Site()
    loops = 200_000
    timer = timeit.Timer(
        "\n".join(["if s._trace.enabled:", "    pass"]) ,
        globals={"s": site},
    )
    return min(timer.repeat(repeat=5, number=loops)) / loops


def _guard_executions(perf: dict[str, int]) -> int:
    """Upper bound on guard checks the run executed, from its counters.

    Every emission site is reached at most this often:

    * function enter + exit: 2 guards per ``vm.calls``;
    * softcache probe (hit or miss): 1 per ``softcache.probes``, plus
      fills/writebacks/evictions bounded by ``softcache.fills`` +
      ``softcache.writebacks`` (x2 for the evict check in _fill);
    * DMA: 1 per issue (gets + puts) and 1 per wait;
    * dispatch: 1 per domain lookup;
    * offloads: begin/end/launch guard at launch, join guard at join;
    * demand code uploads: 1 each.

    The metrics layer adds its own ``if metrics.enabled:`` guards on a
    subset of the same hot paths:

    * DMA transfer-size histogram: 1 per issue (gets + puts);
    * DMA wait histogram: 1 per wait;
    * softcache streak histogram: 1 per probe;
    * scheduler queue-occupancy + offload body-cycles: 2 per launch
      (admit-stall guards only fire on backpressure, bounded by
      ``sched.stalls``).
    """
    trace_guards = (
        2 * perf.get("vm.calls", 0)
        + perf.get("softcache.probes", 0)
        + 2 * perf.get("softcache.fills", 0)
        + perf.get("softcache.writebacks", 0)
        + perf.get("dma.gets", 0)
        + perf.get("dma.puts", 0)
        + perf.get("dma.waits", 0)
        + perf.get("dispatch.domain_lookups", 0)
        + 2 * perf.get("offload.launches", 0)
        + perf.get("offload.joins", 0)
        + perf.get("demand.code_loads", 0)
    )
    metrics_guards = (
        perf.get("dma.gets", 0)
        + perf.get("dma.puts", 0)
        + perf.get("dma.waits", 0)
        + perf.get("softcache.probes", 0)
        + 2 * perf.get("offload.launches", 0)
        + perf.get("sched.stalls", 0)
    )
    return trace_guards + metrics_guards


def _timed_run(program, recorder=None):
    machine = Machine(CELL_LIKE)
    if recorder is not None:
        machine.attach_trace(recorder)
    start = time.perf_counter()
    result = run_program(program, machine, RunOptions())
    return time.perf_counter() - start, result


def test_disabled_tracing_overhead_under_3_percent():
    program = compile_program(GAME_FRAME, CELL_LIKE)
    # Warm-up run pays translation, as in steady-state use.
    _timed_run(program)
    run_seconds, result = min(
        (_timed_run(program) for _ in range(3)), key=lambda pair: pair[0]
    )
    guard_seconds = _measure_guard_seconds()
    guards = _guard_executions(result.machine.perf.as_dict())
    assert guards > 0, "instrumented sites did not execute"

    total_guard_cost = guard_seconds * guards
    share = total_guard_cost / run_seconds
    assert share < OVERHEAD_BUDGET, (
        f"disabled-tracing guards cost {share:.2%} of the game-frame run "
        f"({guards} checks x {guard_seconds * 1e9:.1f} ns vs "
        f"{run_seconds * 1e3:.1f} ms run); budget is {OVERHEAD_BUDGET:.0%}"
    )


def test_enabled_tracing_still_reasonable():
    """Sanity: tracing ON must not cripple the run (soft 2x bound) and
    must actually record events."""
    program = compile_program(GAME_FRAME, CELL_LIKE)
    _timed_run(program)  # translation warm-up
    disabled_s, _ = min(
        (_timed_run(program) for _ in range(3)), key=lambda pair: pair[0]
    )
    recorder = TraceRecorder()
    enabled_s, _ = min(
        (_timed_run(program, recorder) for _ in range(3)),
        key=lambda pair: pair[0],
    )
    assert len(recorder) > 0
    assert enabled_s < disabled_s * 2 + 0.05
