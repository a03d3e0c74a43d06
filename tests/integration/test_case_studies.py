"""Integration tests for the Section 4.1 case studies: the component
system restructuring and the AI offload."""

import pytest

from repro.analysis.annotations import report_for_program
from repro.analysis.effort import source_delta
from repro.compiler.driver import analyze_source, compile_program
from repro.game.sources import ai_kernel_source, component_system_source, move_loop_source
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.vm.interpreter import run_program
from tests.conftest import run_source

SMALL = dict(num_types=5, entities_per_type=6, methods_per_type=4)


class TestComponentRestructuring:
    def test_monolithic_and_specialised_agree(self):
        mono = run_source(
            component_system_source(specialized=False, **SMALL)
        )
        spec = run_source(
            component_system_source(specialized=True, **SMALL)
        )
        assert mono.printed == spec.printed

    def test_specialisation_cuts_annotations(self):
        mono_info = analyze_source(
            component_system_source(specialized=False, **SMALL)
        )
        spec_info = analyze_source(
            component_system_source(specialized=True, **SMALL)
        )
        (mono_report,) = report_for_program(mono_info)
        spec_reports = report_for_program(spec_info)
        assert mono_report.count == 5 * 4 + 4
        assert max(r.count for r in spec_reports) == 4
        assert len(spec_reports) == 5

    def test_specialisation_cuts_dispatch_overhead(self):
        mono = run_source(
            component_system_source(specialized=False, cache="setassoc", **SMALL)
        )
        spec = run_source(
            component_system_source(specialized=True, cache="setassoc", **SMALL)
        )
        assert (
            spec.perf()["dispatch.outer_probes"]
            < mono.perf()["dispatch.outer_probes"]
        )

    def test_specialisation_improves_frame_time_at_scale(self):
        scale = dict(num_types=8, entities_per_type=10, methods_per_type=6)
        mono = run_source(
            component_system_source(specialized=False, cache="setassoc", **scale)
        )
        spec = run_source(
            component_system_source(specialized=True, cache="setassoc", **scale)
        )
        assert spec.cycles < mono.cycles

    def test_specialised_offloads_run_in_parallel(self):
        result = run_source(
            component_system_source(specialized=True, cache="setassoc", **SMALL)
        )
        busy = [a for a in result.machine.accelerators if a.clock.now > 0]
        assert len(busy) >= 2


class TestAiOffload:
    def test_offloaded_ai_matches_host_ai(self):
        host = run_source(ai_kernel_source(32, offloaded=False))
        accel = run_source(ai_kernel_source(32, offloaded=True, cache="setassoc"))
        assert host.printed == accel.printed

    def test_offload_speedup_at_least_1_5x(self):
        """The paper reports ~50% performance increase from offloading
        a AAA game's AI."""
        host = run_source(ai_kernel_source(48, offloaded=False))
        accel = run_source(ai_kernel_source(48, offloaded=True, cache="setassoc"))
        assert host.cycles / accel.cycles >= 1.5

    def test_source_delta_is_small(self):
        """~200 lines on a AAA codebase; a handful on our kernel."""
        delta = source_delta(
            ai_kernel_source(offloaded=False), ai_kernel_source(offloaded=True)
        )
        assert delta.added_lines <= 20

    def test_cache_choice_matters(self):
        """Raw per-access DMA makes the offload *slower* than the host;
        a software cache is what makes it profitable — the paper's
        'profiling decides which cache' point."""
        host = run_source(ai_kernel_source(48, offloaded=False))
        raw = run_source(ai_kernel_source(48, offloaded=True, cache=None))
        cached = run_source(ai_kernel_source(48, offloaded=True, cache="setassoc"))
        assert raw.cycles > host.cycles
        assert cached.cycles < host.cycles


class TestMoveLoopLocality:
    """Section 4.2: the current->move() loop under each strategy."""

    N = 24

    def _cycles(self, **kwargs):
        result = run_source(move_loop_source(self.N, **kwargs))
        return result, result.cycles

    def test_all_variants_agree(self):
        outputs = [
            run_source(move_loop_source(self.N, use_accessor=acc, cache=cache)).printed
            for acc in (False, True)
            for cache in (None, "direct")
        ]
        assert all(o == outputs[0] for o in outputs)

    def test_accessor_removes_pointer_array_transfers(self):
        naive, naive_cycles = self._cycles(use_accessor=False, cache=None)
        accessor, accessor_cycles = self._cycles(use_accessor=True, cache=None)
        assert accessor_cycles < naive_cycles
        # The accessor replaces N outer loads with one bulk transfer.
        assert (
            accessor.perf()["outer.loads"] < naive.perf()["outer.loads"]
        )

    def test_cache_mitigates_repeated_accesses(self):
        _, naive_cycles = self._cycles(use_accessor=False, cache=None)
        _, cached_cycles = self._cycles(use_accessor=False, cache="direct")
        assert cached_cycles < naive_cycles

    def test_combined_strategy_is_best(self):
        _, naive = self._cycles(use_accessor=False, cache=None)
        _, combined = self._cycles(use_accessor=True, cache="direct")
        assert combined < naive / 2

    def test_virtual_mix_dispatches_both_types(self):
        result = run_source(move_loop_source(self.N, use_accessor=True, cache="direct"))
        # Both implementations ran: pool A moved +1.0, pool B +2.0.
        assert result.printed == [1.0, 2.0]
