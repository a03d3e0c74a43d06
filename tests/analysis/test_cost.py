"""Tests for the static cost/DMA-traffic estimator
(:mod:`repro.analysis.cost`), validated against dynamic
:class:`RunReport` counters.
"""

from repro.analysis import cost
from repro.analysis.cost import estimate_program
from repro.compiler.driver import compile_program
from repro.game.sources import figure2_source, game_demo_source, move_loop_source
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.sched import SchedOptions
from repro.vm.interpreter import RunOptions, run_program


class TestFigure2Agreement:
    """Figure 2's loops are fully bounded, so the static DMA byte
    counts must match the dynamic counters *exactly* (per launch)."""

    def test_static_traffic_matches_dynamic_counters(self):
        program = compile_program(figure2_source(), CELL_LIKE)
        est = estimate_program(program, CELL_LIKE)[0]
        assert est.bounded
        assert est.get_bytes.is_const and est.put_bytes.is_const

        result = run_program(program, Machine(CELL_LIKE))
        snap = result.machine.perf.as_dict()
        jobs = result.sched.jobs
        assert jobs > 0
        assert snap["dma.bytes_get"] == est.get_bytes.lo * jobs
        assert snap["dma.bytes_put"] == est.put_bytes.lo * jobs

    def test_dynamic_cycles_inside_static_interval(self):
        program = compile_program(figure2_source(), CELL_LIKE)
        est = estimate_program(program, CELL_LIKE)[0]
        result = run_program(
            program,
            Machine(CELL_LIKE),
            RunOptions(sched=SchedOptions(policy="critical-path")),
        )
        observed = result.sched.profile[0]
        assert est.cycles.contains(observed)

    def test_no_unbounded_findings(self):
        program = compile_program(figure2_source(), CELL_LIKE)
        assert cost.check_program(program, CELL_LIKE) == []


class TestCachedTolerance:
    def test_dynamic_traffic_within_static_interval(self):
        """Software-cached programs can't be exact (each access moves
        0..1 cache lines depending on hit rate); the static interval
        must still *contain* the dynamic bytes — the documented
        tolerance."""
        program = compile_program(
            move_loop_source(use_accessor=True, cache="direct"), CELL_LIKE
        )
        est = estimate_program(program, CELL_LIKE)[0]
        assert est.bounded
        assert not (est.get_bytes.is_const and est.put_bytes.is_const)

        result = run_program(program, Machine(CELL_LIKE))
        snap = result.machine.perf.as_dict()
        jobs = result.sched.jobs
        assert (
            est.get_bytes.lo * jobs
            <= snap["dma.bytes_get"]
            <= est.get_bytes.hi * jobs
        )
        assert (
            est.put_bytes.lo * jobs
            <= snap["dma.bytes_put"]
            <= est.put_bytes.hi * jobs
        )


class TestUnboundedLoops:
    SOURCE = """
    int g_n;
    int g_data[16];
    void main() {
        __offload {
            int a[1];
            int s = 0;
            for (int i = 0; i < g_n; i = i + 1) {
                s = s + i;
            }
            dma_get(&a[0], &g_data[0], 4, 1);
            dma_wait(1);
        };
    }
    """

    def test_data_dependent_bound_warns(self):
        program = compile_program(self.SOURCE, CELL_LIKE)
        findings = cost.check_program(program, CELL_LIKE)
        assert [f.code for f in findings] == ["W-cost-unbounded"]
        assert findings[0].related  # points at the offload entry

    def test_unbounded_offload_has_no_cycle_upper_bound(self):
        program = compile_program(self.SOURCE, CELL_LIKE)
        est = estimate_program(program, CELL_LIKE)[0]
        assert not est.bounded
        assert est.cycles.hi is None


class TestDemo:
    def test_every_offload_has_a_positive_cycle_upper_bound(self):
        program = compile_program(game_demo_source(), CELL_LIKE)
        estimates = estimate_program(program, CELL_LIKE)
        assert estimates
        assert all(
            est.cycles.hi is not None and est.cycles.hi > 0
            for est in estimates.values()
        )
