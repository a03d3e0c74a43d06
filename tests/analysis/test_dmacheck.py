"""Tests for the flow-sensitive, interprocedural DMA-discipline checker."""

import pytest

from repro.analysis import dmacheck
from repro.compiler.driver import compile_program
from repro.errors import DmaRaceError
from repro.game.sources import figure1_racy_source, figure1_source
from repro.ir.instructions import Const, FrameAddr, GlobalAddr, Intrinsic, Call, Ret
from repro.ir.module import IRFunction, IRProgram
from repro.machine.config import CELL_LIKE
from repro.vm.interpreter import RunOptions
from tests.conftest import run_source


def compiled(source):
    return compile_program(source, CELL_LIKE)


def codes(findings):
    return [f.code for f in findings]


def races(source):
    return [
        f
        for f in dmacheck.check_program(compiled(source))
        if f.code == "E-dma-race"
    ]


PUT_PUT_OVERLAP = """
int g_data[16];
void main() {
    __offload {
        int a[8];
        dma_put(&a[0], &g_data[0], 32, 1);
        dma_put(&a[0], &g_data[4], 32, 2);
        dma_wait(1);
        dma_wait(2);
    };
}
"""

GET_GET_OUTER_OVERLAP = """
int g_data[16];
void main() {
    __offload {
        int a[8]; int b[8];
        dma_get(&a[0], &g_data[0], 32, 1);
        dma_get(&b[0], &g_data[4], 32, 1);
        dma_wait(1);
        int x = a[0] + b[0];
        g_data[0] = x;
    };
}
"""

WAIT_BETWEEN = """
int g_data[16];
void main() {
    __offload {
        int a[8];
        dma_put(&a[0], &g_data[0], 32, 1);
        dma_wait(1);
        dma_put(&a[0], &g_data[4], 32, 1);
        dma_wait(1);
    };
}
"""


class TestStraightLineDetection:
    """The straight-line programs the deleted seed (per-basic-block)
    race checker was tested on: this checker flags every one that
    checker flagged and clears every one it cleared."""

    def test_put_put_overlap_flagged(self):
        findings = races(PUT_PUT_OVERLAP)
        assert len(findings) >= 1
        assert "outer memory" in findings[0].message
        assert "dma_wait" in findings[0].message

    def test_get_get_outer_overlap_not_flagged(self):
        assert dmacheck.check_program(compiled(GET_GET_OUTER_OVERLAP)) == []

    def test_get_get_local_overlap_flagged(self):
        source = """
        int g_data[16];
        void main() {
            __offload {
                int a[8];
                dma_get(&a[0], &g_data[0], 32, 1);
                dma_get(&a[0], &g_data[8], 32, 2);
                dma_wait(1);
                dma_wait(2);
            };
        }
        """
        assert any("local memory" in f.message for f in races(source))

    def test_wait_between_transfers_clears(self):
        assert dmacheck.check_program(compiled(WAIT_BETWEEN)) == []

    def test_disjoint_transfers_not_flagged(self):
        source = """
        int g_data[32];
        void main() {
            __offload {
                int a[8]; int b[8];
                dma_get(&a[0], &g_data[0], 32, 1);
                dma_get(&b[0], &g_data[16], 32, 1);
                dma_wait(1);
            };
        }
        """
        assert dmacheck.check_program(compiled(source)) == []

    def test_figure1_pattern_is_clean(self):
        assert dmacheck.check_program(compiled(figure1_source())) == []


class TestDynamicAgreement:
    def test_racy_figure1_caught_dynamically(self):
        with pytest.raises(DmaRaceError):
            run_source(figure1_racy_source())

    def test_racy_figure1_recorded_in_record_mode(self):
        options = RunOptions(racecheck="record")
        result = run_source(figure1_racy_source(), run_options=options)
        assert len(result.races) >= 1
        assert result.races[0].location == "outer"


class TestLoopCarriedRace:
    def test_figure1_in_a_loop_misses_old_catches_new(self):
        """The acceptance test for the rebuilt checker: the racy Figure-1
        variant re-issues an overlapping transfer on the loop back edge
        without waiting.  An intra-block analysis provably misses it;
        the CFG-based checker reports E-dma-race; and the dynamic
        checker confirms the race actually happens at runtime."""
        program = compiled(figure1_racy_source())

        new = dmacheck.check_program(program)
        races = [f for f in new if f.code == "E-dma-race"]
        assert races, "flow-sensitive checker must catch the loop race"
        assert "dma_wait" in races[0].message

        with pytest.raises(DmaRaceError):
            run_source(figure1_racy_source())

    def test_dynamic_record_mode_agrees(self):
        result = run_source(
            figure1_racy_source(), run_options=RunOptions(racecheck="record")
        )
        assert len(result.races) >= 1

    def test_clean_figure1_stays_clean(self):
        program = compiled(figure1_source())
        assert dmacheck.check_program(program) == []


class TestStraightLineParity:
    def test_new_finds_at_least_what_old_finds(self):
        assert len(races(PUT_PUT_OVERLAP)) >= 1

    def test_wait_between_transfers_still_clean(self):
        assert dmacheck.check_program(compiled(WAIT_BETWEEN)) == []

    def test_get_get_outer_overlap_allowed(self):
        assert races(GET_GET_OUTER_OVERLAP) == []


class TestFlowSensitivity:
    def test_race_surviving_one_branch_arm(self):
        """One arm waits, the other doesn't: the join keeps the pending
        transfer, so the later overlapping put must be flagged."""
        source = """
        int g_data[16];
        int g_flag;
        void main() {
            __offload {
                int a[8];
                dma_put(&a[0], &g_data[0], 32, 1);
                if (g_flag) {
                    dma_wait(1);
                }
                dma_put(&a[0], &g_data[0], 32, 2);
                dma_wait(1);
                dma_wait(2);
            };
        }
        """
        findings = dmacheck.check_program(compiled(source))
        assert "E-dma-race" in codes(findings)

    def test_wait_on_both_arms_is_clean(self):
        source = """
        int g_data[16];
        int g_flag;
        void main() {
            __offload {
                int a[8];
                dma_put(&a[0], &g_data[0], 32, 1);
                if (g_flag) {
                    dma_wait(1);
                } else {
                    dma_wait(1);
                }
                dma_put(&a[0], &g_data[0], 32, 2);
                dma_wait(2);
            };
        }
        """
        findings = dmacheck.check_program(compiled(source))
        assert "E-dma-race" not in codes(findings)


class TestLeaksAndOrphans:
    def test_unwaited_put_leaks_at_offload_end(self):
        source = """
        int g_data[16];
        void main() {
            __offload {
                int a[8];
                dma_put(&a[0], &g_data[0], 32, 1);
            };
        }
        """
        findings = dmacheck.check_program(compiled(source))
        leaks = [f for f in findings if f.code == "E-dma-leak"]
        assert leaks
        assert "dma_wait" in leaks[0].message

    def test_orphan_wait_on_never_issued_tag(self):
        source = """
        int g_data[16];
        void main() {
            __offload {
                dma_wait(5);
            };
        }
        """
        findings = dmacheck.check_program(compiled(source))
        assert "E-dma-orphan-wait" in codes(findings)

    def test_wait_after_issue_is_not_orphan(self):
        source = """
        int g_data[16];
        void main() {
            __offload {
                int a[8];
                dma_get(&a[0], &g_data[0], 32, 5);
                dma_wait(5);
                g_data[0] = a[0];
            };
        }
        """
        findings = dmacheck.check_program(compiled(source))
        assert "E-dma-orphan-wait" not in codes(findings)


def put_helper(name="h", tag=1, wait=False):
    """Hand-built accel helper: dma_put(frame+0, &g_data+0, 32, tag)."""
    code = [
        FrameAddr(dst=0, offset=0),
        GlobalAddr(dst=1, name="g_data"),
        Const(dst=2, value=32),
        Const(dst=3, value=tag),
        Intrinsic(name="dma_put", args=[0, 1, 2, 3]),
    ]
    if wait:
        code.append(Intrinsic(name="dma_wait", args=[3]))
    code.append(Ret())
    return IRFunction(
        name=name, params=[], num_regs=4, code=code,
        space="accel", source_name=name,
    )


def entry(code, num_regs=8):
    return IRFunction(
        name="__offload_0", params=[], num_regs=num_regs, code=code,
        space="accel", source_name="__offload_0",
    )


def program_of(*functions):
    program = IRProgram(target_name="cell-like")
    for fn in functions:
        program.functions[fn.name] = fn
    return program


class TestInterprocedural:
    """Callee summaries: transfers issued in helpers flow to callers."""

    def test_caller_waits_helper_transfer(self):
        caller = entry([
            Call(callee="h", args=[]),
            Const(dst=0, value=1),
            Intrinsic(name="dma_wait", args=[0]),
            Ret(),
        ])
        findings = dmacheck.check_program(program_of(put_helper(), caller))
        assert findings == []

    def test_helper_transfer_leaks_through_caller(self):
        caller = entry([
            Call(callee="h", args=[]),
            Ret(),
        ])
        findings = dmacheck.check_program(program_of(put_helper(), caller))
        leaks = [f for f in findings if f.code == "E-dma-leak"]
        assert leaks
        assert "of h" in leaks[0].message  # names the issuing helper

    def test_helper_that_waits_is_self_contained(self):
        caller = entry([
            Call(callee="h", args=[]),
            Ret(),
        ])
        findings = dmacheck.check_program(
            program_of(put_helper(wait=True), caller)
        )
        assert findings == []

    def test_caller_pending_races_with_helper_transfer(self):
        # The caller's own put to g_data is still in flight when the
        # helper issues an overlapping put.
        caller = entry([
            FrameAddr(dst=0, offset=64),  # disjoint local buffer
            GlobalAddr(dst=1, name="g_data"),
            Const(dst=2, value=32),
            Const(dst=3, value=2),
            Intrinsic(name="dma_put", args=[0, 1, 2, 3]),
            Call(callee="h", args=[]),
            Intrinsic(name="dma_wait", args=[3]),
            Const(dst=4, value=1),
            Intrinsic(name="dma_wait", args=[4]),
            Ret(),
        ])
        findings = dmacheck.check_program(program_of(put_helper(), caller))
        races = [f for f in findings if f.code == "E-dma-race"]
        assert races
        assert races[0].function == "__offload_0"

    def test_wait_before_call_avoids_the_race(self):
        caller = entry([
            FrameAddr(dst=0, offset=64),
            GlobalAddr(dst=1, name="g_data"),
            Const(dst=2, value=32),
            Const(dst=3, value=2),
            Intrinsic(name="dma_put", args=[0, 1, 2, 3]),
            Intrinsic(name="dma_wait", args=[3]),
            Call(callee="h", args=[]),
            Const(dst=4, value=1),
            Intrinsic(name="dma_wait", args=[4]),
            Ret(),
        ])
        findings = dmacheck.check_program(program_of(put_helper(), caller))
        assert "E-dma-race" not in codes(findings)

    def test_leak_reported_only_at_offload_entries(self):
        # The helper alone leaks, but E-dma-leak belongs to the offload
        # boundary -- a helper's pending transfer is its caller's
        # responsibility, reported where the block actually returns.
        helper_only = program_of(put_helper())
        assert "E-dma-leak" not in codes(dmacheck.check_program(helper_only))

    def test_leak_through_callee_carries_related_location(self):
        # Interprocedural diagnostics point back at the other half of
        # the story: the leak reported at the offload boundary names
        # the callee that issued the still-in-flight transfer.
        caller = entry([
            Call(callee="h", args=[]),
            Ret(),
        ])
        findings = dmacheck.check_program(program_of(put_helper(), caller))
        (leak,) = [f for f in findings if f.code == "E-dma-leak"]
        assert leak.related
        assert leak.related[0].function == "h"
        assert "issued" in leak.related[0].message

    def test_race_carries_related_location_of_earlier_transfer(self):
        caller = entry([
            FrameAddr(dst=0, offset=64),
            GlobalAddr(dst=1, name="g_data"),
            Const(dst=2, value=32),
            Const(dst=3, value=2),
            Intrinsic(name="dma_put", args=[0, 1, 2, 3]),
            Call(callee="h", args=[]),
            Intrinsic(name="dma_wait", args=[3]),
            Const(dst=4, value=1),
            Intrinsic(name="dma_wait", args=[4]),
            Ret(),
        ])
        findings = dmacheck.check_program(program_of(put_helper(), caller))
        races = [f for f in findings if f.code == "E-dma-race"]
        assert races and races[0].related
        assert "issued here" in races[0].related[0].message


class TestGameCorpusQuiet:
    def test_no_dma_findings_on_existing_game_sources(self):
        from repro.game import sources as game

        for source in (
            game.figure1_source(),
            game.figure2_source(),
            game.component_system_source(),
            game.ai_kernel_source(),
            game.move_loop_source(),
        ):
            program = compiled(source)
            assert dmacheck.check_program(program) == []
