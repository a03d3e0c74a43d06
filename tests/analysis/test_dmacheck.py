"""Tests for the flow-sensitive, interprocedural DMA-discipline checker."""

import pytest

from repro.analysis import dmacheck
from repro.compiler.driver import compile_program
from repro.errors import DmaRaceError
from repro.game.sources import figure1_racy_source, figure1_source
from repro.ir.instructions import Const, FrameAddr, GlobalAddr, Intrinsic, Call, Ret
from repro.ir.module import IRFunction, IRProgram
from repro.machine.config import CELL_LIKE, resolve_target
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


# Two puts per iteration whose outer ranges overlap inside one
# iteration: [32i, 32i + 32) and [32i + 16, 32i + 48).  Both addresses
# vary with the loop counter, but their offsets are bounded intervals.
BOUNDED_LOOP_RACE = """
int g_data[64];
void main() {
    __offload {
        int a[16];
        for (int i = 0; i < 4; i = i + 1) {
            dma_put(&a[0], &g_data[i * 8], 32, 1);
            dma_put(&a[8], &g_data[i * 8 + 4], 32, 2);
            dma_wait(1);
            dma_wait(2);
        }
    };
}
"""

# One pointer, loaded index: its offset is unbounded, yet both
# transfers read copies of the same value.
REUSED_POINTER_RACE = """
int g_data[64];
int g_k;
void main() {
    __offload {
        int a[8]; int b[8];
        int k = g_k;
        int* p = &g_data[k];
        dma_get(&a[0], p, 32, 1);
        dma_put(&b[0], p, 32, 2);
        dma_wait(1);
        dma_wait(2);
    };
}
"""

# Prefetch the next half while the current one is consumed: the wait
# takes the loop-carried buffer index, so it fences every tag.
DOUBLE_BUFFER_LOOP = """
int g_data[256];
int g_sum;
void main() {
    __offload {
        int buf[64];
        int sum = 0;
        int cur = 0;
        dma_get(&buf[0], &g_data[0], 128, 0);
        for (int i = 0; i < 8; i = i + 1) {
            int next = 1 - cur;
            if (i < 7) {
                dma_get(&buf[next * 32], &g_data[(i + 1) * 32], 128, next);
            }
            dma_wait(cur);
            sum = sum + buf[cur * 32] + buf[cur * 32 + 31];
            cur = next;
        }
        g_sum = sum;
    };
}
"""

SCRATCHPAD_TARGETS = ("cell", "dsp", "manycore")


def recorded_races(source, target, engine):
    options = RunOptions(racecheck="record", engine=engine)
    return run_source(
        source, resolve_target(target), run_options=options
    ).races


class TestIntervalAddresses:
    """DMA operands come from the interval solve: bounded offsets are
    compared as ranges, and addresses at unknown indices overlap only
    when they are built on one value."""

    @pytest.mark.parametrize("target", SCRATCHPAD_TARGETS)
    def test_bounded_loop_race_flagged(self, target):
        program = compile_program(BOUNDED_LOOP_RACE, target)
        found = [
            f for f in dmacheck.check_program(program) if f.code == "E-dma-race"
        ]
        assert found
        assert "outer memory" in found[0].message

    @pytest.mark.parametrize("engine", ("codegen", "reference"))
    def test_bounded_loop_race_happens(self, engine):
        found = recorded_races(BOUNDED_LOOP_RACE, "cell", engine)
        assert len(found) == 4
        assert {race.location for race in found} == {"outer"}

    @pytest.mark.parametrize("target", SCRATCHPAD_TARGETS)
    def test_reused_pointer_race_flagged(self, target):
        program = compile_program(REUSED_POINTER_RACE, target)
        assert "E-dma-race" in codes(dmacheck.check_program(program))

    @pytest.mark.parametrize("engine", ("codegen", "reference"))
    def test_reused_pointer_race_happens(self, engine):
        found = recorded_races(REUSED_POINTER_RACE, "cell", engine)
        assert [race.location for race in found] == ["outer"]

    @pytest.mark.parametrize("target", SCRATCHPAD_TARGETS)
    def test_double_buffer_loop_has_no_race(self, target):
        # Not a proof: the loop-carried buffer index widens to ⊤, so the
        # loop get's address is an opaque unknown index.
        program = compile_program(DOUBLE_BUFFER_LOOP, target)
        assert "E-dma-race" not in codes(dmacheck.check_program(program))

    @pytest.mark.parametrize("engine", ("codegen", "reference"))
    def test_double_buffer_loop_runs_race_free(self, engine):
        assert recorded_races(DOUBLE_BUFFER_LOOP, "cell", engine) == []

    def test_transfers_in_statically_dead_code_stay_quiet(self):
        # The interval solve proves the branch never taken and gives its
        # operands no values; the second put never runs.
        source = """
        int g_data[64];
        void main() {
            __offload {
                int a[8];
                int n = 4;
                dma_put(&a[0], &g_data[0], 32, 1);
                if (n > 8) {
                    dma_put(&a[0], &g_data[0], 32, 2);
                    dma_wait(2);
                }
                dma_wait(1);
            };
        }
        """
        assert dmacheck.check_program(compiled(source)) == []
        assert recorded_races(source, "cell", "codegen") == []


# A pointer stepped through a loop: the join of its assignments leaves
# its offset unbounded, yet it still points into g_data, where the get
# issued before the loop is in flight during the first put.
STEPPED_POINTER_RACE = """
int g_data[64];
void main() {
    __offload {
        int a[8]; int b[8];
        int* p = &g_data[0];
        dma_get(&a[0], &g_data[0], 32, 1);
        for (int i = 0; i < 4; i = i + 1) {
            dma_put(&b[0], p, 32, 2);
            dma_wait(2);
            p = p + 8;
        }
        dma_wait(1);
    };
}
"""

# The same, one element past the stepped pointer.
STEPPED_POINTER_DISPLACED_RACE = STEPPED_POINTER_RACE.replace(
    "dma_put(&b[0], p, 32, 2)", "dma_put(&b[0], p + 4, 32, 2)"
)

# A local destination stepped through a loop, over the buffer a get
# before the loop is still filling.
STEPPED_LOCAL_POINTER_RACE = """
int g_x[64];
int g_y[64];
void main() {
    __offload {
        int a[32];
        int* d = &a[0];
        dma_get(&a[0], &g_x[0], 32, 1);
        for (int i = 0; i < 4; i = i + 1) {
            dma_get(d, &g_y[i * 8], 32, 2);
            dma_wait(2);
            d = d + 8;
        }
        dma_wait(1);
    };
}
"""

STEPPED_POINTER_RACES = {
    "outer": STEPPED_POINTER_RACE,
    "outer-displaced": STEPPED_POINTER_DISPLACED_RACE,
    "local": STEPPED_LOCAL_POINTER_RACE,
}


class TestSteppedPointers:
    """A pointer stepped through a loop may lie anywhere in its region,
    so it overlaps every transfer there."""

    @pytest.mark.parametrize("name", sorted(STEPPED_POINTER_RACES))
    @pytest.mark.parametrize("target", SCRATCHPAD_TARGETS)
    def test_flagged(self, name, target):
        program = compile_program(STEPPED_POINTER_RACES[name], target)
        found = [
            f for f in dmacheck.check_program(program) if f.code == "E-dma-race"
        ]
        assert len(found) == 1
        assert f"{name.split('-')[0]} memory" in found[0].message

    @pytest.mark.parametrize("name", sorted(STEPPED_POINTER_RACES))
    @pytest.mark.parametrize("engine", ("codegen", "reference"))
    def test_happens(self, name, engine):
        found = recorded_races(STEPPED_POINTER_RACES[name], "cell", engine)
        assert [race.location for race in found] == [name.split("-")[0]]


def fetch_helper():
    """Hand-built accel helper ``fetch(dst)``: a get into the caller's
    ``dst``, then one into its own frame at offset 0."""
    code = [
        GlobalAddr(dst=1, name="g_x"),
        Const(dst=2, value=32),
        Const(dst=3, value=1),
        Intrinsic(name="dma_get", args=[0, 1, 2, 3]),
        FrameAddr(dst=4, offset=0),
        GlobalAddr(dst=5, name="g_y"),
        Const(dst=6, value=2),
        Intrinsic(name="dma_get", args=[4, 5, 2, 6]),
        Intrinsic(name="dma_wait", args=[3]),
        Intrinsic(name="dma_wait", args=[6]),
        Ret(),
    ]
    return IRFunction(
        name="fetch", params=["dst"], num_regs=7, frame_size=32, code=code,
        space="accel", source_name="fetch",
    )


class TestFramesAcrossCalls:
    @pytest.mark.parametrize("target", SCRATCHPAD_TARGETS)
    def test_a_callers_frame_is_not_the_callees(self, target):
        # The caller's buffer and the helper's both sit at frame offset
        # 0, but in two frames: the gets do not overlap.
        from repro.analysis.runner import run_analyses

        caller = entry([
            FrameAddr(dst=0, offset=0),
            Call(callee="fetch", args=[0]),
            Ret(),
        ])
        caller.frame_size = 32
        program = program_of(fetch_helper(), caller)
        findings = run_analyses(program, target).findings
        assert "E-dma-race" not in codes(findings)


class TestSolveCoverage:
    def test_a_solve_that_did_not_converge_keeps_its_findings(self):
        # Its partial block states are read, not dropped for unknowns.
        from repro.analysis import intervals

        program = compiled(REUSED_POINTER_RACE)
        functions = sorted(program.accel_functions(), key=lambda f: f.name)
        ivals = intervals.compute_summaries(functions)
        for solved in ivals.solved.values():
            solved.result.converged = False
        summaries = dmacheck.compute_summaries(functions, ivals)
        accel_names = frozenset(f.name for f in functions)
        found = [
            finding
            for function in functions
            for finding in dmacheck.check_function(
                function, summaries, accel_names, ivals
            )
        ]
        assert "E-dma-race" in codes(found)

    def test_statically_dead_code_issues_nothing(self):
        # The dead put's unknown tag would hide the orphan wait.
        source = """
        int g_data[64];
        int g_k;
        void main() {
            __offload {
                int a[8];
                int n = 4;
                if (n > 8) {
                    dma_put(&a[0], &g_data[0], 32, g_k);
                    dma_wait(g_k);
                }
                dma_wait(5);
            };
        }
        """
        assert codes(dmacheck.check_program(compiled(source))) == [
            "E-dma-orphan-wait"
        ]
        perf = run_source(source).perf()
        assert perf.get("dma.puts", 0) == 0 and perf["dma.waits"] == 1
