"""Differential tests: the codegen engine against the reference engine.

The source-codegen engine (:mod:`repro.vm.codegen`) promises to be
*bit-identical* to the reference decode loop: same printed output, same
return value, same simulated cycle counts, same perf counters, same
cycle-stamped traces, same trap messages.  This suite enforces that
promise over every paper workload, every machine configuration, a
randomized IR fuzz corpus, the four scheduling policies, and the trap
paths.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.compiler.driver import CompileOptions, compile_program
from repro.errors import RuntimeTrap
from repro.machine.config import (
    APU_UNIFIED,
    CELL_LIKE,
    DSP_WORD,
    MANYCORE_GRID,
    SMP_UNIFORM,
    TARGET_NAMES,
    resolve_target,
)
from repro.machine.machine import Machine
from repro.game.sources import (
    ai_kernel_source,
    component_system_source,
    figure1_source,
    figure2_source,
    game_demo_source,
    move_loop_source,
    word_struct_source,
)
from repro.obs import TraceRecorder, chrome_trace_json
from repro.sched import POLICY_NAMES, SchedOptions
from repro.vm.interpreter import (
    ENGINE_NAMES,
    RunOptions,
    make_interpreter,
    run_program,
)
from repro.vm.codegen import CodegenInterpreter
from tests.properties.test_differential_fuzzing import ProgramBuilder

#: Every registered target, by short name — the suite samples all of
#: them, so a newly registered preset is exercised automatically.
CONFIGS = {name: resolve_target(name) for name in TARGET_NAMES}

#: Reference first: ``run_both`` compares every other engine against it.
ALL_ENGINES = ("reference", "codegen")


def run_both(source, config=CELL_LIKE, compile_options=None, run_options=None):
    """Run one source under every engine on fresh machines.

    Returns the (reference, codegen) :class:`RunResult`\\ s after
    asserting that every observable — output, return value, cycle
    counts, the full perf counter dict, recorded races, and the
    cycle-stamped event trace — is identical across the engines.
    """
    program = compile_program(source, config, compile_options)
    results = []
    recorders = []
    for engine in ALL_ENGINES:
        options = dataclasses.replace(
            run_options or RunOptions(), engine=engine
        )
        machine = Machine(config)
        recorder = TraceRecorder(capacity=1 << 18)
        machine.attach_trace(recorder)
        recorders.append(recorder)
        results.append(run_program(program, machine, options))
    ref = results[0]
    for index, engine in enumerate(ALL_ENGINES[1:], start=1):
        other = results[index]
        assert other.output == ref.output, engine
        assert other.return_value == ref.return_value, engine
        assert other.cycles == ref.cycles, engine
        assert other.host_cycles == ref.host_cycles, engine
        assert other.machine.perf.as_dict() == ref.machine.perf.as_dict(), (
            engine
        )
        assert [r.describe() for r in other.races] == [
            r.describe() for r in ref.races
        ], engine
        assert recorders[index].events() == recorders[0].events(), engine
        assert recorders[index].dropped == recorders[0].dropped, engine
        # Traces must be identical down to the exported bytes.
        assert chrome_trace_json(recorders[index]) == chrome_trace_json(
            recorders[0]
        ), engine
    return ref, results[1]


WORKLOADS = {
    "figure1": (figure1_source(), CELL_LIKE, None),
    "figure2-offloaded": (figure2_source(), CELL_LIKE, None),
    "figure2-sequential": (
        figure2_source(offloaded=False),
        CELL_LIKE,
        None,
    ),
    "figure2-cached": (
        figure2_source(cache="direct"),
        CELL_LIKE,
        None,
    ),
    "figure2-smp": (figure2_source(), SMP_UNIFORM, None),
    "figure2-apu": (figure2_source(), APU_UNIFIED, None),
    "figure2-manycore": (figure2_source(), MANYCORE_GRID, None),
    "game-demo-apu": (
        game_demo_source(entity_count=12, pair_count=8, particles=8),
        APU_UNIFIED,
        None,
    ),
    "game-demo-manycore": (
        game_demo_source(entity_count=12, pair_count=8, particles=8),
        MANYCORE_GRID,
        None,
    ),
    "ai-kernel-manycore": (
        ai_kernel_source(entity_count=16),
        MANYCORE_GRID,
        None,
    ),
    "components": (
        component_system_source(num_types=5, entities_per_type=5),
        CELL_LIKE,
        None,
    ),
    "components-specialized": (
        component_system_source(
            num_types=5, entities_per_type=5, specialized=True
        ),
        CELL_LIKE,
        None,
    ),
    "ai-kernel-direct": (ai_kernel_source(entity_count=16), CELL_LIKE, None),
    "ai-kernel-victim": (
        ai_kernel_source(entity_count=16, cache="victim"),
        CELL_LIKE,
        None,
    ),
    "ai-kernel-setassoc": (
        ai_kernel_source(entity_count=16, cache="setassoc"),
        CELL_LIKE,
        None,
    ),
    "move-loop-raw": (move_loop_source(), CELL_LIKE, None),
    "move-loop-accessor": (
        move_loop_source(use_accessor=True, cache="direct"),
        CELL_LIKE,
        None,
    ),
    "word-struct": (word_struct_source(), DSP_WORD, None),
    "word-struct-emulate": (
        word_struct_source(),
        DSP_WORD,
        CompileOptions(wordaddr_mode="emulate"),
    ),
    "game-demo": (
        game_demo_source(entity_count=12, pair_count=8, particles=8),
        CELL_LIKE,
        None,
    ),
    "game-demo-optimized": (
        game_demo_source(entity_count=12, pair_count=8, particles=8),
        CELL_LIKE,
        CompileOptions(optimize=True),
    ),
    "game-demo-demand": (
        game_demo_source(entity_count=12, pair_count=8, particles=8),
        CELL_LIKE,
        CompileOptions(demand_load=True),
    ),
}


class TestPaperWorkloads:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_engines_identical(self, name):
        source, config, options = WORKLOADS[name]
        ref, codegen = run_both(source, config, options)
        assert codegen.printed  # the workload actually did something


class TestFuzzCorpus:
    """Randomized well-typed programs, every engine, fixed seeds.

    The target rotates through the whole registry so each preset —
    word-addressed dsp and the unified-memory/many-accelerator presets
    included — sees a share of the corpus."""

    @pytest.mark.parametrize("seed", range(24))
    def test_engines_identical(self, seed):
        rng = random.Random(seed)
        offloaded = bool(seed % 2)
        source = ProgramBuilder(rng, offloaded).build(5)
        config = CONFIGS[TARGET_NAMES[seed % len(TARGET_NAMES)]]
        options = CompileOptions(optimize=bool(seed % 3 == 0))
        run_both(source, config, options)


class TestTrapEquivalence:
    """Trap paths must raise the same exception with the same message."""

    def _trap_both(self, source, config=CELL_LIKE, max_instructions=None):
        program = compile_program(source, config)
        messages = []
        for engine in ALL_ENGINES:
            options = RunOptions(engine=engine)
            if max_instructions is not None:
                options.max_instructions = max_instructions
            with pytest.raises(RuntimeTrap) as excinfo:
                run_program(program, Machine(config), options)
            messages.append(str(excinfo.value))
        assert all(m == messages[0] for m in messages), messages
        return messages[0]

    def test_division_by_zero(self):
        message = self._trap_both(
            "void main() { int z = 0; print_int(4 / z); }"
        )
        assert "division by zero" in message

    def test_remainder_by_zero(self):
        message = self._trap_both(
            "void main() { int z = 0; print_int(4 % z); }"
        )
        assert "remainder by zero" in message

    def test_instruction_budget(self):
        message = self._trap_both(
            "void main() { int i = 0; while (i < 100000) { i = i + 1; } }",
            max_instructions=5_000,
        )
        assert message == "instruction budget exceeded (5000)"

    def test_null_function_pointer_call(self):
        source = """
        int twice(int x) { return x * 2; }
        void main() {
            int (*op)(int) = null;
            print_int(op(3));
        }
        """
        message = self._trap_both(source)
        assert "indirect call" in message or "null" in message

    def test_bad_indirect_call_hand_built_ir(self):
        from repro.ir.instructions import Const, ICall, Ret

        program = compile_program("void main() { }", CELL_LIKE)
        main = program.functions["main"]
        main.code = [
            Const(dst=0, value=0xBAD),
            ICall(dst=None, func_id=0, args=[]),
            Ret(src=None),
        ]
        main.num_regs = 1
        messages = []
        for engine in ALL_ENGINES:
            with pytest.raises(RuntimeTrap) as excinfo:
                run_program(
                    program, Machine(CELL_LIKE), RunOptions(engine=engine)
                )
            messages.append(str(excinfo.value))
        assert all(m == messages[0] for m in messages), messages
        assert "indirect call through bad function id 0xbad" in messages[0]


def _burst_offloads_source(count: int = 12, work: int = 120) -> str:
    """``count`` expression-form offloads launched before any join —
    enough concurrency to exercise bounded queues."""
    launches = "\n".join(
        f"    __offload_handle_t h{i} = __offload {{ int w = 0;"
        f" for (int k = 0; k < {work}; k++) {{ w += k; }} g_out[{i}] = w; }};"
        for i in range(count)
    )
    joins = "\n".join(f"    __offload_join(h{i});" for i in range(count))
    return f"""
int g_out[{count}];
void main() {{
{launches}
{joins}
    int total = 0;
    for (int i = 0; i < {count}; i++) {{ total += g_out[i]; }}
    print_int(total);
}}
"""


class TestSchedulerEquivalence:
    """Explicit scheduling preserves engine equivalence: every policy is
    cycle- and trace-identical between the two engines (the sched lane
    included), with matching utilization accounting."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_policies_identical_on_figure2(self, policy):
        ref, codegen = run_both(
            figure2_source(frames=4),
            run_options=RunOptions(sched=SchedOptions(policy=policy)),
        )
        assert ref.sched is not None
        assert ref.sched.policy == policy
        assert codegen.sched.as_dict() == ref.sched.as_dict()

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_policies_identical_on_game_demo(self, policy):
        run_both(
            game_demo_source(entity_count=12, pair_count=8, particles=8),
            run_options=RunOptions(sched=SchedOptions(policy=policy)),
        )

    def test_bounded_queue_identical(self):
        ref, codegen = run_both(
            _burst_offloads_source(),
            run_options=RunOptions(
                sched=SchedOptions(policy="greedy", queue_depth=1)
            ),
        )
        assert ref.sched.stalls > 0
        assert codegen.sched.stalls == ref.sched.stalls

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_policies_identical_on_manycore(self, policy):
        """Cold uploads and the per-target queue depth (queue_depth
        stays None, so manycore's sched_queue_depth=2 binds) don't
        break engine equivalence."""
        ref, codegen = run_both(
            figure2_source(frames=4),
            config=MANYCORE_GRID,
            run_options=RunOptions(sched=SchedOptions(policy=policy)),
        )
        assert ref.sched.queue_depth == MANYCORE_GRID.sched_queue_depth
        assert ref.sched.uploads > 0  # cold code uploads were modelled
        assert codegen.sched.as_dict() == ref.sched.as_dict()

    def test_manycore_default_backpressure_identical(self):
        """A burst of offloads on manycore stalls under the target's
        *default* queue depth — no explicit --queue-depth needed — and
        both engines agree on the stall accounting."""
        ref, codegen = run_both(
            _burst_offloads_source(count=80),
            config=MANYCORE_GRID,
            run_options=RunOptions(sched=SchedOptions(policy="greedy")),
        )
        assert ref.sched.queue_depth == 2
        assert ref.sched.stalls > 0
        assert codegen.sched.stalls == ref.sched.stalls

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("engine", ["codegen"])
    def test_repeat_runs_byte_identical(self, policy, engine):
        """Two runs under one policy export byte-identical traces."""
        program = compile_program(figure2_source(frames=3), CELL_LIKE)
        exports = []
        for _ in range(2):
            machine = Machine(CELL_LIKE)
            recorder = TraceRecorder(capacity=1 << 18)
            machine.attach_trace(recorder)
            result = run_program(
                program,
                machine,
                RunOptions(engine=engine, sched=SchedOptions(policy=policy)),
            )
            exports.append((chrome_trace_json(recorder), result.cycles))
        assert exports[0] == exports[1]


class TestDeterminism:
    """The translated engine is deterministic run-to-run, and its
    per-program translation cache survives across machines without
    leaking state between runs."""

    @pytest.mark.parametrize("engine", ["codegen"])
    def test_repeat_runs_identical(self, engine):
        program = compile_program(figure2_source(), CELL_LIKE)
        first = run_program(
            program, Machine(CELL_LIKE), RunOptions(engine=engine)
        )
        second = run_program(
            program, Machine(CELL_LIKE), RunOptions(engine=engine)
        )
        assert first.printed == second.printed
        assert first.cycles == second.cycles
        assert (
            first.machine.perf.as_dict() == second.machine.perf.as_dict()
        )

    def test_codegen_module_cached_on_program(self):
        program = compile_program(figure1_source(), CELL_LIKE)
        run_program(program, Machine(CELL_LIKE), RunOptions(engine="codegen"))
        module = program._cg_module
        run_program(program, Machine(CELL_LIKE), RunOptions(engine="codegen"))
        assert program._cg_module is module  # second run reused the module
        # The module is the dispatch table of exec'd code objects; no
        # copy of the generated source rides along.
        assert set(module[2]) == set(program.functions)
        assert "_cg_source" not in program.__dict__

    def test_engine_selection(self):
        program = compile_program(figure1_source(), CELL_LIKE)
        interp = make_interpreter(
            program, Machine(CELL_LIKE), RunOptions(engine="codegen")
        )
        assert isinstance(interp, CodegenInterpreter)
        interp = make_interpreter(
            program, Machine(CELL_LIKE), RunOptions(engine="reference")
        )
        assert not isinstance(interp, CodegenInterpreter)
        assert ENGINE_NAMES == ("codegen", "reference")
        # "compiled" named the deleted closure engine.
        for unknown in ("jit", "compiled"):
            with pytest.raises(ValueError, match="unknown execution engine"):
                make_interpreter(
                    program, Machine(CELL_LIKE), RunOptions(engine=unknown)
                )
