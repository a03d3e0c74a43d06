"""End-to-end execution tests: arithmetic, control flow, functions."""

import pytest

from repro.compiler.driver import compile_program
from repro.errors import RuntimeTrap
from repro.game.sources import figure2_source
from repro.machine.config import resolve_target, target_names
from repro.machine.machine import Machine
from repro.vm.interpreter import ENGINE_NAMES, RunOptions, run_program
from tests.conftest import printed, run_source


class TestArithmetic:
    def test_integer_ops(self):
        assert printed(
            "void main() { print_int(7 + 3 * 2 - 4 / 2); }"
        ) == [11]

    def test_division_truncates_toward_zero(self):
        assert printed("void main() { print_int(-7 / 2); }") == [-3]

    def test_remainder_keeps_dividend_sign(self):
        assert printed("void main() { print_int(-7 % 3); }") == [-1]

    def test_division_by_zero_traps(self):
        with pytest.raises(RuntimeTrap):
            run_source("void main() { int z = 0; print_int(1 / z); }")

    def test_int32_wraparound(self):
        assert printed(
            "void main() { int big = 2147483647; print_int(big + 1); }"
        ) == [-2147483648]

    def test_bitwise_ops(self):
        assert printed(
            "void main() { print_int((12 & 10) | (1 ^ 3)); }"
        ) == [10]

    def test_shifts(self):
        assert printed("void main() { print_int(1 << 4); }") == [16]
        assert printed("void main() { print_int(-16 >> 2); }") == [-4]

    def test_unsigned_arithmetic(self):
        assert printed(
            "void main() { uint u = 0; u -= 1; print_int((int)(u >> 28)); }"
        ) == [15]

    def test_float_arithmetic(self):
        assert printed("void main() { print_float(0.5f * 4.0f + 1.0f); }") == [3.0]

    def test_int_to_float_promotion(self):
        assert printed("void main() { print_float(3 / 2.0f); }") == [1.5]

    def test_float_to_int_cast_truncates(self):
        assert printed("void main() { print_int((int)2.9f); }") == [2]
        assert printed("void main() { print_int((int)(0.0f - 2.9f)); }") == [-2]

    def test_unary_ops(self):
        assert printed("void main() { print_int(-(5)); }") == [-5]
        assert printed("void main() { print_int(!0); }") == [1]
        assert printed("void main() { print_int(~0); }") == [-1]

    def test_char_narrowing(self):
        assert printed(
            "void main() { char c = (char)300; print_int(c); }"
        ) == [44]

    def test_comparisons(self):
        assert printed(
            "void main() { print_int(3 < 5); print_int(5 <= 4); "
            "print_int(2 == 2); print_int(2 != 2); }"
        ) == [1, 0, 1, 0]

    def test_math_intrinsics(self):
        assert printed("void main() { print_float(sqrtf(9.0f)); }") == [3.0]
        assert printed("void main() { print_int(imax(3, iabs(-7))); }") == [7]
        assert printed("void main() { print_float(fminf(1.5f, 0.5f)); }") == [0.5]


class TestControlFlow:
    def test_if_else(self):
        assert printed(
            "void main() { if (2 > 1) { print_int(1); } else { print_int(2); } }"
        ) == [1]

    def test_while_loop(self):
        assert printed(
            """
            void main() {
                int i = 0; int sum = 0;
                while (i < 5) { sum += i; i++; }
                print_int(sum);
            }
            """
        ) == [10]

    def test_for_loop(self):
        assert printed(
            """
            void main() {
                int product = 1;
                for (int i = 1; i <= 5; i++) { product *= i; }
                print_int(product);
            }
            """
        ) == [120]

    def test_break(self):
        assert printed(
            """
            void main() {
                int i = 0;
                for (;;) { if (i == 3) { break; } i++; }
                print_int(i);
            }
            """
        ) == [3]

    def test_continue(self):
        assert printed(
            """
            void main() {
                int sum = 0;
                for (int i = 0; i < 6; i++) {
                    if (i % 2 == 0) { continue; }
                    sum += i;
                }
                print_int(sum);
            }
            """
        ) == [9]

    def test_short_circuit_and(self):
        assert printed(
            """
            int g = 0;
            int bump() { g++; return 1; }
            void main() {
                if (0 && bump()) { }
                print_int(g);
            }
            """
        ) == [0]

    def test_short_circuit_or(self):
        assert printed(
            """
            int g = 0;
            int bump() { g++; return 1; }
            void main() {
                if (1 || bump()) { }
                print_int(g);
            }
            """
        ) == [0]

    def test_logical_as_value(self):
        assert printed(
            "void main() { int r = (3 > 2) && (1 < 2); print_int(r); }"
        ) == [1]

    def test_nested_loops(self):
        assert printed(
            """
            void main() {
                int count = 0;
                for (int i = 0; i < 4; i++) {
                    for (int j = 0; j < i; j++) { count++; }
                }
                print_int(count);
            }
            """
        ) == [6]


class TestFunctions:
    def test_call_and_return(self):
        assert printed(
            "int add(int a, int b) { return a + b; }"
            "void main() { print_int(add(2, 3)); }"
        ) == [5]

    def test_recursion(self):
        assert printed(
            """
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            void main() { print_int(fib(10)); }
            """
        ) == [55]

    def test_void_function(self):
        assert printed(
            """
            int g = 0;
            void bump() { g = g + 1; }
            void main() { bump(); bump(); print_int(g); }
            """
        ) == [2]

    def test_out_parameter_via_pointer(self):
        assert printed(
            """
            void set(int* target, int value) { *target = value; }
            void main() { int x = 0; set(&x, 42); print_int(x); }
            """
        ) == [42]

    def test_float_return(self):
        assert printed(
            "float half(float v) { return v * 0.5f; }"
            "void main() { print_float(half(5.0f)); }"
        ) == [2.5]

    def test_main_return_value(self):
        result = run_source("int main() { return 7; }")
        assert result.return_value == 7


class TestGlobalsAndMemory:
    def test_global_initialiser(self):
        assert printed("int g = 99; void main() { print_int(g); }") == [99]

    def test_global_array_indexing(self):
        assert printed(
            """
            int g[5];
            void main() {
                for (int i = 0; i < 5; i++) { g[i] = i * i; }
                print_int(g[3]);
            }
            """
        ) == [9]

    def test_pointer_walk(self):
        assert printed(
            """
            int g[4];
            void main() {
                int* p = &g[0];
                for (int i = 0; i < 4; i++) { *p = i + 1; p++; }
                print_int(g[0] + g[3]);
            }
            """
        ) == [5]

    def test_pointer_difference(self):
        assert printed(
            """
            int g[8];
            void main() {
                int* a = &g[1];
                int* b = &g[6];
                print_int(b - a);
            }
            """
        ) == [5]

    def test_struct_fields(self):
        assert printed(
            """
            struct Vec { float x; float y; };
            Vec g_v;
            void main() {
                g_v.x = 1.5f;
                g_v.y = 2.5f;
                print_float(g_v.x + g_v.y);
            }
            """
        ) == [4.0]

    def test_nested_struct_access(self):
        assert printed(
            """
            struct Vec { float x; float y; };
            struct Entity { Vec pos; int id; };
            Entity g_e;
            void main() {
                g_e.pos.x = 3.0f;
                g_e.id = 7;
                print_float(g_e.pos.x);
                print_int(g_e.id);
            }
            """
        ) == [3.0, 7]

    def test_struct_copy_assignment(self):
        assert printed(
            """
            struct Vec { float x; float y; };
            Vec g_a; Vec g_b;
            void main() {
                g_a.x = 1.0f; g_a.y = 2.0f;
                g_b = g_a;
                g_a.x = 9.0f;
                print_float(g_b.x);
                print_float(g_b.y);
            }
            """
        ) == [1.0, 2.0]

    def test_local_array(self):
        assert printed(
            """
            void main() {
                int scratch[4];
                scratch[0] = 4; scratch[1] = 3;
                print_int(scratch[0] + scratch[1]);
            }
            """
        ) == [7]

    def test_char_array_bytes(self):
        assert printed(
            """
            char buf[4];
            void main() {
                buf[0] = 'H';
                buf[1] = 'i';
                print_char(buf[0]);
                print_char(buf[1]);
            }
            """
        ) == ["H", "i"]

    def test_pointer_through_struct_field(self):
        assert printed(
            """
            struct Node { int value; Node* next; };
            Node g_a; Node g_b;
            void main() {
                g_a.value = 1; g_a.next = &g_b;
                g_b.value = 2; g_b.next = null;
                Node* p = &g_a;
                int sum = 0;
                while (p != null) { sum += p->value; p = p->next; }
                print_int(sum);
            }
            """
        ) == [3]


class TestReusedMachine:
    @pytest.mark.parametrize("target", ["apu", "cell"])
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_each_run_starts_from_the_programs_initial_values(self, engine, target):
        """A run writes its whole static region, zeros included, so a
        machine an earlier run used does not leak that run's globals."""
        config = resolve_target(target)
        program = compile_program(
            "int g_count; int g_seed = 7;"
            " void main() { g_count = g_count + 1; g_seed = g_seed + 1;"
            " print_int(g_count); print_int(g_seed); }",
            config,
        )
        machine = Machine(config)
        runs = [
            run_program(program, machine, RunOptions(engine=engine)).printed
            for _ in range(4)
        ]
        assert runs == [[1, 8]] * 4

    @pytest.mark.parametrize("target", ["apu", "smp", "cell", "dsp"])
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_each_run_and_launch_starts_on_a_zeroed_stack(self, engine, target):
        """Stacks (the host's; a shared-memory accelerator's in main
        memory; an accelerator's in its local store) are set up once per
        machine and reused, but every run and launch reads the zeros a
        fresh region holds, on a reused machine as on a fresh one."""
        config = resolve_target(target)
        launches = 3 * config.num_accelerators
        program = compile_program(
            "void main() { int host[4]; print_int(host[1]); host[1] = 5;"
            f" for (int i = 0; i < {launches}; i = i + 1) {{"
            " __offload { int mine[4]; print_int(mine[2]); mine[2] = 9; }; } }",
            config,
        )
        options = RunOptions(engine=engine)
        once = Machine(config)
        fresh = run_program(program, once, options).printed
        machine = Machine(config)
        runs = [run_program(program, machine, options).printed for _ in range(3)]
        assert fresh == [0] * (1 + launches)
        assert runs == [fresh] * 3
        assert machine.heap.used == once.heap.used

    @pytest.mark.parametrize("target", target_names())
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_a_launch_never_reads_an_earlier_launchs_locals(self, engine, target):
        """Twelve launches of one offload print 0 every time on every
        target: a local store used to hand a launch what the launch
        before it on the same accelerator left (9 from the seventh
        launch on ``cell``, from the third on ``dsp``)."""
        config = resolve_target(target)
        program = compile_program(
            "void main() { for (int i = 0; i < 12; i = i + 1) {"
            " __offload { int mine[4]; print_int(mine[2]); mine[2] = 9; };"
            " } }",
            config,
        )
        result = run_program(program, Machine(config), RunOptions(engine=engine))
        assert result.printed == [0] * 12

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_a_default_machine_runs_figure2_past_its_old_heap_limit(self, engine):
        """A host stack per run used to exhaust a default ``cell``
        machine's heap on the twelfth run of Figure 2."""
        config = resolve_target("cell")
        program = compile_program(figure2_source(8, 6, frames=1), config)
        machine = Machine(config)
        options = RunOptions(engine=engine)
        first = run_program(program, machine, options)
        used = machine.heap.used
        for _ in range(15):
            again = run_program(program, machine, options)
            assert again.printed == first.printed
        assert machine.heap.used == used

    @pytest.mark.parametrize("target", ["apu", "smp"])
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_eighty_launches_on_a_shared_memory_target(self, engine, target):
        """A stack per launch used to exhaust the heap: 80 Figure 2
        frames on ``apu`` raised ``MemoryFault``.  Each accelerator's
        stack is carved out at its first launch and reused."""
        config = resolve_target(target)
        program = compile_program(figure2_source(8, 4, frames=80), config)
        machine = Machine(config)
        result = run_program(program, machine, RunOptions(engine=engine))
        assert len(result.printed) == 3
        assert set(machine.stacks) <= {machine.host.name} | {
            core.name for core in machine.accelerators
        }
