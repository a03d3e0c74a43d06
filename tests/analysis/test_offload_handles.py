"""W-offload-unjoined: the static handle check and the runtime audit."""

from repro.analysis.offloads import check_function, check_program
from repro.analysis.runner import run_analyses
from repro.compiler.driver import compile_program
from repro.machine.config import CELL_LIKE
from tests.conftest import run_source

LEAKY = """
int g = 0;
void main() {
    __offload_handle_t h = __offload { g = 7; };
    print_int(1);
}
"""

JOINED = """
int g = 0;
void main() {
    __offload_handle_t h = __offload { g = 7; };
    __offload_join(h);
    print_int(g);
}
"""



def findings_for(source):
    program = compile_program(source, CELL_LIKE)
    return check_program(program, file="<test>")


class TestStaticCheck:
    def test_leaked_handle_flagged(self):
        findings = findings_for(LEAKY)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.code == "W-offload-unjoined"
        assert finding.severity == "warning"
        assert finding.function == "main"
        assert "never joined" in finding.message

    def test_joined_handle_clean(self):
        assert findings_for(JOINED) == []

    def test_join_through_alias_clean(self):
        # Source can't copy handles (E-handle-init), but IR can: a
        # Move-aliased handle joined through the alias is clean.
        from repro.ir.instructions import Move, OffloadJoin, OffloadLaunch, Ret
        from repro.ir.module import IRFunction

        function = IRFunction(
            name="main", params=[], space="host", num_regs=2,
            code=[
                OffloadLaunch(dst=0, entry="__offload_0", offload_id=0),
                Move(dst=1, src=0),
                OffloadJoin(handle=1),
                Ret(src=None),
            ],
        )
        assert check_function(function) == []

    def test_overwritten_alias_still_flagged(self):
        from repro.ir.instructions import Const, OffloadJoin, OffloadLaunch, Ret
        from repro.ir.module import IRFunction

        # The handle register is clobbered before the join: the join
        # synchronizes garbage, not the launch.
        function = IRFunction(
            name="main", params=[], space="host", num_regs=1,
            code=[
                OffloadLaunch(dst=0, entry="__offload_0", offload_id=0),
                Const(dst=0, value=5),
                OffloadJoin(handle=0),
                Ret(src=None),
            ],
        )
        findings = check_function(function)
        assert [f.code for f in findings] == ["W-offload-unjoined"]

    def test_escaping_handle_not_flagged(self):
        from repro.ir.instructions import Call, OffloadLaunch, Ret
        from repro.ir.module import IRFunction

        # A handle passed to another function may be joined there.
        function = IRFunction(
            name="main", params=[], space="host", num_regs=1,
            code=[
                OffloadLaunch(dst=0, entry="__offload_0", offload_id=0),
                Call(dst=None, callee="joiner", args=[0]),
                Ret(src=None),
            ],
        )
        assert check_function(function) == []

    def test_statement_form_offload_clean(self):
        # `__offload { ... };` auto-joins in the lowerer.
        assert findings_for(
            "int g; void main() { __offload { g = 1; }; print_int(g); }"
        ) == []

    def test_two_launches_one_joined(self):
        source = """
        int g_a = 0; int g_b = 0;
        void main() {
            __offload_handle_t a = __offload { g_a = 1; };
            __offload_handle_t b = __offload { g_b = 2; };
            __offload_join(a);
            print_int(g_a);
        }
        """
        findings = findings_for(source)
        assert len(findings) == 1
        assert "offload #1" in findings[0].message

    def test_runner_integration(self):
        program = compile_program(LEAKY, CELL_LIKE)
        result = run_analyses(program, CELL_LIKE, file="<test>")
        codes = [f.code for f in result.findings]
        assert "W-offload-unjoined" in codes
        assert any(
            t.analysis == "offload-handles" for t in result.timings
        )

    def test_check_function_only_sees_host_launches(self):
        program = compile_program(JOINED, CELL_LIKE)
        for function in program.accel_functions():
            assert check_function(function) == []


class TestRuntimeAudit:
    def test_unjoined_handle_reported_at_run_end(self):
        result = run_source(LEAKY)
        codes = [f.code for f in result.diagnostics]
        assert codes == ["W-offload-unjoined"]
        finding = result.diagnostics[0]
        assert finding.analysis == "offload-audit"
        assert "never joined" in finding.message
        assert "accelerator" in finding.message

    def test_joined_run_is_clean(self):
        assert run_source(JOINED).diagnostics == []

    def test_audit_does_not_change_cycles(self):
        # Purely observational: same program with and without the leak
        # differs only by the join cost, not by any audit overhead.
        leaky = run_source(LEAKY)
        assert leaky.printed == [1]
        assert leaky.cycles > 0

    def test_audit_identical_between_engines(self):
        from repro.machine.machine import Machine
        from repro.vm.interpreter import (
            ENGINE_NAMES,
            RunOptions,
            run_program,
        )

        program = compile_program(LEAKY, CELL_LIKE)
        messages = []
        for engine in ENGINE_NAMES:
            result = run_program(
                program, Machine(CELL_LIKE), RunOptions(engine=engine)
            )
            messages.append([f.message for f in result.diagnostics])
        assert messages[0] == messages[1]
        assert messages[0]
