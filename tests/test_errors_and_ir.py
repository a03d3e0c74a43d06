"""Unit tests for the diagnostics machinery, source mapping, IR
containers and the IR printer."""

import copy
import pickle

import pytest

from repro.errors import (
    CompileError,
    Diagnostic,
    MissingDuplicateError,
    SourceLocation,
    SourceSpan,
)
from repro.ir.instructions import (
    AccSpace, BinOp, Call, CJump, Const, Jump, Load, Ret, UnOp,
)
from repro.ir.module import IRFunction, IRProgram
from repro.ir.printer import format_function, format_program
from repro.lang.source import SourceFile


class TestDiagnostics:
    def _span(self):
        return SourceSpan(
            SourceLocation("game.om", 3, 7), SourceLocation("game.om", 3, 12)
        )

    def test_render_with_location(self):
        diagnostic = Diagnostic("E-test", "something broke", self._span())
        text = diagnostic.render()
        assert text.startswith("game.om:3:7: error[E-test]: something broke")

    def test_render_without_location(self):
        text = Diagnostic("E-test", "no main").render()
        assert "error[E-test]" in text

    def test_notes_appended(self):
        diagnostic = Diagnostic(
            "E-test", "msg", None, notes=["try this", "or that"]
        )
        assert diagnostic.render().count("note:") == 2

    def test_compile_error_single(self):
        error = CompileError.single("E-x", "boom", self._span())
        assert [d.code for d in error.diagnostics] == ["E-x"]
        assert "boom" in str(error)

    def test_missing_duplicate_message_guides_programmer(self):
        error = MissingDuplicateError("Ghost::move", "L", ["O"])
        message = str(error)
        assert "Ghost::move" in message
        assert "'L'" in message
        assert "domain annotation" in message


class TestSourceFile:
    TEXT = "line one\nline two\nthird"

    def test_offset_to_location(self):
        source = SourceFile(self.TEXT, "f.om")
        location = source.location(9)  # first char of line two
        assert (location.line, location.column) == (2, 1)

    def test_mid_line_column(self):
        source = SourceFile(self.TEXT)
        location = source.location(14)
        assert (location.line, location.column) == (2, 6)

    def test_offset_clamped(self):
        source = SourceFile(self.TEXT)
        assert source.location(10_000).line == 3

    def test_span(self):
        source = SourceFile(self.TEXT)
        span = source.span(0, 4)
        assert span.start.column == 1
        assert span.end.column == 5

    def test_span_is_an_immutable_value(self):
        span = SourceFile(self.TEXT, "f.om").span(9, 13)
        twin = SourceSpan(SourceLocation("f.om", 2, 1), SourceLocation("f.om", 2, 5))
        assert span == twin and hash(span) == hash(twin)
        assert (span.start, span.end) == (twin.start, twin.end)
        assert copy.deepcopy(span) == pickle.loads(pickle.dumps(span)) == span
        assert repr(span) == (
            "SourceSpan(start=SourceLocation(filename='f.om', line=2, column=1), "
            "end=SourceLocation(filename='f.om', line=2, column=5))"
        )
        assert str(span) == "f.om:2:1"
        with pytest.raises(AttributeError):
            span.start = twin.end


class TestIRContainers:
    def _function(self):
        return IRFunction(
            name="f",
            params=["a"],
            num_regs=4,
            code=[
                Const(dst=1, value=5),
                BinOp(op="+", dst=2, a=0, b=1),
                Jump(label="end"),
                Ret(src=2),
            ],
            labels={"end": 3},
        )

    def test_resolve_labels_passes(self):
        self._function().check(())

    def test_resolve_labels_rejects_unknown_target(self):
        function = self._function()
        function.code[2] = Jump(label="nowhere")
        with pytest.raises(ValueError):
            function.check(())

    def test_resolve_labels_checks_cjump(self):
        function = self._function()
        function.code[2] = CJump(cond=1, then_label="end", else_label="lost")
        with pytest.raises(ValueError):
            function.check(())

    def test_program_function_lookup(self):
        program = IRProgram()
        program.functions["f"] = self._function()
        assert program.function("f").name == "f"
        with pytest.raises(KeyError):
            program.function("g")

    def test_program_validate_requires_entry(self):
        program = IRProgram()
        with pytest.raises(ValueError):
            program.validate()

    def test_program_validate_passes(self):
        program = IRProgram(entry="f")
        program.functions["f"] = self._function()
        program.validate()

    @pytest.mark.parametrize(
        "instr, what",
        [
            (BinOp(op="**", dst=2, a=0, b=1), "operator"),
            (UnOp(op="bitrev", dst=2, a=0), "operator"),
            (Call(dst=2, callee="g", args=[0]), "callee"),
        ],
        ids=["binop", "unop", "call"],
    )
    def test_program_validate_rejects_what_no_engine_can_run(self, instr, what):
        # What codegen would have no translation for (and the reference
        # engine no table entry or function): rejected at the IR
        # boundary, naming the function and the instruction.
        program = IRProgram(entry="f")
        program.functions["f"] = function = self._function()
        function.code[1] = instr
        with pytest.raises(ValueError) as error:
            program.validate()
        assert str(error.value) == (
            f"f: instruction 1 names an unknown {what}: {instr!r}"
        )


class TestPrinter:
    def test_function_dump_contains_labels_and_comments(self):
        function = IRFunction(
            name="f",
            params=[],
            num_regs=2,
            code=[
                Const(dst=0, value=1, comment="the answer"),
                Load(dst=1, addr=0, size=4, space=AccSpace.OUTER),
                Ret(src=1),
            ],
            labels={"top": 0},
        )
        text = format_function(function)
        assert "func f()" in text
        assert "top:" in text
        assert "the answer" in text
        assert "load.outer" in text

    def test_program_dump(self):
        from repro import CELL_LIKE, compile_program

        program = compile_program(
            "int g; void main() { __offload { g = 1; }; }", CELL_LIKE
        )
        text = format_program(program)
        assert "global g" in text
        assert "offload #0" in text
        assert "func main" in text
        assert "func __offload_0" in text

    def test_every_instruction_describes_itself(self):
        from repro.ir import instructions as mod
        from repro.ir.instructions import Instr

        for name in dir(mod):
            cls = getattr(mod, name)
            if (
                isinstance(cls, type)
                and issubclass(cls, Instr)
                and cls is not Instr
            ):
                assert isinstance(cls().describe(), str)
