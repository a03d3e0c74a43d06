"""The pass-manager pipeline: ordering, timings, dumps."""

import pytest

from repro.compiler.driver import CompileOptions, compile_program
from repro.compiler.passes import (
    DEFAULT_PASS_NAMES,
    Pass,
    PassManager,
    format_timings,
)
from repro.errors import TypeCheckError
from repro.ir.serialize import program_to_dict
from repro.machine.config import CELL_LIKE, SMP_UNIFORM

SOURCE = """
class Shape {
    int id;
    virtual int area() { return 7; }
};
Shape g_s;
Shape* g_p;
void main() {
    g_p = &g_s;
    int result = 0;
    __offload [domain(Shape::area)] {
        Shape* p = g_p;
        result = p->area();
    };
    print_int(result);
}
"""


class TestRegistry:
    def test_default_order(self):
        assert PassManager.default().names() == list(DEFAULT_PASS_NAMES)
        assert DEFAULT_PASS_NAMES == (
            "parse",
            "sema",
            "layout",
            "domains",
            "offload-meta",
            "lower-host",
            "drain-duplicates",
            "optimize",
            "validate",
            "analyze",
        )

    def test_get_unknown_pass(self):
        with pytest.raises(KeyError, match="no pass named"):
            PassManager.default().get("inline")

    def test_duplicate_pass_name_rejected(self):
        passes = [*PassManager.default().passes, Pass("parse", lambda ctx: None)]
        with pytest.raises(ValueError, match="duplicate pass names"):
            PassManager(passes)

    def test_custom_pass_runs_and_sees_program(self):
        seen = {}

        def spy(ctx):
            seen["functions"] = sorted(ctx.program.functions)

        passes = list(PassManager.default().passes)
        at = [p.name for p in passes].index("drain-duplicates") + 1
        passes.insert(at, Pass("spy", spy))
        ctx = PassManager(passes).run(SOURCE, CELL_LIKE, CompileOptions())
        assert "main" in seen["functions"]
        assert any(name.startswith("__offload_") for name in seen["functions"])


class TestExecution:
    def test_pipeline_output_matches_compile_program(self):
        ctx = PassManager.default().run(SOURCE, CELL_LIKE, CompileOptions())
        via_driver = compile_program(SOURCE, CELL_LIKE)
        assert sorted(ctx.program.functions) == sorted(via_driver.functions)
        assert program_to_dict(ctx.program) == program_to_dict(via_driver)

    def test_timings_cover_every_pass(self):
        ctx = PassManager.default().run(SOURCE, CELL_LIKE, CompileOptions())
        assert [t.name for t in ctx.timings] == list(DEFAULT_PASS_NAMES)
        assert all(t.seconds >= 0 for t in ctx.timings)

    def test_optimize_skipped_without_flag(self):
        ctx = PassManager.default().run(SOURCE, CELL_LIKE, CompileOptions())
        timing = next(t for t in ctx.timings if t.name == "optimize")
        assert not timing.ran
        ctx = PassManager.default().run(
            SOURCE, CELL_LIKE, CompileOptions(optimize=True)
        )
        timing = next(t for t in ctx.timings if t.name == "optimize")
        assert timing.ran

    def test_stop_after_front_end(self):
        ctx = PassManager.default().run(
            SOURCE, CELL_LIKE, CompileOptions(), stop_after="sema"
        )
        assert ctx.info is not None
        assert ctx.program is None
        assert [t.name for t in ctx.timings] == ["parse", "sema"]

    def test_stop_after_unknown_pass_raises_before_running(self):
        with pytest.raises(KeyError):
            PassManager.default().run(
                SOURCE, CELL_LIKE, CompileOptions(), stop_after="nope"
            )

    def test_compile_errors_propagate(self):
        bad = "void main() { undeclared = 3; }"
        with pytest.raises(TypeCheckError):
            PassManager.default().run(bad, CELL_LIKE, CompileOptions())


class TestDumps:
    def test_dump_after_each_pass(self):
        for name in DEFAULT_PASS_NAMES:
            ctx = PassManager.default().run(
                SOURCE,
                CELL_LIKE,
                CompileOptions(optimize=True),
                dump_after=(name,),
            )
            assert isinstance(ctx.dumps[name], str)
            assert ctx.dumps[name]

    def test_parse_dump_lists_decls(self):
        ctx = PassManager.default().run(
            SOURCE, CELL_LIKE, CompileOptions(), dump_after=("parse",)
        )
        assert "class Shape" in ctx.dumps["parse"]
        assert "func main" in ctx.dumps["parse"]

    def test_domains_dump_names_methods(self):
        ctx = PassManager.default().run(
            SOURCE, CELL_LIKE, CompileOptions(), dump_after=("domains",)
        )
        assert "Shape::area" in ctx.dumps["domains"]

    def test_validate_dump_is_full_ir(self):
        ctx = PassManager.default().run(
            SOURCE, CELL_LIKE, CompileOptions(), dump_after=("validate",)
        )
        assert "func main" in ctx.dumps["validate"]
        assert "offload #0" in ctx.dumps["validate"]

    def test_domains_dump_empty_on_smp_without_duplicates(self):
        ctx = PassManager.default().run(
            SOURCE, SMP_UNIFORM, CompileOptions(), dump_after=("domains",)
        )
        # Shared-memory targets dispatch through plain vtables; the
        # table exists but carries no compiled duplicates.
        assert "0 outer entr(ies)" in ctx.dumps["domains"]


class TestTimingFormat:
    def test_format_timings_table(self):
        ctx = PassManager.default().run(SOURCE, CELL_LIKE, CompileOptions())
        table = format_timings(ctx.timings)
        assert "parse" in table
        assert "(skipped)" in table  # optimize without -O
        assert table.splitlines()[-1].startswith("total")
