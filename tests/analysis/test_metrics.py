"""Tests for the source-effort metrics."""

from repro.analysis.effort import count_loc, source_delta
from repro.game.sources import ai_kernel_source


class TestCountLoc:
    def test_counts_code_lines(self):
        assert count_loc("int a;\nint b;\n") == 2

    def test_skips_blank_lines(self):
        assert count_loc("int a;\n\n\nint b;\n") == 2

    def test_skips_line_comments(self):
        assert count_loc("// header\nint a; // trailing\n") == 1

    def test_skips_block_comments(self):
        assert count_loc("/* one\n two\n three */\nint a;\n") == 1

    def test_code_after_block_comment_counts(self):
        assert count_loc("/* x */ int a;\n") == 1

    def test_empty_source(self):
        assert count_loc("") == 0


class TestSourceDelta:
    def test_added_lines_counted(self):
        baseline = "int a;\nint b;\n"
        modified = "int a;\nint extra;\nint b;\n"
        delta = source_delta(baseline, modified)
        assert delta.added_lines == 1
        assert delta.removed_lines == 0

    def test_removed_lines_counted(self):
        delta = source_delta("int a;\nint b;\n", "int a;\n")
        assert delta.removed_lines == 1

    def test_duplicate_lines_counted_as_multiset(self):
        delta = source_delta("x++;\n", "x++;\nx++;\n")
        assert delta.added_lines == 1

    def test_ai_offload_delta_is_modest(self):
        """The paper: offloading the AI cost ~200 additional lines on a
        AAA codebase.  On our (much smaller) kernel the delta is a
        handful of lines — the offload wrapper and annotations."""
        baseline = ai_kernel_source(offloaded=False)
        offloaded = ai_kernel_source(offloaded=True)
        delta = source_delta(baseline, offloaded)
        assert 0 < delta.added_lines <= 20
