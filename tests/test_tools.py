"""Tests for the command-line tools."""

import json
import os
import subprocess
import sys

import pytest

from repro.tools import check as check_tool
from repro.tools import run as run_tool
from tests.sarif import validate_sarif

CLEAN = """
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

BROKEN = "void main() { int x = ; }"

RACY = """
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

# An uncached offload chasing outer memory in a loop: warning-severity
# W-outer-loop-traffic, no errors.
OUTER_LOOP = """
int g_data[64];
int g_sum;
void main() {
    __offload {
        int total = 0;
        for (int i = 0; i < 64; i++) {
            total = total + g_data[i];
        }
        g_sum = total;
    };
}
"""


@pytest.fixture
def source_file(tmp_path):
    def write(text):
        path = tmp_path / "program.om"
        path.write_text(text)
        return str(path)

    return write


class TestRunTool:
    def test_runs_and_prints(self, source_file, capsys):
        status = run_tool.main([source_file(CLEAN)])
        assert status == 0
        captured = capsys.readouterr()
        assert "[host] 7" in captured.out
        assert "simulated cycles" in captured.err

    def test_target_selection(self, source_file, capsys):
        status = run_tool.main([source_file(CLEAN), "--target", "smp"])
        assert status == 0
        assert "smp-uniform" in capsys.readouterr().err

    def test_compile_error_exit_code(self, source_file, capsys):
        status = run_tool.main([source_file(BROKEN)])
        assert status == 1
        assert "error" in capsys.readouterr().err

    def test_dump_ir(self, source_file, capsys):
        status = run_tool.main([source_file(CLEAN), "--dump-ir"])
        assert status == 0
        out = capsys.readouterr().out
        assert "func main" in out
        assert "offload #0" in out

    def test_perf_counters(self, source_file, capsys):
        status = run_tool.main([source_file(CLEAN), "--perf"])
        assert status == 0
        assert "dispatch.vcalls" in capsys.readouterr().err

    def test_race_abort_exit_code(self, source_file, capsys):
        status = run_tool.main([source_file(RACY)])
        assert status == 2
        assert "race" in capsys.readouterr().err.lower()

    def test_record_races_keeps_running(self, source_file, capsys):
        status = run_tool.main([source_file(RACY), "--record-races"])
        assert status == 0
        assert "race" in capsys.readouterr().err.lower()

    def test_optimize_flag(self, source_file, capsys):
        status = run_tool.main([source_file(CLEAN), "--optimize"])
        assert status == 0
        assert "[host] 7" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        status = run_tool.main(["/nonexistent/nothing.om"])
        assert status == 1

    def test_dump_after_pass(self, source_file, capsys):
        status = run_tool.main([source_file(CLEAN), "--dump-after", "parse"])
        assert status == 0
        captured = capsys.readouterr()
        assert "class Shape" in captured.out
        assert "[host]" not in captured.out  # dump only, no run

    def test_dump_after_domains(self, source_file, capsys):
        status = run_tool.main([source_file(CLEAN), "--dump-after", "domains"])
        assert status == 0
        assert "Shape::area" in capsys.readouterr().out

    def test_dump_after_rejects_unknown_pass(self, source_file, capsys):
        with pytest.raises(SystemExit):
            run_tool.main([source_file(CLEAN), "--dump-after", "inline"])

    def test_time_passes(self, source_file, capsys):
        status = run_tool.main([source_file(CLEAN), "--time-passes"])
        assert status == 0
        captured = capsys.readouterr()
        assert "[host] 7" in captured.out  # still runs the program
        err = captured.err
        for name in ("parse", "sema", "drain-duplicates", "total"):
            assert name in err
        assert "(skipped)" in err  # optimize without --optimize

    def test_emit_artifact_then_run_it(self, source_file, tmp_path, capsys):
        artifact = str(tmp_path / "program.json")
        status = run_tool.main(
            [source_file(CLEAN), "--emit-artifact", artifact]
        )
        assert status == 0
        assert "artifact written" in capsys.readouterr().err
        status = run_tool.main([artifact])
        assert status == 0
        captured = capsys.readouterr()
        assert "[host] 7" in captured.out
        assert "simulated cycles" in captured.err

    def test_artifact_run_resolves_target_from_metadata(
        self, source_file, tmp_path, capsys
    ):
        artifact = str(tmp_path / "program.json")
        run_tool.main(
            [source_file(CLEAN), "--target", "smp",
             "--emit-artifact", artifact]
        )
        capsys.readouterr()
        # Default --target is cell; the artifact says smp-uniform.
        status = run_tool.main([artifact])
        assert status == 0
        assert "smp-uniform" in capsys.readouterr().err

    def test_corrupt_artifact_rejected(self, tmp_path, capsys):
        artifact = tmp_path / "bad.json"
        artifact.write_text('{"format": "tarball"}')
        status = run_tool.main([str(artifact)])
        assert status == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "breakage",
        ["no globals", "code is 7", "version 1", "bare record", "truncated"],
    )
    def test_malformed_artifact_is_one_error_line(
        self, source_file, tmp_path, capsys, breakage
    ):
        artifact = tmp_path / "program.json"
        run_tool.main([source_file(CLEAN), "--emit-artifact", str(artifact)])
        text = artifact.read_text()
        data = json.loads(text)
        function = next(iter(data["functions"].values()))
        if breakage == "no globals":
            del data["globals"]
        elif breakage == "code is 7":
            function["code"] = 7
        elif breakage == "version 1":
            data["version"] = 1
        elif breakage == "bare record":
            function["code"][0] = ["BinOp"]
        artifact.write_text(
            text[: len(text) // 2] if breakage == "truncated"
            else json.dumps(data)
        )
        capsys.readouterr()
        assert run_tool.main([str(artifact)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_cache_dir_cold_then_warm(self, source_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cc")
        argv = [source_file(CLEAN), "--cache-dir", cache_dir]
        assert run_tool.main(argv) == 0
        cold = capsys.readouterr()
        assert run_tool.main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "[host] 7" in warm.out

    def test_queue_depth_zero_enables_explicit_scheduling(
        self, source_file, capsys
    ):
        # 0 means "unbounded", not "unset": like any --queue-depth it
        # implies --policy greedy, so on manycore (default bound 2) the
        # run is explicitly scheduled and prints the sched summary.
        path = source_file(CLEAN)
        assert run_tool.main([path, "--target", "manycore"]) == 0
        assert "-- sched:" not in capsys.readouterr().err
        status = run_tool.main(
            [path, "--target", "manycore", "--queue-depth", "0"]
        )
        assert status == 0
        assert "-- sched: policy=greedy" in capsys.readouterr().err

    def test_negative_queue_depth_is_a_usage_error(self, source_file, capsys):
        status = run_tool.main([source_file(CLEAN), "--queue-depth", "-1"])
        assert status == 1
        assert "queue_depth" in capsys.readouterr().err


class TestCheckTool:
    # --- the documented exit-code contract: 0 clean, 1 compile error,
    # --- 3 findings at/above --fail-on.

    def test_clean_program_exits_0(self, source_file, capsys):
        # Shape has no subclasses, so the annotation is complete.
        status = check_tool.main([source_file(CLEAN)])
        assert status == 0
        assert "clean" in capsys.readouterr().err

    def test_compile_error_exits_1(self, source_file, capsys):
        assert check_tool.main([source_file(BROKEN)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("tool", ["check", "run"])
    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
    def test_non_ascii_digit_is_a_lex_error_not_a_traceback(
        self, tmp_path, tool, digit
    ):
        # str.isdigit() accepts both; int() raises on the first and
        # reads the second as 3.  Through a real process: the traceback
        # used to escape main().
        path = tmp_path / "program.om"
        path.write_text(f"void main() {{ int x = {digit}; }}", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", f"repro.tools.{tool}", str(path)],
            env=env, capture_output=True, text=True, encoding="utf-8",
            timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert (
            f"{path}:1:23: error[E-lex]: unexpected character {digit!r}"
            in done.stderr
        )

    def test_findings_exit_3(self, source_file, capsys):
        status = check_tool.main([source_file(RACY)])
        assert status == 3
        assert "E-dma-race" in capsys.readouterr().out

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            check_tool.main(["--help"])
        help_text = capsys.readouterr().out
        assert "exit status" in help_text
        for line in ("0 ", "1 ", "3 "):
            assert line in help_text

    def test_missing_annotation_reported(self, source_file, capsys):
        source = CLEAN.replace("[domain(Shape::area)]", "")
        status = check_tool.main([source_file(source)])
        assert status == 3
        out = capsys.readouterr().out
        assert "E-domain-missing" in out
        assert "Shape::area" in out

    def test_missing_input_file_exits_1(self, capsys):
        assert check_tool.main(["/nonexistent/nothing.om"]) == 1
        assert "error" in capsys.readouterr().err

    # --- --fail-on

    def test_fail_on_error_ignores_warnings(self, source_file, capsys):
        # An uncached outer loop yields W-outer-loop-traffic (warning).
        status = check_tool.main([source_file(OUTER_LOOP)])
        assert status == 3
        assert "W-outer-loop-traffic" in capsys.readouterr().out
        status = check_tool.main(
            [source_file(OUTER_LOOP), "--fail-on", "error"]
        )
        assert status == 0  # warning still printed, but non-fatal
        assert "W-outer-loop-traffic" in capsys.readouterr().out

    def test_fail_on_error_still_fails_on_errors(self, source_file):
        status = check_tool.main([source_file(RACY), "--fail-on", "error"])
        assert status == 3

    # --- output formats

    def test_json_format(self, source_file, capsys):
        status = check_tool.main([source_file(RACY), "--format", "json"])
        assert status == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        codes = {f["code"] for f in payload["findings"]}
        assert "E-dma-race" in codes
        assert all("fingerprint" in f for f in payload["findings"])

    def test_sarif_format_validates(self, source_file, capsys):
        status = check_tool.main([source_file(RACY), "--format", "sarif"])
        assert status == 3
        log = json.loads(capsys.readouterr().out)
        assert validate_sarif(log) == []
        results = log["runs"][0]["results"]
        assert any(r["ruleId"] == "E-dma-race" for r in results)

    def test_out_writes_file(self, source_file, tmp_path, capsys):
        out = tmp_path / "findings.sarif"
        status = check_tool.main(
            [source_file(RACY), "--format", "sarif", "--out", str(out)]
        )
        assert status == 3
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["version"] == "2.1.0"

    # --- baseline suppression

    def test_baseline_suppresses_known_findings(
        self, source_file, tmp_path, capsys
    ):
        path = source_file(RACY)
        baseline = str(tmp_path / "baseline.json")
        status = check_tool.main([path, "--write-baseline", baseline])
        assert status == 0
        capsys.readouterr()
        status = check_tool.main([path, "--baseline", baseline])
        assert status == 0
        captured = capsys.readouterr()
        assert "E-dma-race" not in captured.out
        assert "suppressed" in captured.err

    def test_bad_baseline_exits_1(self, source_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        status = check_tool.main(
            [source_file(RACY), "--baseline", str(bad)]
        )
        assert status == 1
        assert "error" in capsys.readouterr().err

    # --- misc plumbing

    def test_time_passes(self, source_file, capsys):
        status = check_tool.main([source_file(CLEAN), "--time-passes"])
        assert status == 0
        err = capsys.readouterr().err
        assert "parse" in err
        assert "total" in err
        assert "dma-discipline" in err  # the analysis timing table

    def test_trace_export(self, source_file, tmp_path, capsys):
        from repro.obs.export import validate_chrome_trace

        trace = tmp_path / "check.trace.json"
        status = check_tool.main(
            [source_file(CLEAN), "--trace", str(trace)]
        )
        assert status == 0
        log = json.loads(trace.read_text())
        assert validate_chrome_trace(log) == []
        names = {e.get("name") for e in log["traceEvents"]}
        assert any(str(n).startswith("dma-discipline") for n in names)

    def test_corpus_game_with_fail_on_error(self, capsys):
        status = check_tool.main(["--corpus", "game", "--fail-on", "error"])
        assert status == 0  # only warnings on the game substrate
        assert "game:" in capsys.readouterr().out

    def test_no_sources_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            check_tool.main([])

    # --- the --all-targets portability lint

    def test_all_targets_prints_verdict_table(self, source_file, capsys):
        from repro.machine.config import target_names

        status = check_tool.main([source_file(CLEAN), "--all-targets"])
        assert status == 0
        err = capsys.readouterr().err
        assert "verdict" in err
        for tname in target_names():
            assert tname in err

    def test_all_targets_failing_target_flips_verdict(
        self, source_file, capsys
    ):
        # The outer-loop warning only exists on targets with a real
        # local store; shared-memory targets stay "ok" in the same run.
        status = check_tool.main([source_file(OUTER_LOOP), "--all-targets"])
        assert status == 3
        err = capsys.readouterr().err
        table = {
            line.split()[0]: line.split()[-1]
            for line in err.splitlines()
            if line and line.split()[0] in
            ("cell", "smp", "dsp", "apu", "manycore")
        }
        assert table["cell"] == "FAIL"
        assert table["smp"] == "ok"
        assert table["apu"] == "ok"

    def test_all_targets_sarif_has_one_run_per_target(
        self, source_file, capsys
    ):
        from repro.machine.config import target_names

        status = check_tool.main(
            [source_file(RACY), "--all-targets", "--format", "sarif"]
        )
        assert status == 3
        log = json.loads(capsys.readouterr().out)
        assert validate_sarif(log) == []
        runs = log["runs"]
        assert [r["automationDetails"]["id"] for r in runs] == [
            f"repro-check/{t}" for t in target_names()
        ]
        assert [r["properties"]["target"] for r in runs] == list(
            target_names()
        )
