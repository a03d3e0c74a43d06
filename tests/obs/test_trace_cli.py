"""The trace front end: ``run --trace`` exports, ``report validate``.

``repro.tools.run`` is the one CLI that traces a run; these tests drive
it in-process and check each export against the same recorder filled by
:func:`repro.runspec.simulate` directly, then check the files with the
``report validate`` subcommand that reads them back.
"""

from __future__ import annotations

import json

import pytest

from repro.game.sources import figure2_source
from repro.obs import TraceRecorder
from repro.runspec import FarmJob, prepare, simulate
from repro.tools import report as report_tool
from repro.tools import run as run_tool

SOURCE = figure2_source(entity_count=8, pair_count=6, frames=1)

# An out-of-range DMA tag traps inside the offload on ``cell``.
TRAPPING = """
void main() {
    __offload {
        dma_wait(40);
    };
}
"""

FORMAT_MARKERS = {
    "chrome": '"traceEvents":',
    "timeline": "offload.begin",
    "profile": "offload 0 (__offload_0)",
}


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "figure2.om"
    path.write_text(SOURCE)
    return str(path)


def _recorded(capacity: int = 1 << 20) -> TraceRecorder:
    recorder = TraceRecorder(capacity=capacity)
    job = FarmJob("figure2", source=SOURCE)
    simulate(prepare(job).program, job, trace=recorder)
    return recorder


def _events(path) -> list[dict]:
    return json.loads(path.read_text())["traceEvents"]


class TestRunTrace:
    @pytest.mark.parametrize("fmt", sorted(FORMAT_MARKERS))
    def test_each_format_exports_the_run(self, program, tmp_path, capsys, fmt):
        out = tmp_path / f"trace.{fmt}"
        assert run_tool.main(
            [program, "--trace", str(out), "--trace-format", fmt]
        ) == 0
        recorder = _recorded()
        text = out.read_text()
        assert text == run_tool.export_trace(recorder, fmt)
        assert FORMAT_MARKERS[fmt] in text
        err = capsys.readouterr().err
        assert f"-- trace: {len(recorder)} events -> {out}" in err
        assert "warning" not in err

    @pytest.mark.parametrize("flag", ["--trace", "--report"])
    def test_artefact_on_stdout_is_all_of_stdout(self, program, capsys, flag):
        assert run_tool.main([program, flag, "-"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)
        assert "[host] " in captured.err

    def test_trace_and_report_cannot_both_use_stdout(self, program, capsys):
        assert run_tool.main([program, "--trace", "-", "--report", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --trace and --report cannot both write to stdout\n"
        )

    def test_trapping_run_still_writes_its_trace(self, tmp_path, capsys):
        source = tmp_path / "trap.om"
        source.write_text(TRAPPING)
        out = tmp_path / "trap.json"
        assert run_tool.main(
            [str(source), "--target", "cell", "--trace", str(out)]
        ) == 2
        assert "out-of-range DMA tag 40" in capsys.readouterr().err
        assert report_tool.main(["validate", str(out)]) == 0
        begins = [
            event for event in _events(out)
            if event.get("cat") == "offload" and event["ph"] == "B"
        ]
        assert [event["args"]["entry"] for event in begins] == [
            "__offload_0"
        ]

    def test_time_passes_traces_compile_spans_and_the_run(
        self, program, tmp_path, capsys
    ):
        out = tmp_path / "passes.json"
        assert run_tool.main(
            [program, "--time-passes", "--trace", str(out)]
        ) == 0
        assert report_tool.main(["validate", str(out)]) == 0
        events = _events(out)
        track = {
            event["tid"]: event["args"]["name"]
            for event in events if event["name"] == "thread_name"
        }
        spans = [event for event in events if event.get("cat") == "pass"]
        assert spans
        assert {track[event["tid"]] for event in spans} == {"compile"}
        assert any(event.get("cat") == "offload" for event in events)


def test_write_trace_warns_when_the_ring_wrapped(tmp_path, capsys):
    recorder = _recorded(capacity=16)
    assert recorder.dropped > 0
    out = tmp_path / "short.json"
    run_tool.write_trace(recorder, str(out), "chrome")
    assert (
        f"warning: trace truncated, {recorder.dropped} oldest events "
        f"dropped (raise the recorder capacity, currently 16)"
    ) in capsys.readouterr().err
    assert report_tool.main(["validate", str(out)]) == 1
    assert "capture truncated" in capsys.readouterr().err


class TestReportValidate:
    def test_valid_trace_exits_0(self, tmp_path, capsys):
        out = tmp_path / "ok.json"
        recorder = _recorded()
        run_tool.write_trace(recorder, str(out), "chrome")
        capsys.readouterr()
        assert report_tool.main(["validate", str(out)]) == 0
        count = len(_events(out))
        assert capsys.readouterr().err == (
            f"-- {out}: valid Chrome trace ({count} events)\n"
        )

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        out = tmp_path / "broken.json"
        out.write_text('{"traceEvents": [')
        assert report_tool.main(["validate", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_missing_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert report_tool.main(["validate", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.json" in err

    def test_structural_problems_are_printed_and_exit_1(
        self, tmp_path, capsys
    ):
        out = tmp_path / "bad.json"
        out.write_text(json.dumps({"traceEvents": [
            {"ph": "?"},
            {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0},
        ]}))
        assert report_tool.main(["validate", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            "traceEvents[0]: bad phase '?'",
            "traceEvents[1]: 'X' needs non-negative int 'dur'",
            "traceEvents[1]: (pid, tid) has no thread_name metadata",
            f"-- {out}: 3 problem(s)",
        ]
