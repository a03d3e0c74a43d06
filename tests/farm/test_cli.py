"""The ``repro.tools.farm`` CLI: corpora, outputs, exit codes."""

from __future__ import annotations

import json
import os

import pytest

from repro.farm import FarmJob, jobs_to_json
from repro.game.sources import figure2_source
from repro.tools.farm import main

SOURCE = figure2_source(entity_count=6, pair_count=4, frames=1)


def small_batch(tmp_path, jobs=None) -> str:
    jobs = jobs or [
        FarmJob(workload="a", source=SOURCE, policy="greedy"),
        FarmJob(workload="b", source=SOURCE, target="apu"),
    ]
    path = tmp_path / "batch.json"
    path.write_text(jobs_to_json(jobs))
    return str(path)


class TestInputs:
    def test_requires_batch_or_corpus(self, capsys):
        assert main([]) == 1
        assert "batch file or --corpus" in capsys.readouterr().err

    def test_rejects_both(self, tmp_path, capsys):
        path = small_batch(tmp_path)
        assert main([path, "--corpus", "mixed"]) == 1

    def test_malformed_batch_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_emit_batch_round_trips(self, tmp_path):
        out = str(tmp_path / "emitted.json")
        assert main(["--corpus", "mixed", "--emit-batch", out]) == 0
        assert main([out, "--serial", "--quiet"]) == 0


class TestOutputs:
    def test_summary_and_reports(self, tmp_path, capsys):
        path = small_batch(tmp_path)
        out = str(tmp_path / "summary.json")
        reports = str(tmp_path / "reports")
        code = main(
            [path, "--workers", "2", "--out", out, "--reports", reports,
             "--quiet"]
        )
        assert code == 0
        obj = json.loads(open(out).read())
        assert obj["kind"] == "repro-farm-summary"
        assert obj["workers"] == 2
        assert len(obj["batches"]) == 1
        batch = obj["batches"][0]
        assert batch["ok"] == 2 and batch["failed"] == 0
        # one canonical report file per job, report omitted from --out
        # unless --include-reports
        assert sorted(os.listdir(reports)) == [
            "job000__a__cell.json",
            "job001__b__apu.json",
        ]
        assert "report" not in batch["results"][0]

    def test_reports_match_serial(self, tmp_path):
        path = small_batch(tmp_path)
        farm_dir = tmp_path / "farm-reports"
        serial_dir = tmp_path / "serial-reports"
        assert main([path, "--workers", "2", "--reports", str(farm_dir),
                     "--quiet"]) == 0
        assert main([path, "--serial", "--reports", str(serial_dir),
                     "--quiet"]) == 0
        for name in os.listdir(serial_dir):
            assert (farm_dir / name).read_bytes() == (
                serial_dir / name
            ).read_bytes()

    def test_jsonl_streams_one_line_per_job(self, tmp_path):
        path = small_batch(tmp_path)
        jsonl = tmp_path / "results.jsonl"
        assert main([path, "--serial", "--jsonl", str(jsonl),
                     "--quiet"]) == 0
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(lines) == 2
        assert all("report" in line for line in lines)

    @pytest.mark.parametrize(
        "corpus", [("figure2", "--count", "4"), ("mixed",)], ids=["figure2", "mixed"]
    )
    def test_repeat_warm_batches(self, tmp_path, corpus):
        """Cold then warm on one pool, on the default engine: the warm
        batch compiles and translates nothing."""
        out = str(tmp_path / "summary.json")
        code = main(
            ["--corpus", *corpus, "--workers", "2",
             "--repeat", "2", "--cache-dir", str(tmp_path / "cache"),
             "--out", out, "--quiet"]
        )
        assert code == 0
        batches = json.loads(open(out).read())["batches"]
        assert len(batches) == 2
        assert all(batch["ok"] == batch["jobs"] for batch in batches), batches
        assert batches[0]["compiles"] > 0
        assert batches[1]["compiles"] == 0
        assert batches[1]["translations"] == 0
        assert batches[1]["warm_jobs"] == batches[1]["jobs"]


class TestExitCodes:
    def test_failed_job_exits_two(self, tmp_path, capsys):
        path = small_batch(
            tmp_path,
            jobs=[
                FarmJob(workload="ok", source=SOURCE),
                FarmJob(workload="bad", source="not a program"),
            ],
        )
        assert main([path, "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "FAILED job 1" in err and "error" in err

    def test_usage_errors_exit_one(self, capsys):
        assert main(["--corpus", "figure2", "--count", "0"]) == 1
        assert main(["--corpus", "mixed", "--repeat", "0"]) == 1
        assert main(["--corpus", "mixed", "--workers", "0"]) == 1
