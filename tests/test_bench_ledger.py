"""The committed ``BENCH_vm.json`` and ``wallclock.py --validate``.

The ledger is read by CI and cited by the docs, so its schema is pinned
here: it validates at the current schema, carries no section the bench
no longer writes, and the validator rejects the damage it exists to
catch.
"""

import copy
import json
import pathlib

import pytest

from benchmarks.wallclock import _validate_file, validate_bench_report
from repro.tools.bench import BENCH_SCHEMA_VERSION

LEDGER = pathlib.Path(__file__).resolve().parents[1] / "BENCH_vm.json"


@pytest.fixture(scope="module")
def ledger():
    return json.loads(LEDGER.read_text())


def test_committed_ledger_validates_at_the_current_schema(ledger):
    assert BENCH_SCHEMA_VERSION == 5
    assert ledger["schema_version"] == BENCH_SCHEMA_VERSION
    assert validate_bench_report(ledger) == []


def test_ledger_carries_no_superseded_section(ledger):
    """Farm throughput and the warm-compile speedup moved to
    ``repro.tools.farm``, perfbench and ``TestWarmSpeedup``."""
    assert not {"farm", "compile_cache"} & set(ledger)
    assert not {
        "compile_cache_speedup", "farm_speedup", "farm_jobs_per_sec"
    } & set(ledger["summary"])


def test_validate_rejects_an_old_schema_version(ledger):
    old = dict(ledger, schema_version=4)
    problems = validate_bench_report(old)
    assert problems == ["schema_version must be 5, got 4"]


def test_validate_names_a_missing_section(ledger):
    truncated = {k: v for k, v in ledger.items() if k != "scheduler"}
    assert "missing section 'scheduler'" in validate_bench_report(truncated)


def test_validate_flags_diverged_engines(ledger):
    diverged = copy.deepcopy(ledger)
    diverged["workloads"][0]["engines_identical"] = False
    [problem] = validate_bench_report(diverged)
    assert "engines diverged" in problem
    assert diverged["workloads"][0]["name"] in problem


def test_validate_file_exit_codes(tmp_path, capsys):
    assert _validate_file(str(LEDGER)) == 0
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert _validate_file(str(broken)) == 1
    assert _validate_file(str(tmp_path / "missing.json")) == 1
    assert "error:" in capsys.readouterr().err
