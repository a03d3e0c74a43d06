"""Every front end runs through the one execute path (repro.runspec).

Pins the refactor that put ``run``, ``sched``, ``bench`` and the farm
on the same prepare → simulate → report steps: the committed
report baselines stay byte-identical, the front ends agree with each
other on one job, and no tool's flag set moved.
"""

import argparse
import importlib
import json
import os

import pytest

from repro.farm import FarmJob, execute_job
from repro.game.sources import figure2_source
from repro.machine.config import target_names
from repro.runtime.cachekinds import CACHE_KIND_CHOICES
from repro.sched import POLICY_NAMES
from repro.tools import bench as bench_tool
from repro.tools import run as run_tool
from repro.tools import sched as sched_tool
from repro.tools.report import BENCH_TARGETS, emit_run_reports
from repro.vm import ENGINE_NAMES

BASELINES = os.path.join(
    os.path.dirname(__file__), os.pardir, "baselines", "reports"
)


def test_bench_reports_match_committed_baselines(tmp_path):
    written = emit_run_reports(False, BENCH_TARGETS, str(tmp_path))
    assert sorted(os.path.basename(p) for p in written) == sorted(
        os.listdir(BASELINES)
    )
    for path in written:
        with open(path, "rb") as fresh, open(
            os.path.join(BASELINES, os.path.basename(path)), "rb"
        ) as committed:
            assert fresh.read() == committed.read(), os.path.basename(path)


# ------------------------------------------------- front ends agree


def _identity_free(report: dict) -> dict:
    return {
        k: v for k, v in report.items()
        if k not in ("workload", "wall_seconds")
    }


@pytest.fixture(scope="module")
def bench_reports(tmp_path_factory):
    """``game-frame-portability__{target}.json`` for the three targets:
    the quick-mode Figure 2 frame under the locality policy."""
    directory = tmp_path_factory.mktemp("bench-reports")
    emit_run_reports(True, BENCH_TARGETS, str(directory))
    return directory


@pytest.mark.parametrize("target", BENCH_TARGETS)
def test_run_bench_and_farm_emit_the_same_report(
    target, bench_reports, tmp_path, capsys
):
    source = figure2_source(entity_count=48, pair_count=32, frames=4)
    path = tmp_path / "figure2.om"
    path.write_text(source)
    job = FarmJob(
        "figure2", source=source, target=target, engine="codegen",
        policy="locality",
    )
    farm_report = execute_job(job)["report"]

    out = tmp_path / "run.json"
    assert run_tool.main(
        [str(path), "--target", target, "--engine", "codegen",
         "--policy", "locality", "--report", str(out)]
    ) == 0
    run_report = json.loads(out.read_text())
    bench_report = json.loads(
        (bench_reports / f"game-frame-portability__{target}.json").read_text()
    )
    assert _identity_free(run_report) == _identity_free(farm_report)
    assert _identity_free(bench_report) == _identity_free(farm_report)
    capsys.readouterr()

    # sched runs the same job among all policies; run without a policy
    # runs it in compat mode.
    assert sched_tool.main(
        [str(path), "--target", target, "--engine", "codegen", "--json"]
    ) == 0
    rows = json.loads(capsys.readouterr().out)["policies"]
    (row,) = [row for row in rows if row["policy"] == "locality"]
    assert row["simulated_cycles"] == farm_report["simulated_cycles"]

    compat = execute_job(
        FarmJob("figure2", source=source, target=target, engine="codegen")
    )["report"]
    assert run_tool.main(
        [str(path), "--target", target, "--engine", "codegen"]
    ) == 0
    assert (
        f"-- {compat['simulated_cycles']} simulated cycles"
        in capsys.readouterr().err
    )


# --------------------------------------------------- flag sets unmoved

#: Option strings (positionals by dest) of every tool's parser.  The
#: refactor moved declarations into repro.tools.flags; it added and
#: removed nothing.  Removed later, on purpose: bench's ``--farm``; the
#: ``trace`` tool, sched's single-policy and trace flags and bench's
#: trace flags (``run`` is the one tool that traces a run); bench's
#: ``--reports``, which became ``report emit`` (no timed run).
TOOL_FLAGS = {
    "bench": """--out --policy --quick --repeats --target -h/--help""",
    "check": """--all-targets --baseline --corpus --fail-on --format --out
        --target --time-passes --trace --write-baseline -h/--help sources""",
    "farm": """--cache-dir --corpus --count --emit-batch --engine
        --include-reports --jsonl --out --policy --quiet --repeat --reports
        --retries --seed --serial --start-method --target --timeout
        --workers -h/--help batch""",
    "report": """-h/--help diff:--default-tolerance diff:--format
        diff:--include-wall diff:--tolerance diff:-h/--help diff:baseline
        diff:new show:--format show:-h/--help show:report trend:--format
        trend:--metric trend:-h/--help trend:directory validate:-h/--help
        validate:trace emit:--policy emit:--quick emit:--target
        emit:-h/--help emit:directory""",
    "run": """--cache --cache-dir --demand-load --dump-after --dump-codegen
        --dump-ir --emit-artifact --engine --optimize --perf --policy
        --queue-depth --record-races --report --target --time-passes
        --trace --trace-format --wordaddr -h/--help source""",
    "sched": """--admission --corpus --engine --frames --json
        --queue-depth --require --target -h/--help source""",
}

#: Flags whose choices come from a registry, wherever they appear.
REGISTRY_CHOICES = {
    "--target": list(target_names()),
    "--engine": list(ENGINE_NAMES),
    "--policy": list(POLICY_NAMES),
    "--cache": list(CACHE_KIND_CHOICES),
}


def _flags(parser, prefix="") -> dict:
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_flags(sub, f"{name}:"))
            continue
        key = "/".join(action.option_strings) or action.dest
        found[prefix + key] = action.choices
    return found


@pytest.mark.parametrize("tool", sorted(TOOL_FLAGS))
def test_tool_flag_sets_are_unchanged(tool):
    module = importlib.import_module(f"repro.tools.{tool}")
    flags = _flags(module.build_parser())
    assert sorted(flags) == sorted(TOOL_FLAGS[tool].split())
    for flag, choices in REGISTRY_CHOICES.items():
        if flag in flags:
            assert list(flags[flag]) == choices, (tool, flag)


def test_bench_farm_flag_is_gone(capsys):
    """Farm throughput moved to ``repro.tools.farm`` and perfbench."""
    with pytest.raises(SystemExit) as exit_info:
        bench_tool.main(["--farm", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --farm 2" in capsys.readouterr().err
