"""One ``run_analyses`` call solves each function once per analysis family.

Two guards.  The *solve count*: during one ``run_analyses`` every
``solve_forward`` call of the interval and DMA-discipline analyses is
recorded together with everything that solve read from outside the
function (callee summaries, entry boundary); no function may be solved
twice with equal inputs, and the bounds checker and cost model add no
solve to what ``compute_summaries`` alone does.  And *shared ==
independent*: findings produced from the shared solves equal those of
each analysis run standalone with summaries of its own.
"""

import functools
import sys

import pytest

from repro.analysis import bounds, cost, dataflow, dmacheck, intervals, traffic
from repro.analysis.dataflow import call_targets
from repro.analysis.diagnostics import dedupe_findings
from repro.analysis.runner import run_analyses
from repro.compiler.driver import compile_program
from repro.machine.config import resolve_target, target_names
from tests.conftest import corpus_sources

SOURCES = dict(corpus_sources())

# Recursion keeps the call-graph rounds from settling early, so
# ``max_rounds=1`` (and nothing else here) ends on the non-converged path.
RECURSIVE = """
int g_data[64];
int walk(int depth, int at) {
    if (depth > 3) { return at; }
    return walk(depth + 1, at + 2);
}
int pick(int i) { return walk(0, i) + 4; }
void main() {
    __offload {
        int a[16];
        for (int i = 0; i < 4; i = i + 1) {
            dma_get(&a[0], &g_data[pick(i)], 16, 1);
            dma_wait(1);
        }
    };
}
"""


# The corpus is clean for two of the three families; this is not: two
# overlapping puts in flight at once, inside a loop whose bound is a
# run-time value.
RACY_UNBOUNDED = """
int g_n;
int g_data[16];
int first(int i) { return i - i; }
void main() {
    __offload {
        int a[8];
        for (int i = 0; i < g_n; i = i + 1) {
            dma_put(&a[0], &g_data[first(i)], 32, 1);
            dma_put(&a[0], &g_data[4], 32, 2);
        }
        dma_wait(1);
        dma_wait(2);
    };
}
"""

# The entry block is solved before the helper it calls (`__offload_0`
# sorts first), against the helper's placeholder summary, which may have
# issued anything; only the re-solve against the real one knows tag 5
# was never issued by the time a later block waits on it.
ORPHAN_AFTER_CALL = """
int g_data[16];
int twice(int i) { return i + i; }
void main() {
    __offload {
        int sum = 0;
        for (int i = 0; i < 4; i = i + 1) { sum = sum + twice(i); }
        dma_wait(5);
        g_data[0] = sum;
    };
}
"""

SOURCES["local:recursive"] = RECURSIVE
SOURCES["local:orphan-after-call"] = ORPHAN_AFTER_CALL
SOURCES["local:racy-unbounded"] = RACY_UNBOUNDED
GRID = [(name, target) for name in SOURCES for target in target_names()]


@functools.lru_cache(maxsize=None)
def compiled(name, target):
    return compile_program(SOURCES[name], target, filename=name)


def accel_of(program):
    return sorted(program.accel_functions(), key=lambda f: f.name)


def _inputs(analysis):
    """What one solve reads from outside its function's own body."""
    callees = call_targets(analysis.function)
    if isinstance(analysis, intervals.IntervalAnalysis):
        rets = [
            getattr(analysis.summaries.get(callee), "ret", None)
            for callee in callees
        ]
        return analysis.boundary(), rets
    return [analysis._summary_for(callee) for callee in callees]


@pytest.fixture
def solves(monkeypatch):
    """``{analysis class name: [(function name, inputs), ...]}`` of every
    interval / DMA-discipline ``solve_forward`` made while active."""
    seen = {"IntervalAnalysis": [], "DmaDisciplineAnalysis": []}

    def counted(module):
        real = module.solve_forward

        def solve_forward(cfg, analysis, **kwargs):
            record = (analysis.function.name, _inputs(analysis))
            seen[type(analysis).__name__].append(record)
            return real(cfg, analysis, **kwargs)

        monkeypatch.setattr(module, "solve_forward", solve_forward)

    counted(intervals)
    counted(dmacheck)
    return seen


def _of_accel(records, accel):
    """The solves of accel functions.  (On shared-memory targets the
    cost model also walks into host functions an offload calls; nothing
    else analyses those, so each is a solve of its own.)"""
    names = {f.name for f in accel}
    return [record for record in records if record[0] in names]


def _forced_only(records, accel):
    """Every function solved, and none twice with equal inputs."""
    assert {name for name, _ in records} == {f.name for f in accel}
    for index, record in enumerate(records):
        assert record not in records[:index], f"{record[0]} solved again"


def _patch_everywhere(monkeypatch, real, wrapper):
    """Rebind ``real`` to ``wrapper`` in every loaded ``repro`` module."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, wrapper)


class TestSolveCount:
    @pytest.mark.parametrize("name, target", GRID)
    def test_each_function_solved_once_per_changed_input(
        self, solves, name, target
    ):
        program = compiled(name, target)
        accel = accel_of(program)
        run_analyses(program, target, file=name)
        whole_run = {
            kind: _of_accel(records, accel) for kind, records in solves.items()
        }
        for records in whole_run.values():
            _forced_only(records, accel)

        # The summaries alone cost exactly as many solves: reporting
        # (dma-discipline), the bounds checker and the cost model add none.
        for records in solves.values():
            records.clear()
        ivals = intervals.compute_summaries(accel)
        dmacheck.compute_summaries(accel, ivals)
        for kind, records in solves.items():
            assert len(whole_run[kind]) == len(records), kind

    @pytest.mark.parametrize("name, target", GRID)
    def test_one_cfg_per_interval_solve_and_traffic_solves_nothing(
        self, solves, monkeypatch, name, target
    ):
        """Every CFG is built for an interval solve, no other analysis
        solves, and the outer-traffic checks read the kept solves."""
        program = compiled(name, target)
        built, other = [], []
        real_build, real_solve = dataflow.build_cfg, dataflow.solve_forward

        def build_cfg(function):
            built.append(function.name)
            return real_build(function)

        def solve_forward(cfg, analysis, **kwargs):
            other.append(type(analysis).__name__)
            return real_solve(cfg, analysis, **kwargs)

        _patch_everywhere(monkeypatch, real_build, build_cfg)
        _patch_everywhere(monkeypatch, real_solve, solve_forward)
        work = lambda: (
            len(built), len(other), sum(map(len, solves.values()))
        )
        in_traffic = []
        real_check = traffic.check_function

        def check_function(*args, **kwargs):
            before = work()
            findings = real_check(*args, **kwargs)
            in_traffic.append((before, work()))
            return findings

        monkeypatch.setattr(traffic, "check_function", check_function)
        run_analyses(program, target, file=name)
        assert len(built) == len(solves["IntervalAnalysis"])
        assert other == []
        for before, after in in_traffic:
            assert before == after
        names = {f.name for f in accel_of(program)}
        if traffic.uncached_reachable(program) & names:
            assert in_traffic

    @pytest.mark.parametrize("target", target_names())
    def test_figure2_second_round_changes_nothing(self, solves, target):
        program = compiled("game:figure2", target)
        run_analyses(program, target, file="game:figure2")
        accel = program.accel_functions()
        assert accel
        for kind, records in solves.items():
            assert len(_of_accel(records, accel)) == len(accel), kind


class TestSharedEqualsIndependent:
    @pytest.mark.parametrize("name, target", GRID)
    def test_findings_match_standalone_analyses(self, name, target):
        program = compiled(name, target)
        config = resolve_target(target)
        shared = run_analyses(program, config, file=name).findings
        standalone = {
            "dma-discipline": dmacheck.check_program(program, file=name),
            "dma-bounds": bounds.check_program(program, config, file=name),
            "cost": cost.check_program(program, config, file=name),
        }
        for analysis, findings in standalone.items():
            assert [f for f in shared if f.analysis == analysis] == dedupe_findings(
                findings
            ), analysis

    def test_the_grid_has_findings_to_compare(self):
        codes = {
            finding.code
            for name, target in GRID
            for finding in run_analyses(
                compiled(name, target), target, file=name
            ).findings
        }
        assert {
            "E-dma-race", "E-dma-orphan-wait", "E-dma-oob", "W-cost-unbounded"
        } <= codes

    @pytest.mark.parametrize("name, target", GRID)
    def test_estimates_match_with_and_without_shared_summaries(
        self, name, target
    ):
        program = compiled(name, target)
        config = resolve_target(target)
        shared = intervals.compute_summaries(accel_of(program))
        assert cost.estimate_program(
            program, config, summaries=shared
        ) == cost.estimate_program(program, config)

    @pytest.mark.parametrize("name, target", GRID)
    def test_kept_solves_match_fresh_solves(self, name, target):
        """``dict(shared)`` has the same summaries and no solves, so the
        consumer solves the function afresh: the independent side."""
        program = compiled(name, target)
        config = resolve_target(target)
        accel = accel_of(program)
        names = frozenset(f.name for f in accel)
        ivals = intervals.compute_summaries(accel)
        dmas = dmacheck.compute_summaries(accel, ivals)
        assert ivals.converged and dmas.converged
        for function in accel:
            kept = intervals.solved_function(function, ivals)
            assert kept is ivals.solved[function.name]
            fresh = intervals.solved_function(function, dict(ivals))
            assert kept.result.block_in == fresh.result.block_in
            assert kept.result.block_out == fresh.result.block_out
            assert bounds.check_function(
                program, function, config, summaries=ivals
            ) == bounds.check_function(
                program, function, config, summaries=dict(ivals)
            )
            assert dmacheck.check_function(
                function, dmas, names, ivals
            ) == dmacheck.check_function(function, dict(dmas), names, ivals)
        assert cost.estimate_program(
            program, config, summaries=ivals
        ) == cost.estimate_program(program, config, summaries=dict(ivals))


class TestNonConvergedFallback:
    """``max_rounds`` ran out: the solves were made against partial
    summaries, so none is kept and every consumer solves again."""

    def test_no_interval_solve_is_kept(self):
        accel = accel_of(compile_program(RECURSIVE, "cell"))
        assert intervals.compute_summaries(accel).converged
        summaries = intervals.compute_summaries(accel, max_rounds=1)
        assert not summaries.converged and not summaries.solved
        assert all(summary.params == () for summary in summaries.values())

    def test_findings_match_from_scratch(self, solves):
        program = compile_program(RECURSIVE, "cell")
        config = resolve_target("cell")
        accel = accel_of(program)
        names = frozenset(f.name for f in accel)
        ivals = intervals.compute_summaries(accel, max_rounds=1)
        dmas = dmacheck.compute_summaries(accel, ivals, max_rounds=1)
        assert not dmas.converged and not dmas.solved
        for records in solves.values():
            records.clear()
        for function in accel:
            assert bounds.check_function(
                program, function, config, summaries=ivals
            ) == bounds.check_function(
                program, function, config, summaries=dict(ivals)
            )
        assert len(solves["IntervalAnalysis"]) == 2 * len(accel)
        # A DMA-discipline check reads an interval solve, and with none
        # kept, each side solves both analyses afresh.
        for records in solves.values():
            records.clear()
        for function in accel:
            assert dmacheck.check_function(
                function, dmas, names, ivals
            ) == dmacheck.check_function(function, dict(dmas), names, ivals)
        # Both sides of both comparisons solved: nothing was reused.
        for kind, records in solves.items():
            assert len(records) == 2 * len(accel), kind

    def test_a_solve_of_another_function_object_is_not_reused(self):
        first = accel_of(compile_program(RECURSIVE, "cell"))
        again = accel_of(compile_program(RECURSIVE, "cell"))
        summaries = intervals.compute_summaries(first)
        for function in again:
            kept = summaries.solved[function.name]
            assert intervals.solved_function(function, summaries) is not kept
