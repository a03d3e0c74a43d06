"""Farm runs are byte-identical to serial runs, and warm mode is real.

The contract under test: a :class:`repro.farm.FarmJob` produces the
same canonical report JSON whether it runs inline
(:func:`repro.farm.run_jobs_serial`), fanned across a pool, shuffled,
or repeated on a warm pool — only the envelope (worker id, attempts,
wall clock) may differ.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.farm import (
    Farm,
    JobResult,
    determinism_batch,
    figure2_batch,
    mixed_corpus,
    run_jobs_serial,
)


def canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def reports_by_job(summary) -> dict:
    out = {}
    for result in summary.results:
        assert isinstance(result, JobResult), result
        out[result.job] = canonical(result.report)
    return out


@pytest.fixture(scope="module")
def serial_baseline():
    return reports_by_job(run_jobs_serial(determinism_batch()))


class TestByteIdentity:
    def test_shuffled_batch_matches_serial_across_targets(
        self, serial_baseline, tmp_path
    ):
        jobs = determinism_batch()
        assert {j.target for j in jobs} == {"cell", "apu", "manycore"}
        random.Random(7).shuffle(jobs)
        with Farm(workers=4, cache_dir=str(tmp_path / "cache")) as farm:
            summary = farm.run_batch(jobs)
        assert summary.failed == 0
        farmed = reports_by_job(summary)
        assert farmed == serial_baseline

    def test_wall_clock_never_in_report(self, serial_baseline):
        for text in serial_baseline.values():
            assert json.loads(text)["wall_seconds"] == 0

    def test_results_in_job_order(self):
        jobs = mixed_corpus()
        with Farm(workers=2) as farm:
            summary = farm.run_batch(jobs)
        assert [r.index for r in summary.results] == list(range(len(jobs)))
        assert [r.job for r in summary.results] == jobs

    def test_repeat_batch_is_stable(self):
        jobs = figure2_batch(count=4)
        with Farm(workers=2) as farm:
            first = reports_by_job(farm.run_batch(jobs))
            second = reports_by_job(farm.run_batch(jobs))
        assert first == second


class TestWarmMode:
    def test_second_batch_zero_compiles_zero_translations(self, tmp_path):
        # Pinned: ``cold.translations > 0`` is a property of the
        # translating engine, whatever the ambient default is.
        jobs = mixed_corpus(engine="codegen")
        with Farm(workers=2, cache_dir=str(tmp_path / "cache")) as farm:
            cold = farm.run_batch(jobs)
            warm = farm.run_batch(jobs)
        assert cold.compiles > 0
        assert cold.translations > 0
        # 8 jobs over 4 distinct programs: sharded dispatch makes each
        # repeat key a memo hit already in the cold batch.
        assert cold.warm_jobs == 4
        assert warm.compiles == 0
        assert warm.translations == 0
        assert warm.warm_jobs == warm.jobs

    def test_warm_guarantee_survives_reordering(self, tmp_path):
        # Dispatch is sharded by program key, so a shuffled repeat
        # batch still lands every job on the worker whose memo holds
        # its program — zero translations is a guarantee, not a
        # scheduling accident (this exact case flaked before sharding).
        jobs = mixed_corpus()
        with Farm(workers=2, cache_dir=str(tmp_path / "cache")) as farm:
            farm.run_batch(jobs)
            for seed in (3, 5, 11):
                shuffled = list(jobs)
                random.Random(seed).shuffle(shuffled)
                warm = farm.run_batch(shuffled)
                assert warm.compiles == 0
                assert warm.translations == 0
                assert warm.warm_jobs == warm.jobs

    def test_same_program_jobs_share_one_shard(self):
        # All four jobs run the same program, so one worker owns the
        # key and executes every one of them; the other worker compiles
        # nothing.
        jobs = figure2_batch(count=4, policy=None)
        base = jobs[0]
        jobs = [base] * 4
        with Farm(workers=2) as farm:
            summary = farm.run_batch(jobs)
        workers_used = {r.worker for r in summary.results}
        assert len(workers_used) == 1
        assert summary.compiles == 1
        assert summary.warm_jobs == 3

    def test_shared_disk_cache_warms_fresh_pools(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        jobs = figure2_batch(count=4)
        with Farm(workers=1, cache_dir=cache_dir) as farm:
            cold = farm.run_batch(jobs)
        with Farm(workers=1, cache_dir=cache_dir) as farm:
            relaunch = farm.run_batch(jobs)
        # A fresh pool has no program memo (so jobs are not "warm"),
        # but the shared disk cache absorbs every compile.
        assert cold.compiles > 0
        assert relaunch.compiles == 0
        assert relaunch.cache_hits > 0

    def test_serial_runner_warms_within_batch(self):
        jobs = figure2_batch(count=8)  # 4 distinct shapes, each twice
        summary = run_jobs_serial(jobs)
        assert summary.warm_jobs == 4

    def test_worker_stats_cover_the_pool(self):
        jobs = mixed_corpus()
        with Farm(workers=2) as farm:
            summary = farm.run_batch(jobs)
        assert set(summary.worker_stats) == {"w0", "w1"}
        assert sum(s["jobs"] for s in summary.worker_stats.values()) == 8
        assert summary.metrics  # the farm metrics lane is populated
