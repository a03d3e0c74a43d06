"""Robustness: crashes, timeouts and errors become structured failures.

Every test injects a fault via :attr:`repro.farm.FarmJob.fault` and
asserts the driver drains the whole batch — healthy jobs complete,
faulty jobs end as :class:`repro.farm.JobFailure` with the right reason
and attempt count, and the pool stays usable afterwards.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

import repro.farm.driver as driver_module
from repro.farm import Farm, FarmJob, JobFailure, JobResult, run_jobs_serial
from repro.farm.worker import worker_main
from repro.game.sources import figure2_source

SOURCE = figure2_source(entity_count=6, pair_count=4, frames=1)


def healthy(workload: str = "ok", **kwargs) -> FarmJob:
    return FarmJob(workload=workload, source=SOURCE, **kwargs)


@pytest.fixture
def farm():
    with Farm(workers=2, timeout=60.0, max_attempts=2) as pool:
        yield pool


class TestCrashes:
    def test_crash_exhausts_retries_then_fails(self, farm):
        jobs = [healthy(), healthy("ok2"), healthy("boom", fault="crash")]
        summary = farm.run_batch(jobs)
        assert summary.ok == 2
        assert summary.failed == 1
        failure = summary.failures[0]
        assert failure.reason == "crash"
        assert failure.attempts == 2
        assert failure.job.workload == "boom"
        assert summary.retried >= 1

    def test_crash_once_retries_then_succeeds(self, farm, tmp_path):
        marker = str(tmp_path / "crashed.marker")
        jobs = [healthy(), healthy("flaky", fault=f"crash-once:{marker}")]
        summary = farm.run_batch(jobs)
        assert summary.failed == 0
        flaky = next(r for r in summary.results if r.job.workload == "flaky")
        assert isinstance(flaky, JobResult)
        assert flaky.attempts == 2
        assert summary.retried == 1

    def test_pool_survives_a_crash_batch(self, farm):
        farm.run_batch([healthy("boom", fault="crash")])
        summary = farm.run_batch([healthy(), healthy("ok2")])
        assert summary.ok == 2
        assert summary.failed == 0


class TestTimeouts:
    def test_wedged_worker_is_killed_and_job_failed(self):
        with Farm(workers=2, timeout=0.5, max_attempts=1) as farm:
            jobs = [healthy(), healthy("wedge", fault="sleep:30")]
            summary = farm.run_batch(jobs)
        assert summary.ok == 1
        failure = summary.failures[0]
        assert failure.reason == "timeout"
        assert failure.attempts == 1
        assert failure.job.workload == "wedge"

    def test_per_job_timeout_overrides_farm_default(self):
        with Farm(workers=1, timeout=0.2, max_attempts=1) as farm:
            # The job-level budget (generous) overrides the farm's
            # aggressive default, so a short sleep still succeeds.
            summary = farm.run_batch(
                [healthy("slowish", fault="sleep:0.5", timeout=30.0)]
            )
        assert summary.ok == 1


class TestStreamedDispatch:
    """One worker holds a running job and a queued one: only the running
    job pays for a crash or a timeout, and a queued job is never lost."""

    def test_crash_spares_the_job_queued_behind_it(self):
        with Farm(workers=1, timeout=60.0, max_attempts=2) as farm:
            summary = farm.run_batch(
                [healthy("boom", fault="crash"), healthy("behind")]
            )
        boom, behind = summary.results
        assert isinstance(boom, JobFailure) and boom.reason == "crash"
        assert boom.attempts == 2
        assert isinstance(behind, JobResult)
        assert behind.attempts == 1

    def test_queued_time_does_not_count_against_a_budget(self):
        with Farm(workers=1, timeout=60.0, max_attempts=1) as farm:
            summary = farm.run_batch([
                healthy("sleepy", fault="sleep:2"),
                healthy("quick", timeout=1.0),
            ])
        assert summary.failed == 0, summary.failures

    def test_crash_once_ahead_of_a_queue_is_retried_once(self, tmp_path):
        marker = str(tmp_path / "crashed.marker")
        jobs = [
            healthy("flaky", fault=f"crash-once:{marker}"),
            healthy("ok1"),
            healthy("ok2"),
        ]
        with Farm(workers=1, timeout=60.0, max_attempts=2) as farm:
            summary = farm.run_batch(jobs)
        assert summary.failed == 0
        assert summary.retried == 1
        assert [r.attempts for r in summary.results] == [2, 1, 1]

    def test_every_job_reported_once_and_summary_in_job_order(self, tmp_path):
        marker = str(tmp_path / "crashed.marker")
        jobs = [
            healthy("boom", fault="crash"),
            healthy("ok1"),
            healthy("flaky", fault=f"crash-once:{marker}"),
            FarmJob(workload="bad", source="not a program"),
            healthy("ok2"),
        ]
        seen = []
        with Farm(workers=1, timeout=60.0, max_attempts=2) as farm:
            summary = farm.run_batch(jobs, on_result=seen.append)
        assert sorted(r.index for r in seen) == list(range(len(jobs)))
        assert [r.index for r in summary.results] == list(range(len(jobs)))
        assert [r.status for r in summary.results] == [
            "failed", "ok", "ok", "failed", "ok"
        ]

    def test_a_batch_that_raised_leaves_no_replies_behind(self):
        def stop(result):
            raise RuntimeError("consumer gave up")

        with Farm(workers=1, timeout=60.0) as farm:
            with pytest.raises(RuntimeError, match="gave up"):
                farm.run_batch(
                    [healthy("first"), healthy("second")], on_result=stop
                )
            summary = farm.run_batch([healthy("next")])
        assert summary.ok == 1
        assert summary.results[0].job.workload == "next"
        assert summary.results[0].attempts == 1


class _Garbling:
    """A worker's pipe end that swaps its reply to every job named
    ``garbled`` for ``bad`` bytes."""

    def __init__(self, conn, bad: bytes):
        self._conn = conn
        self._bad = bad
        self._jobs: dict = {}

    def recv(self):
        message = self._conn.recv()
        if message is not None:
            self._jobs[message[0]] = message[2]
        return message

    def send(self, reply) -> None:
        if self._jobs[reply[2]].workload == "garbled":
            self._conn.send_bytes(self._bad)
        else:
            self._conn.send(reply)

    def close(self) -> None:
        self._conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patching the worker loop needs forked workers",
)
class TestBadReplies:
    @pytest.mark.parametrize("bad", [
        b"this is not a pickle",
        pickle.dumps(("ok", "w0")),
        pickle.dumps(("ok", "w0", 0, {})),  # names a job it was not given
        pickle.dumps(("ok", "w0", 1, "not a payload")),
    ], ids=["garbage", "short-tuple", "wrong-job", "bad-payload"])
    def test_bad_reply_is_a_crash(self, monkeypatch, bad):
        monkeypatch.setattr(
            driver_module, "worker_main",
            lambda worker_id, cache_dir, conn: worker_main(
                worker_id, cache_dir, _Garbling(conn, bad)
            ),
        )
        jobs = [healthy("ok1"), healthy("garbled"), healthy("ok2")]
        with Farm(workers=1, timeout=60.0, max_attempts=2,
                  start_method="fork") as farm:
            summary = farm.run_batch(jobs)
            again = farm.run_batch([healthy("after")])
        ok1, garbled, ok2 = summary.results
        assert isinstance(ok1, JobResult) and isinstance(ok2, JobResult)
        assert isinstance(garbled, JobFailure)
        assert garbled.reason == "crash"
        assert garbled.attempts == 2
        assert "bad reply" in garbled.detail
        assert again.ok == 1


class TestErrors:
    def test_compile_error_is_not_retried(self, farm):
        jobs = [
            healthy(),
            FarmJob(workload="bad", source="this is not a program"),
        ]
        summary = farm.run_batch(jobs)
        assert summary.ok == 1
        failure = summary.failures[0]
        assert failure.reason == "error"
        assert failure.attempts == 1
        assert summary.retried == 0
        assert failure.detail  # carries the exception text

    def test_serial_runner_raises_on_error(self):
        with pytest.raises(Exception):
            run_jobs_serial(
                [FarmJob(workload="bad", source="this is not a program")]
            )

    def test_failure_record_shape(self, farm):
        summary = farm.run_batch(
            [FarmJob(workload="bad", source="not a program")]
        )
        record = summary.failures[0].as_dict()
        assert record["status"] == "failed"
        assert record["reason"] == "error"
        assert record["workload"] == "bad"
        assert "report" not in record


class TestSummaryShape:
    def test_failures_listed_in_results(self, farm):
        jobs = [healthy(), healthy("boom", fault="crash")]
        summary = farm.run_batch(jobs)
        assert len(summary.results) == 2
        assert isinstance(summary.results[0], JobResult)
        assert isinstance(summary.results[1], JobFailure)

    def test_streaming_callback_sees_everything(self, farm):
        seen = []
        jobs = [healthy(), healthy("boom", fault="crash")]
        farm.run_batch(jobs, on_result=seen.append)
        assert {r.status for r in seen} == {"ok", "failed"}

    def test_farm_validates_construction(self):
        with pytest.raises(ValueError, match="workers"):
            Farm(workers=0)
        with pytest.raises(ValueError, match="max_attempts"):
            Farm(max_attempts=0)
