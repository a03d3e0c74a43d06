"""``repro.farm``: sharded multi-process simulation batches.

The horizontal-scale layer over the whole stack: fan a batch of
``(source-or-artifact, target, engine, policy, queue-depth, seed)``
jobs (:class:`FarmJob`) across a persistent worker-process pool
(:class:`Farm`) that shares the content-addressed compile cache, keeps
warm-program memos per worker (a long-lived pool performs zero compiles
and zero codegen after its first pass), streams canonical
:class:`~repro.obs.report.RunReport` results back as they complete, and
always drains — crashes and timeouts become structured
:class:`JobFailure` records with bounded retry, never a hung driver.

:func:`run_jobs_serial` is the same execution path run inline: the
baseline that farm results are byte-identical to.  The job spec and
that path (:func:`execute_job`) live in :mod:`repro.runspec`, shared
with the single-run tools.  See ``docs/farm.md`` and the
``repro.tools.farm`` CLI.
"""

from repro.farm.batch import (
    BATCH_KIND,
    CORPORA,
    determinism_batch,
    figure2_batch,
    jobs_to_json,
    load_jobs,
    mixed_corpus,
)
from repro.farm.driver import (
    SUMMARY_KIND,
    SUMMARY_SCHEMA_VERSION,
    BatchSummary,
    Farm,
    summarize_batch,
    summary_json,
)
from repro.farm.job import JobFailure, JobResult
from repro.farm.worker import run_jobs_serial, worker_main
from repro.runspec import (
    FAULT_KINDS,
    FarmJob,
    execute_job,
    program_key,
)

__all__ = [
    "BATCH_KIND",
    "CORPORA",
    "BatchSummary",
    "FAULT_KINDS",
    "Farm",
    "FarmJob",
    "JobFailure",
    "JobResult",
    "SUMMARY_KIND",
    "SUMMARY_SCHEMA_VERSION",
    "determinism_batch",
    "execute_job",
    "figure2_batch",
    "jobs_to_json",
    "load_jobs",
    "mixed_corpus",
    "program_key",
    "run_jobs_serial",
    "summarize_batch",
    "summary_json",
    "worker_main",
]
