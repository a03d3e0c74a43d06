"""Batch builders and the farm batch-file format.

A batch file is JSON: either a plain list of job specs or
``{"kind": "repro-farm-batch", "jobs": [...]}``, each spec the
:meth:`repro.farm.job.FarmJob.as_dict` shape.  The builders generate
the canonical corpora the CLI, CI and benchmarks use:

* :func:`mixed_corpus` — the CI farm batch: 2 workloads x 2 targets x
  2 policies (8 jobs), small enough to run cold+warm in seconds;
* :func:`figure2_batch` — N seed-varied Figure 2 frame loops, the
  throughput-scaling batch behind the ``farm`` section of
  ``BENCH_vm.json``;
* :func:`determinism_batch` — seed/policy/target cross mix for the
  byte-identity tests.

Seeds vary *which* workload a generator emits (entity counts, frame
counts), never how it executes — the simulator stays deterministic.
"""

from __future__ import annotations

import json

from repro.game.sources import ai_kernel_source, figure2_source
from repro.runspec import FarmJob

#: Batch-file discriminator (optional; a bare list is also accepted).
BATCH_KIND = "repro-farm-batch"


def _figure2_for_seed(seed: int, scale: int = 1) -> str:
    """A Figure 2 frame loop whose shape varies with ``seed``."""
    return figure2_source(
        entity_count=(8 + 4 * (seed % 4)) * scale,
        pair_count=(6 + 2 * (seed % 3)) * scale,
        frames=1 + seed % 2,
    )


def mixed_corpus(seed: int = 0, engine: str | None = None) -> list[FarmJob]:
    """2 workloads x 2 targets x 2 policies: the CI farm batch."""
    jobs = []
    workloads = (
        ("figure2", _figure2_for_seed(seed)),
        ("ai-kernel", ai_kernel_source(entity_count=8 + 4 * (seed % 3))),
    )
    for workload, source in workloads:
        for target in ("cell", "apu"):
            for policy in ("greedy", "locality"):
                jobs.append(
                    FarmJob(
                        workload=workload,
                        source=source,
                        target=target,
                        engine=engine,
                        policy=policy,
                        seed=seed,
                    )
                )
    return jobs


def figure2_batch(
    count: int = 16,
    target: str = "cell",
    engine: str | None = "codegen",
    policy: str | None = "locality",
    scale: int = 1,
) -> list[FarmJob]:
    """``count`` seed-varied Figure 2 jobs on one target.

    Seeds cycle through a small set of distinct shapes, so the batch
    exercises both the compile cache (repeat shapes hit) and the warm
    memo, while staying a pure-throughput workload for the scaling
    benchmark.
    """
    return [
        FarmJob(
            workload=f"figure2-s{seed % 4}",
            source=_figure2_for_seed(seed % 4, scale),
            target=target,
            engine=engine,
            policy=policy,
            seed=seed % 4,
        )
        for seed in range(count)
    ]


def determinism_batch(targets=("cell", "apu", "manycore")) -> list[FarmJob]:
    """12 jobs mixing targets, policies, engines and seeds."""
    jobs = []
    for target in targets:
        for policy, engine, seed in (
            ("greedy", "codegen", 0),
            ("locality", "codegen", 1),
            ("locality", "reference", 0),
            (None, "reference", 1),
        ):
            jobs.append(
                FarmJob(
                    workload=f"figure2-s{seed}",
                    source=_figure2_for_seed(seed),
                    target=target,
                    engine=engine,
                    policy=policy,
                    seed=seed,
                )
            )
    return jobs


#: Named corpora the CLI exposes via ``--corpus``.
CORPORA = {
    "mixed": mixed_corpus,
    "figure2": figure2_batch,
    "determinism": determinism_batch,
}


def jobs_to_json(jobs: list[FarmJob]) -> str:
    """Serialize a batch to the batch-file format (pretty-printed)."""
    obj = {
        "kind": BATCH_KIND,
        "jobs": [job.as_dict() for job in jobs],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_jobs(path: str) -> list[FarmJob]:
    """Load a batch file; raises ``ValueError`` on malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read batch file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"batch file {path!r} is not JSON: {exc}") from exc
    if isinstance(obj, dict):
        if obj.get("kind") not in (None, BATCH_KIND):
            raise ValueError(
                f"batch file {path!r}: kind must be {BATCH_KIND!r}, "
                f"got {obj.get('kind')!r}"
            )
        specs = obj.get("jobs")
    else:
        specs = obj
    if not isinstance(specs, list) or not specs:
        raise ValueError(
            f"batch file {path!r} must contain a non-empty job list"
        )
    jobs = []
    for position, spec in enumerate(specs):
        try:
            jobs.append(FarmJob.from_dict(spec))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"batch file {path!r}, job [{position}]: {exc}"
            ) from exc
    return jobs
