"""Farm throughput-scaling gate: >= 2.5x warm jobs/s at 4 workers.

One pool per size (1 and 4 workers) over a shared cache directory runs
the Figure 2 corpus for four batches; batch 0 warms the workers, and the
best later batch is the warm throughput.  Every batch must complete on
any host; the speed-up bound needs the cores to show it, so it is held
only on hosts with at least 4 CPUs.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.tools.farm import main

#: Warm 4-worker throughput over 1-worker throughput, on 4+ CPUs.
MIN_SPEEDUP = 2.5
SIZES = (1, 4)


@pytest.fixture(scope="module")
def batches(tmp_path_factory) -> dict[int, list[dict]]:
    """Per pool size, the batch summaries of its run."""
    directory = tmp_path_factory.mktemp("farm-scaling")
    runs = {}
    for workers in SIZES:
        out = directory / f"farm-scaling-{workers}.json"
        code = main(
            ["--corpus", "figure2", "--count", "8", "--workers", str(workers),
             "--repeat", "4", "--cache-dir", str(directory / "cache"),
             "--out", str(out), "--quiet"]
        )
        assert code == 0, workers
        runs[workers] = json.loads(out.read_text())["batches"]
    return runs


def _warm_jobs_per_sec(batches: list[dict]) -> float:
    return max(batch["jobs_per_sec"] for batch in batches[1:])


def test_every_batch_completes(batches):
    for workers, summaries in batches.items():
        assert len(summaries) == 4, workers
        for batch in summaries:
            assert batch["ok"] == batch["jobs"], (workers, batch)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason=f"only {os.cpu_count() or 1} CPUs: 4 workers cannot show "
           f"a {MIN_SPEEDUP}x speed-up",
)
def test_four_workers_scale(batches):
    best = {workers: _warm_jobs_per_sec(batches[workers]) for workers in SIZES}
    speedup = best[4] / best[1]
    print(f"warm jobs/s {best}: 4-worker speedup {speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"4-worker speedup {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"on a {os.cpu_count()}-CPU host"
    )
