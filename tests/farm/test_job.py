"""FarmJob validation, serialization and identity; batch builders."""

from __future__ import annotations

import json

import pytest

from repro.compiler.driver import CompileOptions
from repro.farm import (
    CORPORA,
    FarmJob,
    determinism_batch,
    figure2_batch,
    jobs_to_json,
    load_jobs,
    mixed_corpus,
    program_key,
)
from repro.game.sources import figure2_source

SOURCE = figure2_source(entity_count=6, pair_count=4, frames=1)


class TestValidation:
    def test_requires_exactly_one_program(self):
        with pytest.raises(ValueError, match="exactly one"):
            FarmJob(workload="w")
        with pytest.raises(ValueError, match="exactly one"):
            FarmJob(workload="w", source=SOURCE, artifact="a.json")

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError, match="target"):
            FarmJob(workload="w", source=SOURCE, target="vax")

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            FarmJob(workload="w", source=SOURCE, engine="jit")

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            FarmJob(workload="w", source=SOURCE, policy="round-robin")

    def test_rejects_negative_knobs(self):
        with pytest.raises(ValueError, match="queue_depth"):
            FarmJob(workload="w", source=SOURCE, queue_depth=-1)
        with pytest.raises(ValueError, match="timeout"):
            FarmJob(workload="w", source=SOURCE, timeout=-0.5)

    def test_fault_directives(self):
        FarmJob(workload="w", source=SOURCE, fault="crash")
        FarmJob(workload="w", source=SOURCE, fault="crash-once:/tmp/m")
        FarmJob(workload="w", source=SOURCE, fault="sleep:0.5")
        with pytest.raises(ValueError, match="unknown fault"):
            FarmJob(workload="w", source=SOURCE, fault="explode")
        with pytest.raises(ValueError, match="sleep"):
            FarmJob(workload="w", source=SOURCE, fault="sleep:soon")
        with pytest.raises(ValueError, match="marker path"):
            FarmJob(workload="w", source=SOURCE, fault="crash-once")


class TestSerialization:
    def test_round_trip(self):
        job = FarmJob(
            workload="w", source=SOURCE, target="apu", engine="codegen",
            policy="locality", queue_depth=2, seed=3, timeout=10.0,
            options=CompileOptions(optimize=True),
        )
        assert FarmJob.from_dict(job.as_dict()) == job

    def test_default_options_omitted(self):
        job = FarmJob(workload="w", source=SOURCE)
        assert "options" not in job.as_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            FarmJob.from_dict({"workload": "w", "source": SOURCE, "gpu": 1})

    def test_batch_file_round_trip(self, tmp_path):
        jobs = mixed_corpus()
        path = tmp_path / "batch.json"
        path.write_text(jobs_to_json(jobs))
        assert load_jobs(str(path)) == jobs

    def test_bare_list_accepted(self, tmp_path):
        jobs = [FarmJob(workload="w", source=SOURCE)]
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([j.as_dict() for j in jobs]))
        assert load_jobs(str(path)) == jobs

    def test_malformed_batch_names_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([
            FarmJob(workload="w", source=SOURCE).as_dict(),
            {"workload": "broken"},
        ]))
        with pytest.raises(ValueError, match=r"job \[1\]"):
            load_jobs(str(path))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "kind.json"
        path.write_text(json.dumps({"kind": "other", "jobs": []}))
        with pytest.raises(ValueError, match="kind"):
            load_jobs(str(path))


class TestIdentity:
    def test_program_key_ignores_policy_and_seed(self):
        a = FarmJob(workload="w", source=SOURCE, policy="greedy", seed=0)
        b = FarmJob(workload="w", source=SOURCE, policy="locality", seed=7)
        assert program_key(a) == program_key(b)

    def test_program_key_varies_with_target_and_engine(self):
        base = FarmJob(workload="w", source=SOURCE, engine="reference")
        other_target = FarmJob(
            workload="w", source=SOURCE, engine="reference", target="apu"
        )
        other_engine = FarmJob(workload="w", source=SOURCE, engine="codegen")
        assert program_key(base) != program_key(other_target)
        assert program_key(base) != program_key(other_engine)

    def test_jobs_are_hashable(self):
        jobs = determinism_batch()
        assert len({hash(j) for j in jobs}) == len(jobs)


class TestCorpora:
    def test_mixed_corpus_shape(self):
        jobs = mixed_corpus()
        assert len(jobs) == 8
        assert {j.target for j in jobs} == {"cell", "apu"}
        assert {j.policy for j in jobs} == {"greedy", "locality"}

    def test_figure2_batch_count(self):
        assert len(figure2_batch(count=5)) == 5

    def test_determinism_batch_covers_three_targets(self):
        jobs = determinism_batch()
        assert len(jobs) == 12
        assert {j.target for j in jobs} == {"cell", "apu", "manycore"}
        assert {j.resolved_engine() for j in jobs} == {
            "reference", "codegen",
        }

    def test_corpora_registry(self):
        assert set(CORPORA) == {"mixed", "figure2", "determinism"}
