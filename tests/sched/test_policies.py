"""Scheduling policies: placement decisions, compat identity, locality
wins, profile-sharpened critical path."""

import dataclasses

import pytest

from repro.compiler.driver import compile_program
from repro.game.sources import figure2_source, game_demo_source
from repro.machine.config import APU_UNIFIED, CELL_LIKE, MANYCORE_GRID, SMP_UNIFORM
from repro.machine.machine import Machine
from repro.obs import TraceRecorder
from repro.sched import POLICY_NAMES, SchedOptions, make_policy
from repro.sched.policy import PlacementView
from repro.vm.interpreter import RunOptions, run_program


def run_figure2(policy=None, frames=8, **sched_kwargs):
    program = compile_program(
        figure2_source(entity_count=24, pair_count=16, frames=frames),
        CELL_LIKE,
    )
    sched = (
        SchedOptions(policy=policy, **sched_kwargs)
        if policy is not None
        else None
    )
    return run_program(
        program, Machine(CELL_LIKE), RunOptions(sched=sched)
    )


class TestPolicyFactory:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("round-robin")

    def test_options_validate(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            SchedOptions(policy="fifo")
        with pytest.raises(ValueError, match="queue_depth"):
            SchedOptions(queue_depth=-1)
        with pytest.raises(ValueError, match="admission"):
            SchedOptions(admission="drop")


def _view(now=0, available=(0, 0, 0), busy=None, resident=(), uploads=None,
          estimate=100, spawn=600):
    resident_set = set(resident)
    upload_map = uploads or {}
    return PlacementView(
        now=now,
        available=list(available),
        busy=list(busy) if busy else [0] * len(available),
        resident=lambda i: i in resident_set,
        upload_cycles=lambda i: upload_map.get(i, 0),
        estimate=estimate,
        spawn_cost=spawn,
    )


class TestPlacementDecisions:
    def test_greedy_picks_earliest_available(self):
        view = _view(available=(50, 10, 30))
        assert make_policy("greedy").choose(view) == 1

    def test_greedy_ties_break_by_index(self):
        view = _view(available=(10, 10, 10))
        assert make_policy("greedy").choose(view) == 0

    def test_least_loaded_prefers_low_busy(self):
        view = _view(available=(0, 0, 0), busy=(500, 100, 300))
        assert make_policy("least-loaded").choose(view) == 1

    def test_locality_prefers_resident_core(self):
        view = _view(available=(50, 10, 30), resident=(2,))
        assert make_policy("locality").choose(view) == 2

    def test_locality_falls_back_to_greedy_when_cold(self):
        view = _view(available=(50, 10, 30))
        assert make_policy("locality").choose(view) == 1

    def test_critical_path_counts_upload_cost(self):
        # Accel 0 frees first but needs a big cold upload; accel 1
        # finishes the job sooner overall.
        view = _view(available=(0, 40), uploads={0: 500}, estimate=100)
        assert make_policy("critical-path").choose(view) == 1

    def test_critical_path_orders_long_chains_first(self):
        policy = make_policy("critical-path")
        assert policy.order_key(1000, 5) < policy.order_key(10, 0)


class TestCompatIdentity:
    def test_explicit_greedy_without_uploads_matches_compat(self):
        """policy=greedy + model_uploads=False is the legacy scheduler
        exactly — cycle-for-cycle."""
        compat = run_figure2()
        explicit = run_figure2("greedy", model_uploads=False)
        assert explicit.cycles == compat.cycles
        assert explicit.printed == compat.printed
        assert explicit.machine.host.clock.now == compat.machine.host.clock.now

    def test_compat_collects_stats_without_events(self):
        program = compile_program(figure2_source(frames=2), CELL_LIKE)
        machine = Machine(CELL_LIKE)
        recorder = TraceRecorder()
        machine.attach_trace(recorder)
        result = run_program(program, machine, RunOptions())
        assert result.sched is not None
        assert result.sched.jobs == 2
        assert result.sched.busy_cycles > 0
        assert not [e for e in recorder.events() if e[3].startswith("sched.")]

    def test_explicit_mode_emits_sched_lane(self):
        program = compile_program(figure2_source(frames=2), CELL_LIKE)
        machine = Machine(CELL_LIKE)
        recorder = TraceRecorder()
        machine.attach_trace(recorder)
        run_program(
            program, machine,
            RunOptions(sched=SchedOptions(policy="greedy")),
        )
        kinds = {e[3] for e in recorder.events() if e[2] == "sched"}
        assert "sched.submit" in kinds
        assert "sched.dispatch" in kinds


class TestLocalityWins:
    def test_locality_beats_greedy_on_figure2(self):
        greedy = run_figure2("greedy")
        locality = run_figure2("locality")
        assert locality.printed == greedy.printed
        assert locality.cycles < greedy.cycles
        assert locality.sched.uploads < greedy.sched.uploads

    def test_locality_beats_greedy_on_game_demo(self):
        program = compile_program(
            game_demo_source(
                entity_count=12, pair_count=8, particles=8, frames=3
            ),
            CELL_LIKE,
        )

        def run(policy):
            return run_program(
                program, Machine(CELL_LIKE),
                RunOptions(sched=SchedOptions(policy=policy)),
            )

        greedy, locality = run("greedy"), run("locality")
        assert locality.printed == greedy.printed
        assert locality.cycles < greedy.cycles

    def test_uploads_are_free_on_shared_memory_targets(self):
        """SMP accelerators execute from main memory: no upload cost,
        so every policy costs the same there."""
        program = compile_program(figure2_source(frames=4), SMP_UNIFORM)

        def run(policy):
            return run_program(
                program, Machine(SMP_UNIFORM),
                RunOptions(sched=SchedOptions(policy=policy)),
            ).cycles

        assert run("greedy") == run("locality")


class TestTargetParameters:
    """Per-target scheduler parameters from the registry presets."""

    def _run(self, config, frames=8, **sched_kwargs):
        program = compile_program(
            figure2_source(entity_count=24, pair_count=16, frames=frames),
            config,
        )
        return run_program(
            program, Machine(config),
            RunOptions(sched=SchedOptions(**sched_kwargs)),
        )

    def test_locality_beats_greedy_on_manycore(self):
        """With 24 cores, uncompressed code images and a slow shared
        grid, rotating placement re-uploads every frame; the warm-core
        policy pays once.  This is the CI gate for the preset."""
        greedy = self._run(MANYCORE_GRID, policy="greedy")
        locality = self._run(MANYCORE_GRID, policy="locality")
        assert locality.printed == greedy.printed
        assert locality.cycles < greedy.cycles
        assert locality.sched.uploads < greedy.sched.uploads

    def test_manycore_uploads_cost_more_than_cell(self):
        """code_bytes_per_instr=8 over a 4-bytes/cycle channel: one
        cold upload moves twice the bytes at half the bandwidth."""
        cell = self._run(CELL_LIKE, policy="greedy")
        manycore = self._run(MANYCORE_GRID, policy="greedy")
        cell_bytes = cell.perf().get("sched.upload_bytes", 0)
        manycore_bytes = manycore.perf().get("sched.upload_bytes", 0)
        assert cell_bytes > 0
        assert manycore_bytes > cell_bytes

    def test_manycore_default_queue_depth_binds(self):
        result = self._run(MANYCORE_GRID, policy="greedy")
        assert result.sched.queue_depth == MANYCORE_GRID.sched_queue_depth

    def test_explicit_queue_depth_overrides_target_default(self):
        result = self._run(MANYCORE_GRID, policy="greedy", queue_depth=0)
        assert result.sched.queue_depth == 0

    def test_apu_uploads_are_free(self):
        """No local stores on the unified-memory machine: nothing to
        upload, so placement policies cost the same."""
        apu_greedy = self._run(APU_UNIFIED, policy="greedy")
        apu_locality = self._run(APU_UNIFIED, policy="locality")
        assert apu_greedy.perf().get("sched.upload_bytes", 0) == 0
        assert apu_greedy.cycles == apu_locality.cycles


class TestProfileFeedback:
    def test_stats_profile_feeds_forward(self):
        first = run_figure2("critical-path")
        profile = first.sched.profile
        assert profile  # observed at least offload 0
        second = run_figure2("critical-path", profile=dict(profile))
        assert second.cycles == first.cycles  # single offload: same plan

    def test_run_result_carries_utilization(self):
        result = run_figure2("locality")
        stats = result.sched.as_dict(result.cycles)
        assert stats["total_cycles"] == result.cycles
        assert len(stats["utilization"]) == 6
        assert stats["utilization"][0] > 0


class TestAffinityAndErrors:
    def test_run_options_sched_roundtrip(self):
        options = RunOptions(sched=SchedOptions(policy="locality"))
        clone = dataclasses.replace(options, engine="reference")
        assert clone.sched.policy == "locality"

    def test_queue_depth_survives_as_stats(self):
        result = run_figure2("greedy", queue_depth=3)
        assert result.sched.queue_depth == 3


def test_code_images_are_measured_once_per_program(monkeypatch):
    """Upload sizes and static estimates walk the call graph once per
    offload of a program object, not per run or per upload, and again
    after ``DomainTable.add()`` changes what an offload can reach."""
    from repro.analysis import footprint

    walks: list = []
    walk = footprint.reachable_functions
    monkeypatch.setattr(
        footprint, "reachable_functions",
        lambda program, meta: walks.append(meta.entry) or walk(program, meta),
    )
    program = compile_program(
        figure2_source(entity_count=12, pair_count=6, frames=2), CELL_LIKE
    )
    options = RunOptions(sched=SchedOptions(policy="locality"))
    uploads = [
        run_program(program, Machine(CELL_LIKE), options).perf()["sched.upload_bytes"]
        for _ in range(3)
    ]
    assert uploads[0] > 0 and uploads == uploads[:1] * 3
    assert sorted(walks) == sorted(m.entry for m in program.offload_meta.values())
    meta = next(iter(program.offload_meta.values()))
    meta.domain.add(0x7FFF0, "extra", [])
    run_program(program, Machine(CELL_LIKE), options)
    assert walks.count(meta.entry) == 2
