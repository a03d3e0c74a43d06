"""Tests for the manual-intrinsics engine (Figure 1 style) and the
streamed/grouped updaters (Section 4.1 prefetch claim)."""

import pytest

from repro.game.engine import (
    ManualCollisionEngine,
    PerObjectUpdater,
    StreamedEntityUpdater,
    collision_response,
)
from repro.game.worldgen import generate_world
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine


def fresh_world(entities=32, pairs=12, seed=3):
    machine = Machine(CELL_LIKE)
    world = generate_world(machine, entities, pairs, seed=seed)
    return machine, world


def contents(machine) -> bytes:
    main = machine.main_memory
    return main.read(0, main.size)


class TestCollisionResponse:
    def test_swaps_velocities(self):
        a = {"x": 0, "y": 0, "vx": 1.0, "vy": 2.0, "health": 10, "state": 0}
        b = {"x": 0, "y": 0, "vx": -1.0, "vy": -2.0, "health": 10, "state": 0}
        new_a, new_b = collision_response(a, b)
        assert new_a["vx"] == -1.0 and new_b["vx"] == 1.0

    def test_damages_both(self):
        a = {"vx": 0, "vy": 0, "health": 10, "state": 0}
        b = {"vx": 0, "vy": 0, "health": 1, "state": 0}
        new_a, new_b = collision_response(a, b)
        assert new_a["health"] == 9 and new_b["health"] == 0

    def test_health_never_negative(self):
        a = {"vx": 0, "vy": 0, "health": 0, "state": 0}
        b = {"vx": 0, "vy": 0, "health": 0, "state": 0}
        new_a, new_b = collision_response(a, b)
        assert new_a["health"] == 0

    def test_marks_collided(self):
        a = {"vx": 0, "vy": 0, "health": 5, "state": 4}
        b = {"vx": 0, "vy": 0, "health": 5, "state": 0}
        new_a, new_b = collision_response(a, b)
        assert new_a["state"] == 5 and new_b["state"] == 1

    def test_inputs_not_mutated(self):
        a = {"vx": 1.0, "vy": 0, "health": 5, "state": 0}
        b = {"vx": 2.0, "vy": 0, "health": 5, "state": 0}
        collision_response(a, b)
        assert a["vx"] == 1.0


class TestManualCollisionEngine:
    def test_processes_all_pairs(self):
        machine, world = fresh_world()
        engine = ManualCollisionEngine(machine.accelerator(0), world)
        stats = engine.process_pairs()
        assert stats.pairs == len(world.pairs)
        # Every paired entity is marked collided in main memory.
        first, second = world.pairs[0]
        assert world.layout.read(machine.main_memory, first)["state"] & 1

    def test_figure1_idiom_beats_fenced_gets(self):
        """The E1 claim: parallel gets under one tag are faster."""
        machine_p, world_p = fresh_world()
        parallel = ManualCollisionEngine(
            machine_p.accelerator(0), world_p
        ).process_pairs(parallel=True)
        machine_s, world_s = fresh_world()
        serial = ManualCollisionEngine(
            machine_s.accelerator(0), world_s
        ).process_pairs(parallel=False)
        assert parallel.cycles < serial.cycles
        assert parallel.pairs == serial.pairs

    def test_both_variants_compute_same_result(self):
        machine_p, world_p = fresh_world(seed=11)
        ManualCollisionEngine(machine_p.accelerator(0), world_p).process_pairs(
            parallel=True
        )
        machine_s, world_s = fresh_world(seed=11)
        ManualCollisionEngine(machine_s.accelerator(0), world_s).process_pairs(
            parallel=False
        )
        assert contents(machine_p) == contents(machine_s)


class TestStreamedUpdater:
    def test_updates_every_entity(self):
        machine, world = fresh_world(entities=48, pairs=0)
        before = [
            world.layout.read(machine.main_memory, world.entity_address(i))
            for i in range(world.entity_count)
        ]
        StreamedEntityUpdater(machine.accelerator(0), world).run()
        for index, old in enumerate(before):
            new = world.layout.read(
                machine.main_memory, world.entity_address(index)
            )
            assert new["x"] == pytest.approx(old["x"] + old["vx"], rel=1e-5)
            assert new["y"] == pytest.approx(old["y"] + old["vy"], rel=1e-5)

    def test_double_buffering_beats_single(self):
        machine_2, world_2 = fresh_world(entities=64, pairs=0)
        cycles_2 = StreamedEntityUpdater(
            machine_2.accelerator(0), world_2, depth=2
        ).run()
        machine_1, world_1 = fresh_world(entities=64, pairs=0)
        cycles_1 = StreamedEntityUpdater(
            machine_1.accelerator(0), world_1, depth=1
        ).run()
        assert cycles_2 < cycles_1

    def test_grouped_streaming_beats_per_object(self):
        """The Section 4.1 claim: uniform-type grouping enables
        prefetch + double buffering; mixed-type per-object round trips
        cannot."""
        machine_s, world_s = fresh_world(entities=64, pairs=0)
        streamed = StreamedEntityUpdater(
            machine_s.accelerator(0), world_s, depth=2
        ).run()
        machine_p, world_p = fresh_world(entities=64, pairs=0)
        per_object = PerObjectUpdater(machine_p.accelerator(0), world_p).run()
        assert streamed < per_object / 2

    def test_per_object_and_streamed_agree(self):
        machine_s, world_s = fresh_world(entities=32, pairs=0, seed=5)
        StreamedEntityUpdater(machine_s.accelerator(0), world_s).run()
        machine_p, world_p = fresh_world(entities=32, pairs=0, seed=5)
        PerObjectUpdater(machine_p.accelerator(0), world_p).run()
        assert contents(machine_s) == contents(machine_p)
