"""Tests for struct layout packing and world generation."""

import pytest

from repro.game.layout import GAME_ENTITY, FieldSpec, StructLayout
from repro.game.worldgen import generate_world
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine


class TestStructLayout:
    def test_offsets_with_natural_alignment(self):
        layout = StructLayout(
            [FieldSpec("c", "b"), FieldSpec("n", "i"), FieldSpec("d", "b")]
        )
        assert layout.offsets == {"c": 0, "n": 4, "d": 8}
        assert layout.size == 12

    def test_vptr_reserves_first_slot(self):
        layout = StructLayout([FieldSpec("n", "i")], vptr=True)
        assert layout.offsets["n"] == 4
        assert layout.size == 8

    def test_pack_unpack_round_trip(self):
        layout = StructLayout(
            [FieldSpec("x", "f"), FieldSpec("n", "i"), FieldSpec("c", "b")]
        )
        values = {"x": 1.5, "n": -7, "c": -3}
        assert layout.unpack(layout.pack(values)) == values

    def test_pack_defaults_missing_fields_to_zero(self):
        layout = StructLayout([FieldSpec("a", "i"), FieldSpec("b", "i")])
        assert layout.unpack(layout.pack({"a": 5})) == {"a": 5, "b": 0}

    def test_vptr_value_round_trip(self):
        layout = StructLayout([FieldSpec("n", "i")], vptr=True)
        blob = layout.pack({"n": 1}, vptr_value=0xABCD)
        assert layout.unpack(blob)["__vptr"] == 0xABCD

    def test_memory_read_write(self):
        machine = Machine(CELL_LIKE)
        layout = GAME_ENTITY
        values = {"x": 1.0, "y": 2.0, "vx": 0.5, "vy": -0.5,
                  "health": 80, "state": 3}
        layout.write(machine.main_memory, 0x2000, values)
        assert layout.read(machine.main_memory, 0x2000) == values

    def test_field_level_access(self):
        """The engines update one field by rewriting the whole entity:
        the field lands at its offset and its neighbours survive."""
        memory = Machine(CELL_LIKE).main_memory
        GAME_ENTITY.write(memory, 0x2000, {"x": 1.5, "health": 80})
        entity = GAME_ENTITY.read(memory, 0x2000)
        entity["health"] = 55
        GAME_ENTITY.write(memory, 0x2000, entity)
        at = 0x2000 + GAME_ENTITY.offsets["health"]
        assert memory.read_unchecked(at, 4) == (55).to_bytes(4, "little")
        assert GAME_ENTITY.read(memory, 0x2000)["x"] == 1.5

    def test_game_entity_matches_compiler_layout(self):
        """The hand layout must agree with the compiler's rules so the
        manual engine and compiled code can share data."""
        from repro.compiler.driver import analyze_source

        info = analyze_source(
            """
            struct GameEntity {
                float x; float y; float vx; float vy;
                int health; int state;
            };
            void main() { }
            """
        )
        compiled = info.classes["GameEntity"]
        assert compiled.size() == GAME_ENTITY.size
        for field in GAME_ENTITY.fields:
            assert (
                compiled.find_field(field.name).offset
                == GAME_ENTITY.offsets[field.name]
            )

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError):
            StructLayout([FieldSpec("a", "i"), FieldSpec("a", "f")])

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec("a", "q")


class TestWorldGen:
    def test_deterministic_for_same_seed(self):
        world_a = generate_world(Machine(CELL_LIKE), 32, 16, seed=7)
        machine_b = Machine(CELL_LIKE)
        world_b = generate_world(machine_b, 32, 16, seed=7)
        assert world_a.pairs == world_b.pairs

    def test_different_seeds_differ(self):
        world_a = generate_world(Machine(CELL_LIKE), 32, 16, seed=1)
        world_b = generate_world(Machine(CELL_LIKE), 32, 16, seed=2)
        assert world_a.pairs != world_b.pairs

    def test_entities_written_to_memory(self):
        machine = Machine(CELL_LIKE)
        world = generate_world(machine, 16, 8)
        entity = world.layout.read(machine.main_memory, world.entity_address(0))
        assert entity["health"] > 0

    def test_pair_addresses_are_valid_entities(self):
        machine = Machine(CELL_LIKE)
        world = generate_world(machine, 16, 8)
        valid = {world.entity_address(i) for i in range(16)}
        for first, second in world.pairs:
            assert first in valid and second in valid
            assert first != second

    def test_entity_address_bounds(self):
        world = generate_world(Machine(CELL_LIKE), 4, 0)
        with pytest.raises(IndexError):
            world.entity_address(4)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_world(Machine(CELL_LIKE), 0, 0)
