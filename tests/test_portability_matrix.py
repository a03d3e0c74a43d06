"""The portability matrix: one source, every registered target, every
engine.

Section 4.2's claim, applied to the whole registry: the same OffloadMini
sources compile unchanged for all five targets, produce the same printed
output everywhere, and on each target both execution engines agree
on every observable (cycles, perf counters).  Artifacts round-trip
through serialization and resolve their machine back out of the registry
by display name.
"""

from __future__ import annotations

import pytest

from repro.compiler.driver import CompileOptions, compile_program
from repro.game.sources import (
    ai_kernel_source,
    figure2_source,
    game_demo_source,
)
from repro.ir.serialize import load_program, save_program
from repro.machine.config import TARGET_NAMES, resolve_target
from repro.machine.machine import Machine
from repro.vm.interpreter import ENGINE_NAMES, RunOptions, run_program

MATRIX_SOURCES = {
    "figure2": figure2_source(entity_count=16, pair_count=12, frames=2),
    "game-demo": game_demo_source(
        entity_count=8, pair_count=6, particles=6, frames=1
    ),
    "ai-kernel": ai_kernel_source(entity_count=12),
}


def _run(program, config, engine):
    return run_program(program, Machine(config), RunOptions(engine=engine))


class TestPortabilityMatrix:
    @pytest.mark.parametrize("workload", sorted(MATRIX_SOURCES))
    def test_all_targets_all_engines(self, workload):
        """Per target: all engines cycle/counter-identical.  Across
        targets: identical printed output (same program semantics, only
        the cost structure moves)."""
        source = MATRIX_SOURCES[workload]
        printed = {}
        cycles = {}
        for name in TARGET_NAMES:
            config = resolve_target(name)
            program = compile_program(source, config)
            results = {
                engine: _run(program, config, engine)
                for engine in ENGINE_NAMES
            }
            ref = results["reference"]
            for engine, result in results.items():
                assert result.output == ref.output, (name, engine)
                assert result.cycles == ref.cycles, (name, engine)
                assert (
                    result.machine.perf.as_dict()
                    == ref.machine.perf.as_dict()
                ), (name, engine)
            printed[name] = ref.printed
            cycles[name] = ref.cycles
        reference_output = printed["cell"]
        for name, output in printed.items():
            assert output == reference_output, name
        # The targets are genuinely different machines, not renames.
        assert len(set(cycles.values())) > 1, cycles

    @pytest.mark.parametrize("target", TARGET_NAMES)
    def test_artifact_round_trip(self, target, tmp_path):
        """Save/load per target; the loaded artifact resolves its own
        machine out of the registry (display-name alias) and replays to
        the exact same cycle count."""
        config = resolve_target(target)
        program = compile_program(MATRIX_SOURCES["figure2"], config)
        direct = _run(program, config, "codegen")
        path = tmp_path / f"{target}.json"
        save_program(program, str(path))
        loaded = load_program(str(path))
        assert loaded.target_name == config.name
        replayed = run_program(loaded)  # machine resolved from artifact
        assert replayed.machine.config is config
        assert replayed.cycles == direct.cycles
        assert replayed.printed == direct.printed

    def test_optimizer_keeps_the_matrix_identical(self):
        """--optimize must not break cross-engine identity on any target."""
        source = MATRIX_SOURCES["figure2"]
        options = CompileOptions(optimize=True)
        for name in TARGET_NAMES:
            config = resolve_target(name)
            program = compile_program(source, config, options)
            ref = _run(program, config, "reference")
            other = _run(program, config, "codegen")
            assert other.cycles == ref.cycles, name
            assert other.output == ref.output, name


class TestApuCollapse:
    """The unified-memory preset really does collapse the machinery:
    accessor/cache-staged code runs as plain loads and stores."""

    def test_zero_softcache_probes_and_zero_dma(self):
        source = MATRIX_SOURCES["ai-kernel"]  # direct-mapped cache on cell
        cell = _run(
            compile_program(source, "cell"), resolve_target("cell"),
            "reference",
        )
        apu = _run(
            compile_program(source, "apu"), resolve_target("apu"),
            "reference",
        )
        assert apu.printed == cell.printed
        cell_perf, apu_perf = cell.perf(), apu.perf()
        # The cell run exercised the machinery the apu run must not.
        assert cell_perf.get("softcache.probes", 0) > 0
        assert cell_perf.get("dma.gets", 0) > 0
        assert apu_perf.get("softcache.probes", 0) == 0
        assert apu_perf.get("dma.gets", 0) == 0
        assert apu_perf.get("dma.puts", 0) == 0
        assert apu_perf.get("dma.bytes_get", 0) == 0
        assert apu_perf.get("dma.bytes_put", 0) == 0

    def test_apu_outer_access_is_cheap(self):
        """The cost cliff the staging techniques bridge is gone: the
        raw (uncached, unstaged) loop costs less on apu than the
        accessor-staged version costs on cell."""
        from repro.game.sources import move_loop_source

        raw = move_loop_source(object_count=24)
        staged = move_loop_source(
            object_count=24, use_accessor=True, cache="direct"
        )
        apu_raw = _run(
            compile_program(raw, "apu"), resolve_target("apu"), "reference"
        )
        cell_staged = _run(
            compile_program(staged, "cell"), resolve_target("cell"),
            "reference",
        )
        assert apu_raw.cycles < cell_staged.cycles
