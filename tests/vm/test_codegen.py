"""Codegen engine internals: generated source, caching, warm starts.

Equivalence with the reference engine is enforced by
``tests/test_vm_equivalence.py``; this module covers what is specific
to the source-generating engine — deterministic source text, the
in-memory and on-disk caches, warm starts that perform zero codegen
and zero ``compile()`` calls, the disk entries as a trust boundary,
every corpus function translated (ladders counted), and the
``--dump-codegen`` surface.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import marshal
import os
import re
import sys
import types

import pytest

import repro.vm.codegen as codegen_module
from repro.compiler.cache import (
    AUX_SUFFIX,
    CACHE_ENV_VAR,
    OWNED_SUFFIXES,
    CompileCache,
    compile_cache_key,
)
from repro.compiler.driver import CompileOptions, compile_program
from repro.game.sources import (
    figure1_racy_source,
    figure1_source,
    figure2_source,
)
from repro.ir.instructions import Const
from repro.ir.serialize import (
    artifact_digest,
    program_to_json,
    to_canonical_json,
)
from repro.machine.config import CELL_LIKE, resolve_target, target_names
from repro.machine.machine import Machine
from repro.runspec import FarmJob, execute_job
from repro.tools.check import _game_corpus
from repro.vm.codegen import (
    LADDER_MARK,
    MODULE_FILENAME,
    CodegenInterpreter,
    codegen_cache_key,
    codegen_cache_kind,
    generate_module_source,
    generate_module_units,
    warm_translations,
)
from repro.vm.interpreter import RunOptions, run_program


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    """These tests count translations, which a process-wide compile
    cache (CI's warm-cache job sets one) would serve from disk; the
    tests that want a cache name their own."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)


def _fresh_program(source=None):
    return compile_program(source or figure2_source(), CELL_LIKE)


class TestGeneratedSource:
    def test_source_is_deterministic(self):
        cost = CELL_LIKE.cost
        first = generate_module_source(_fresh_program(), cost)
        second = generate_module_source(_fresh_program(), cost)
        assert first == second

    def test_one_def_per_function(self):
        program = _fresh_program()
        source = generate_module_source(program, CELL_LIKE.cost)
        assert source.count("\ndef _f") == len(program.functions)
        # Every function is addressable through the dispatch table.
        for name in program.functions:
            assert repr(name) in source

    def test_source_compiles_clean(self):
        source = generate_module_source(_fresh_program(), CELL_LIKE.cost)
        compile(source, "<test>", "exec")  # must not raise


class TestStats:
    def test_cold_run_translates_once(self):
        program = _fresh_program()
        machine = Machine(CELL_LIKE)
        engine = CodegenInterpreter(program, machine, RunOptions())
        engine.run()
        stats = engine.codegen_stats
        assert stats.translations == len(program.functions)
        assert stats.exec_loads == 1

    def test_second_engine_reuses_program_module(self):
        program = _fresh_program()
        run_program(program, Machine(CELL_LIKE), RunOptions(engine="codegen"))
        engine = CodegenInterpreter(program, Machine(CELL_LIKE), RunOptions())
        engine.run()
        # The module travels with the program object: zero codegen and
        # zero exec on any later engine instance.
        assert engine.codegen_stats.translations == 0
        assert engine.codegen_stats.exec_loads == 0


class TestWarmStarts:
    def test_warm_translations_codegen_engine(self):
        program = _fresh_program()
        machine = Machine(CELL_LIKE)
        first = warm_translations(program, machine, engine="codegen")
        assert first == len(program.functions)
        # Already warm: the module is cached on the program object.
        assert warm_translations(program, machine, engine="codegen") == 0

    def test_warm_translations_rejects_unknown_engine(self):
        program = _fresh_program()
        for engine in ("jit", "compiled", "all", "reference"):
            with pytest.raises(ValueError, match="warm_translations engine"):
                warm_translations(program, Machine(CELL_LIKE), engine=engine)

    def test_disk_cache_warm_start_performs_zero_codegen(
        self, tmp_path, monkeypatch
    ):
        cache = CompileCache(str(tmp_path))
        cold = _fresh_program()
        machine = Machine(CELL_LIKE)
        assert (
            warm_translations(cold, machine, engine="codegen", cache=cache)
            > 0
        )
        assert cache.stats.aux_stores == 1
        key = codegen_cache_key(cold, CELL_LIKE.cost)
        assert os.path.exists(cache.aux_path(key, codegen_cache_kind()))
        # Walked by the suffixes the cache declares it owns, the
        # directory holds that one module and nothing it does not own.
        names = [name for _, _, files in os.walk(tmp_path) for name in files]
        assert all(name.endswith(OWNED_SUFFIXES) for name in names), names
        assert sum(name.endswith(AUX_SUFFIX) for name in names) == 1, names

        # A fresh program object (fresh process, same compilation): the
        # cached code objects are unmarshalled and exec'd — neither the
        # translator nor compile() runs.
        def no_compile(*args, **kwargs):
            raise AssertionError("compile() called on a disk-warm start")

        monkeypatch.setattr(
            codegen_module, "compile", no_compile, raising=False
        )
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        engine = CodegenInterpreter(
            _fresh_program(), Machine(CELL_LIKE), RunOptions()
        )
        result = engine.run()
        assert engine.codegen_stats.translations == 0
        assert engine.codegen_stats.cache_hits == 1
        assert result.output == run_program(
            _fresh_program(), Machine(CELL_LIKE), RunOptions(engine="reference")
        ).output
        # And through warm_translations: nothing left to translate.
        assert (
            warm_translations(
                _fresh_program(), machine, engine="codegen", cache=cache
            )
            == 0
        )

    def test_cached_source_round_trips_identically(self, tmp_path):
        # What lands on disk is the marshalled tuple of the module's
        # compile units: prelude, one per function, dispatch table.
        cache = CompileCache(str(tmp_path))
        program = _fresh_program()
        warm_translations(
            program, Machine(CELL_LIKE), engine="codegen", cache=cache
        )
        key = codegen_cache_key(program, CELL_LIKE.cost)
        with open(cache.aux_path(key, codegen_cache_kind()), "rb") as handle:
            units = marshal.loads(handle.read())
        sources = generate_module_units(program, CELL_LIKE.cost)
        assert len(units) == len(program.functions) + 2
        assert units == tuple(
            compile(source, MODULE_FILENAME, "exec") for source in sources
        )

    def test_cache_keys_differ_per_program(self):
        key_a = codegen_cache_key(_fresh_program(), CELL_LIKE.cost)
        key_b = codegen_cache_key(
            _fresh_program(figure1_source()), CELL_LIKE.cost
        )
        assert key_a != key_b


def _stored_and_reloaded(tmp_path):
    """The same compilation as held by the cache object that stored it
    and by a fresh cache object that loaded it from disk, with each
    cache's digest of the artifact."""
    key = compile_cache_key(figure2_source(), CELL_LIKE, CompileOptions())
    writer = CompileCache(str(tmp_path))
    stored = compile_program(figure2_source(), CELL_LIKE, cache=writer)
    reader = CompileCache(str(tmp_path))
    assert reader.artifact_digest(key) is None  # nothing held in memory yet
    loaded = compile_program(figure2_source(), CELL_LIKE, cache=reader)
    assert reader.stats.hits == 1
    return (
        (stored, writer.artifact_digest(key)),
        (loaded, reader.artifact_digest(key)),
    )


class TestCacheKey:
    def test_store_digest_equals_load_digest(self, tmp_path):
        (stored, stored_digest), (loaded, loaded_digest) = (
            _stored_and_reloaded(tmp_path)
        )
        assert stored_digest == loaded_digest
        cost = CELL_LIKE.cost
        key = codegen_cache_key(stored, cost, stored_digest)
        assert codegen_cache_key(loaded, cost, loaded_digest) == key
        # ...and both equal the serialise-and-hash key of a program no
        # cache vouches for.
        assert codegen_cache_key(_fresh_program(), cost) == key

    @pytest.mark.parametrize("target", target_names())
    def test_key_hashes_the_canonical_json_of_its_fields(self, target):
        """The key spells its material out by hand; it must stay the
        hash of the canonical JSON of the four fields, so disk entries
        written under that spelling keep hitting."""
        config = resolve_target(target)
        for name, source in _corpus_sources():
            program = compile_program(source, config)
            digest = artifact_digest(program_to_json(program))
            material = to_canonical_json({
                "codegen_version": codegen_module.CODEGEN_VERSION,
                "cache_tag": sys.implementation.cache_tag,
                "program_sha256": digest,
                "cost": dataclasses.asdict(config.cost),
            })
            expected = hashlib.sha256(material.encode("utf-8")).hexdigest()
            assert codegen_cache_key(program, config.cost) == expected, name
            assert codegen_cache_key(program, config.cost, digest) == expected

    def test_program_loaded_by_another_cache_object_warms_from_disk(
        self, tmp_path
    ):
        (stored, stored_digest), (loaded, loaded_digest) = (
            _stored_and_reloaded(tmp_path)
        )
        cache = CompileCache(str(tmp_path))
        machine = Machine(CELL_LIKE)
        assert warm_translations(
            stored, machine, engine="codegen", cache=cache,
            digest=stored_digest,
        ) == len(stored.functions)
        assert warm_translations(
            loaded, machine, engine="codegen", cache=cache,
            digest=loaded_digest,
        ) == 0

    def test_program_mutated_after_a_cached_compile_keys_as_what_it_is(
        self, tmp_path, monkeypatch
    ):
        # Compile through a cache, change the IR, run: the mutated
        # program must neither load the pristine program's code objects
        # nor publish its own under the pristine key.
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        source = "void main() { print_int(41); }"
        options = RunOptions(engine="codegen")

        def run(program):
            engine = CodegenInterpreter(program, Machine(CELL_LIKE), options)
            return engine.run().output, engine.codegen_stats

        pristine = compile_program(source, CELL_LIKE)
        assert run(pristine)[0] == [("host", 41)]

        mutated = compile_program(source, CELL_LIKE)  # an artifact hit
        code = mutated.functions["main"].code
        (at,) = [
            i for i, instr in enumerate(code)
            if isinstance(instr, Const) and instr.value == 41
        ]
        code[at] = dataclasses.replace(code[at], value=42)
        output, stats = run(mutated)
        assert output == [("host", 42)]  # no stale load
        assert stats.cache_hits == 0 and stats.translations > 0

        output, stats = run(compile_program(source, CELL_LIKE))
        assert output == [("host", 41)]  # no poisoned entry
        assert stats.cache_hits == 1 and stats.translations == 0

    @pytest.mark.parametrize("what", ["cache_tag", "codegen_version"])
    def test_key_and_kind_carry_interpreter_tag_and_version(
        self, tmp_path, monkeypatch, what
    ):
        cache = CompileCache(str(tmp_path))
        machine = Machine(CELL_LIKE)
        program = _fresh_program()
        warm_translations(program, machine, engine="codegen", cache=cache)
        key = codegen_cache_key(program, CELL_LIKE.cost)
        kind = codegen_cache_kind()
        if what == "cache_tag":
            fake_sys = types.SimpleNamespace(
                implementation=types.SimpleNamespace(cache_tag="other-999")
            )
            monkeypatch.setattr(codegen_module, "sys", fake_sys)
        else:
            monkeypatch.setattr(
                codegen_module, "CODEGEN_VERSION",
                codegen_module.CODEGEN_VERSION + 1,
            )
        assert codegen_cache_key(program, CELL_LIKE.cost) != key
        assert codegen_cache_kind() != kind
        # The existing entry is not loaded: a miss, a fresh translation
        # and a second entry next to the first.
        fresh = _fresh_program()
        assert warm_translations(
            fresh, machine, engine="codegen", cache=cache
        ) == len(fresh.functions)
        assert cache.stats.aux_hits == 0
        assert cache.stats.aux_bad == 0
        assert cache.stats.aux_stores == 2
        assert len(glob.glob(str(tmp_path / "*" / f"*{AUX_SUFFIX}"))) == 2

    def test_version_1_entry_is_a_miss_translated_never_executed(
        self, tmp_path, monkeypatch
    ):
        """A cache directory left by the previous translation scheme
        holds an entry that would crash (or, worse, miscount) if it ran:
        the current version neither finds nor ``exec``s it."""
        assert codegen_module.CODEGEN_VERSION > 1
        cache = CompileCache(str(tmp_path))
        program = _fresh_program()
        poison = marshal.dumps((
            compile("raise SystemExit('v1 ran')\n", MODULE_FILENAME, "exec"),
        ))
        with monkeypatch.context() as patch:
            patch.setattr(codegen_module, "CODEGEN_VERSION", 1)
            cache.store_bytes(
                codegen_cache_key(program, CELL_LIKE.cost),
                poison, codegen_cache_kind(),
            )
        engine = CodegenInterpreter(program, Machine(CELL_LIKE), RunOptions())
        engine._ensure_module(cache=cache)
        stats = engine.codegen_stats
        assert (stats.cache_hits, stats.cache_misses) == (0, 1)
        assert stats.translations == len(program.functions)
        assert len(glob.glob(str(tmp_path / "*" / f"*{AUX_SUFFIX}"))) == 2


def _one_code_object():
    return compile("x = 1\n", MODULE_FILENAME, "exec")


class TestCacheTrustBoundary:
    """The cache directory is outside input: whatever sits where a
    code-object entry should be, the job ends with the same report."""

    JOB = FarmJob(
        workload="frame",
        source=figure2_source(entity_count=6, pair_count=4, frames=1),
        target="cell",
        engine="codegen",
    )

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda good: good[: len(good) // 2], id="truncated"),
            pytest.param(lambda good: b"", id="empty"),
            pytest.param(
                lambda good: bytes(range(256)) * 64, id="random-bytes"
            ),
            pytest.param(lambda good: marshal.dumps(42), id="wrong-type"),
            pytest.param(
                lambda good: marshal.dumps((_one_code_object(), 42)),
                id="tuple-with-non-code",
            ),
            pytest.param(
                lambda good: marshal.dumps((_one_code_object(),)),
                id="code-without-dispatch-table",
            ),
        ],
    )
    def test_bad_entry_is_a_counted_miss_regenerated_and_overwritten(
        self, tmp_path, corrupt
    ):
        cache = CompileCache(str(tmp_path))
        cold = execute_job(self.JOB, cache=cache)
        assert cold["compiles"] == 1 and cold["translations"] > 0
        (path,) = glob.glob(str(tmp_path / "*" / f"*{AUX_SUFFIX}"))
        with open(path, "rb") as handle:
            good = handle.read()
        with open(path, "wb") as handle:
            handle.write(corrupt(good))

        fresh = CompileCache(str(tmp_path))
        again = execute_job(self.JOB, cache=fresh)
        assert fresh.stats.aux_bad == 1
        assert fresh.stats.evictions_bad == 0
        assert again["cache_hits"] == 1 and again["compiles"] == 0
        assert again["translations"] == cold["translations"]
        assert again["report"] == cold["report"]
        with open(path, "rb") as handle:
            assert handle.read() == good  # overwritten with a valid entry

        warm = execute_job(self.JOB, cache=CompileCache(str(tmp_path)))
        assert warm["translations"] == 0 and warm["cache_hits"] == 1
        assert warm["report"] == cold["report"]


def _corpus_sources():
    """The nine ``repro.tools.check`` generators (both component-system
    shapes among them) plus the racy Figure 1."""
    return [*_game_corpus(), ("game:figure1-racy", figure1_racy_source())]


class TestNoFallbacksOnTheCorpus:
    """Every function the game corpus compiles to is translated, on any
    registry target: the dispatch table holds exactly the program's
    functions, and each entry is generated code (none is a route back
    to the reference decode loop)."""

    @pytest.mark.parametrize("target", target_names())
    def test_corpus_translates_without_fallbacks(self, target):
        config = resolve_target(target)
        for name, source in _corpus_sources():
            program = compile_program(source, config)
            engine = CodegenInterpreter(program, Machine(config), RunOptions())
            funcs = engine._ensure_module()
            stats = engine.codegen_stats
            assert stats.translations == len(program.functions), name
            assert sorted(funcs) == sorted(program.functions), (name, target)
            for fn_name, fn in funcs.items():
                assert fn.__code__.co_filename == MODULE_FILENAME, (
                    name, target, fn_name
                )


class TestLaddersOnTheCorpus:
    """Functions whose CFG the structurer could not express keep the
    ``_pc`` ladder; how many is reported per program (and is 0 on every
    corpus program today)."""

    @pytest.mark.parametrize("target", target_names())
    def test_ladders_reported_over_the_corpus(self, target, record_property):
        config = resolve_target(target)
        for name, source in _corpus_sources():
            program = compile_program(source, config)
            engine = CodegenInterpreter(program, Machine(config), RunOptions())
            engine._ensure_module()
            stats = engine.codegen_stats
            assert 0 <= stats.ladders <= stats.translations
            record_property(f"ladders[{name}]", stats.ladders)

    def test_figure2_on_cell_has_none(self):
        """What ``run --dump-codegen`` prints for Figure 2 on cell
        compiles, every function structured."""
        source = generate_module_source(_fresh_program(), CELL_LIKE.cost)
        compile(source, "figure2-codegen.py", "exec")
        assert source.count(LADDER_MARK) == 0


#: A short-circuit join: the structurer leaves ``main`` on the ladder.
SHORT_CIRCUIT = """
void main() {
    int a = 1; int b = 0; int s = 0;
    if (a > 0 && b < 3) { s = 1; } else { s = 2; }
    print_int(s);
}
"""


class TestStatsTravelWithTheCode:
    """A module served from the disk cache reports the ladders the
    freshly generated one did (the warm-cache CI leg runs the whole
    suite against a populated cache)."""

    @pytest.mark.parametrize("target", target_names())
    def test_cold_and_warm_stats_agree(self, target, tmp_path):
        config = resolve_target(target)
        cache = CompileCache(str(tmp_path))
        cases = [*_corpus_sources(), ("short-circuit", SHORT_CIRCUIT)]
        cold_stats = {}
        for name, source in cases:
            stats = []
            for _ in ("cold", "warm"):
                program = compile_program(source, config)
                engine = CodegenInterpreter(program, Machine(config), RunOptions())
                engine._ensure_module(cache)
                stats.append(engine.codegen_stats)
            cold, warm = stats
            assert warm.cache_hits == 1, name
            assert warm.ladders == cold.ladders, name
            cold_stats[name] = cold
        assert cold_stats["short-circuit"].ladders == 1


class TestDumpCodegen:
    def test_dump_codegen_prints_module(self, tmp_path, capsys):
        from repro.tools.run import main

        source = tmp_path / "p.om"
        source.write_text("void main() { print_int(3); }")
        assert main([str(source), "--dump-codegen"]) == 0
        out, err = capsys.readouterr()
        assert "Generated by repro.vm.codegen" in out
        assert "FUNCTIONS = {" in out
        assert re.fullmatch(
            r"-- codegen: 1 functions, \d+ lines, 0 ladders, \d+ wraps proven\n", err
        ), err
