"""The content-addressed compile cache: keys, backends, warm speedup."""

import json
import os
import statistics
import time

import pytest

from repro.compiler.cache import (
    CACHE_ENV_VAR,
    CompileCache,
    cache_at,
    compile_cache_key,
    resolve_cache,
)
from repro.compiler.driver import CompileOptions, compile_program
from repro.ir.serialize import program_to_json
from repro.machine.config import CELL_LIKE, DSP_WORD, SMP_UNIFORM, target_names
from repro.machine.machine import Machine
from repro.game.sources import figure2_source
from repro.vm.codegen import warm_translations
from repro.vm.interpreter import ENGINE_NAMES, RunOptions, run_program

SOURCE = figure2_source(entity_count=8, pair_count=6, frames=1)


class TestCacheKey:
    def test_same_inputs_same_key(self):
        a = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        b = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        assert a == b

    def test_source_changes_key(self):
        a = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        b = compile_cache_key(SOURCE + "\n", CELL_LIKE, CompileOptions())
        assert a != b

    def test_line_endings_do_not_change_key(self):
        a = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        b = compile_cache_key(
            SOURCE.replace("\n", "\r\n"), CELL_LIKE, CompileOptions()
        )
        assert a == b

    def test_target_config_changes_key(self):
        a = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        assert a != compile_cache_key(SOURCE, SMP_UNIFORM, CompileOptions())
        assert a != compile_cache_key(SOURCE, DSP_WORD, CompileOptions())

    def test_cost_model_changes_key(self):
        tweaked = CELL_LIKE.with_(
            cost=CELL_LIKE.cost.__class__(dma_latency=999)
        )
        a = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        assert a != compile_cache_key(SOURCE, tweaked, CompileOptions())

    def test_options_change_key(self):
        base = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        for options in (
            CompileOptions(optimize=True),
            CompileOptions(demand_load=True),
            CompileOptions(default_cache="direct"),
            CompileOptions(wordaddr_mode="emulate"),
        ):
            assert compile_cache_key(SOURCE, CELL_LIKE, options) != base

    #: Digests of one source per registered target x (default, optimising)
    #: options: cache entries written by earlier versions stay reachable.
    PINNED = {
        ("cell", False): "68720f8cf7264810ea25d2a6ceb8fc22c2165132f94f5ec52a32cc95d83a08c8",
        ("cell", True): "43ef8496cb8e2293c76548b1d48f3e4f659f9ee6442a3ba267f6528de683f662",
        ("smp", False): "a1b36cac5f40936b2b88a8f3b076222b5d932d6d147ca2f86b8fc1b707f5a069",
        ("smp", True): "6b0ba1964ec2e87a9aa5c76e7b6f402e0eea65a60c42b01c2897979fc6cd0ae8",
        ("dsp", False): "5036e5bb41e9e15883a2cc6a6fd1543987fc93584163b8a88d6a2b144de759e9",
        ("dsp", True): "10ac5a3d21b4a616af4dab27eb8c5cf32289dcdb116ea0f0aa3a87cf4d263137",
        ("apu", False): "2f261779d1adcd4ec57057cbb2bec6588a6f21ac858b3169fe4ed95c8c575f92",
        ("apu", True): "5aa9552682513c949e0dae3e4db4e165e15988b2d1ba50303045e7cf4ac152bb",
        ("manycore", False): "25e30e2d95deab07460a59f16004ece89da7e054cbfeac61796c68906bb668df",
        ("manycore", True): "537065156edf424debad6a1e00f373e858e9a7aa325d0e94deaf885028af6d68",
    }

    def test_keys_are_pinned_for_every_target(self):
        assert {name for name, _ in self.PINNED} == set(target_names())
        for (target, optimize), digest in self.PINNED.items():
            options = CompileOptions(optimize=optimize)
            for _ in range(2):  # serialized, then served from the object
                key = compile_cache_key(
                    "void main() { print_int(7); }\n", target, options
                )
                assert key == digest, (target, optimize)


class TestDiskBackend:
    def test_miss_then_hit(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        key = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        assert cache.load(key) is None
        program = compile_program(SOURCE, CELL_LIKE)
        cache.store(key, program)
        assert key in cache
        loaded = cache.load(key)
        assert loaded is not None
        assert program_to_json(loaded) == program_to_json(program)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_load_returns_fresh_objects(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        key = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        cache.store(key, compile_program(SOURCE, CELL_LIKE))
        first = cache.load(key)
        second = cache.load(key)
        assert first is not second
        # Mutating one hit must not poison the next.
        first.functions.clear()
        assert cache.load(key).functions

    def test_survives_process_boundary_via_disk(self, tmp_path):
        key = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        CompileCache(str(tmp_path)).store(
            key, compile_program(SOURCE, CELL_LIKE)
        )
        fresh_instance = CompileCache(str(tmp_path))
        assert fresh_instance.load(key) is not None

    def test_corrupt_entry_is_a_miss_and_discarded(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        key = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        cache.store(key, compile_program(SOURCE, CELL_LIKE))
        path = cache.path_for(key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"format": "repro-ir-artifact", "version": 1')
        fresh_instance = CompileCache(str(tmp_path))
        assert fresh_instance.load(key) is None
        assert fresh_instance.stats.evictions_bad == 1
        assert not os.path.exists(path)

    @pytest.mark.parametrize(
        "breakage", ["no globals", "retyped register", "version 1", "not utf-8"]
    )
    def test_malformed_entry_is_a_counted_bad_miss(self, tmp_path, breakage):
        cache = CompileCache(str(tmp_path))
        key = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        cache.store(key, compile_program(SOURCE, CELL_LIKE))
        path = cache.path_for(key)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if breakage == "no globals":
            del data["globals"]
        elif breakage == "retyped register":
            move = next(
                record
                for function in data["functions"].values()
                for record in function["code"]
                if record[0] == "Move"
            )
            move[2] = "0"
        elif breakage == "version 1":
            data["version"] = 1
        payload = json.dumps(data).encode("utf-8")
        if breakage == "not utf-8":
            payload = b"\xff\xfe" + payload
        with open(path, "wb") as handle:
            handle.write(payload)
        fresh_instance = CompileCache(str(tmp_path))
        assert fresh_instance.load(key) is None
        assert fresh_instance.stats.evictions_bad == 1
        assert fresh_instance.stats.misses == 1
        assert not os.path.exists(path)

    def test_clear(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        key = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        cache.store(key, compile_program(SOURCE, CELL_LIKE))
        cache.clear()
        assert cache.load(key) is None


class TestResolution:
    def test_explicit_cache_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        explicit = CompileCache(str(tmp_path / "explicit"))
        assert resolve_cache(explicit) is explicit

    def test_env_var_activates_shared_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        cache = resolve_cache()
        assert cache is not None
        assert cache is cache_at(str(tmp_path))

    def test_no_env_no_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert resolve_cache() is None

    def test_compile_program_populates_env_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        program = compile_program(SOURCE, CELL_LIKE)
        key = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        assert key in cache_at(str(tmp_path))
        warm = compile_program(SOURCE, CELL_LIKE)
        assert warm is not program
        assert program_to_json(warm) == program_to_json(program)


class TestAuxTextEntries:
    """Auxiliary entries (the codegen engine's marshalled code objects;
    opaque bytes here) live alongside the artifact shards without
    disturbing artifact accounting."""

    KIND = "codegen1.test-tag"

    def test_store_then_load(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.store_bytes("ab" * 32, b"\x00payload\xff", kind=self.KIND)
        assert cache.load_bytes("ab" * 32, self.KIND) == b"\x00payload\xff"
        assert cache.stats.aux_stores == 1
        assert cache.stats.aux_hits == 1
        # Artifact counters untouched.
        assert cache.stats.hits == 0
        assert cache.stats.stores == 0

    def test_miss_counts_and_returns_none(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        assert cache.load_bytes("cd" * 32, self.KIND) is None
        assert cache.stats.aux_misses == 1
        assert cache.stats.aux_bad == 0

    def test_survives_process_boundary(self, tmp_path):
        CompileCache(str(tmp_path)).store_bytes(
            "ef" * 32, b"x = 1\n", kind=self.KIND
        )
        fresh = CompileCache(str(tmp_path))
        assert fresh.load_bytes("ef" * 32, self.KIND) == b"x = 1\n"

    def test_rejected_entry_is_recounted_as_a_bad_miss(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.store_bytes("23" * 32, b"\xff\xfe", kind=self.KIND)
        assert cache.load_bytes("23" * 32, self.KIND) == b"\xff\xfe"
        cache.reject_bytes()  # what a consumer that cannot use it does
        assert cache.stats.aux_bad == 1
        assert cache.stats.aux_misses == 1
        assert cache.stats.aux_hits == 0
        assert cache.stats.evictions_bad == 0  # artifacts count apart

    def test_clear_drops_aux_entries(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.store_bytes("01" * 32, b"y = 2\n", kind=self.KIND)
        cache.clear()
        assert CompileCache(str(tmp_path)).load_bytes(
            "01" * 32, self.KIND
        ) is None

    def test_clear_leaves_no_file_the_cache_wrote(self, tmp_path):
        # Through the real consumers: an artifact and the codegen
        # engine's code-object entry for it.
        cache = CompileCache(str(tmp_path))
        program = compile_program(SOURCE, CELL_LIKE, cache=cache)
        warm_translations(
            program, Machine(CELL_LIKE), engine="codegen", cache=cache
        )
        assert cache.stats.stores == 1 and cache.stats.aux_stores == 1
        cache.clear()
        left = [
            name for _, _, files in os.walk(str(tmp_path)) for name in files
        ]
        assert left == []


class TestCachedExecutionEquivalence:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_cached_program_runs_identically(self, tmp_path, engine):
        cold = compile_program(SOURCE, CELL_LIKE)
        cache = CompileCache(str(tmp_path))
        warm = compile_program(SOURCE, CELL_LIKE, cache=cache)  # store
        warm = compile_program(SOURCE, CELL_LIKE, cache=cache)  # load
        assert cache.stats.hits == 1
        run_options = RunOptions(engine=engine)
        cold_run = run_program(cold, Machine(CELL_LIKE), run_options)
        warm_run = run_program(warm, Machine(CELL_LIKE), run_options)
        assert warm_run.output == cold_run.output
        assert warm_run.cycles == cold_run.cycles
        assert warm_run.perf() == cold_run.perf()


class TestWarmTranslations:
    def test_translates_once_and_is_idempotent(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        compile_program(SOURCE, CELL_LIKE, cache=cache)
        program = compile_program(SOURCE, CELL_LIKE, cache=cache)
        machine = Machine(CELL_LIKE)
        # This test's own (cold) cache, not an ambient one that a
        # previous suite run may have filled with the code objects.
        first = warm_translations(program, machine, cache=cache)
        assert first == len(program.functions)
        assert warm_translations(program, machine, cache=cache) == 0
        # A warmed program still runs identically (and does not pay
        # translation again inside the run).
        result = run_program(program, machine)
        fresh = run_program(
            compile_program(SOURCE, CELL_LIKE), Machine(CELL_LIKE)
        )
        assert result.output == fresh.output
        assert result.cycles == fresh.cycles


class TestWarmSpeedup:
    def test_warm_compile_runs_no_pass_and_is_3x_faster(
        self, tmp_path, monkeypatch
    ):
        """What the cache promises: a warm compile_program runs no pass
        at all, and on the Figure 2 game-frame program it is >= 3x
        faster than a cold compile.

        The ratio is a floor, not the promise: it falls whenever the
        front end gets faster (about 5.5x with the first parser, 3.8x
        after precedence climbing).  The host's speed drifts by more
        than the margin within one test, so cold and warm are timed in
        adjacent blocks and compared block against block: a drift
        slower than a block cancels in the ratio, and the median drops
        the pairs it split.  A second and third attempt are allowed,
        as one contended attempt says nothing about the cache."""
        # A process-wide REPRO_COMPILE_CACHE would make the "cold" runs
        # secretly warm; force the cold path to really compile.
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        source = figure2_source()  # the benchmark-sized program
        options = CompileOptions()
        cache = CompileCache(str(tmp_path))
        compile_program(source, CELL_LIKE, options, cache=cache)  # populate

        def no_parse(*_args, **_kwargs):
            raise AssertionError("a warm compile ran the parse pass")

        with monkeypatch.context() as patched:
            patched.setattr("repro.compiler.passes.parse_program", no_parse)
            compile_program(source, CELL_LIKE, options, cache=cache)

        def best(fn, reps=5):
            return min(_timed(fn) for _ in range(reps))

        def block_ratio():
            cold = best(lambda: compile_program(source, CELL_LIKE, options))
            warm = best(
                lambda: compile_program(source, CELL_LIKE, options, cache=cache)
            )
            return cold / warm

        attempts = []
        for _ in range(3):
            attempts.append(statistics.median(block_ratio() for _ in range(7)))
            if attempts[-1] >= 3.0:
                break
        assert cache.stats.hits >= 36
        assert attempts[-1] >= 3.0, (
            "warm cache speedup only "
            + ", ".join(f"{ratio:.1f}x" for ratio in attempts)
            + " in three attempts"
        )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
