"""Concurrent-writer safety of the content-addressed compile cache.

The farm (:mod:`repro.farm`) points every worker process at one shared
``cache_dir``, so several writers can race on the same key — same
source, same target, compiled simultaneously on cold workers.  The
contract under that race is:

* a reader never observes a torn or partial file (``load`` returns
  either ``None`` — pre-first-publish — or a complete, valid program;
  ``evictions_bad`` stays 0);
* last-writer-wins publication is harmless because artifacts are
  deterministic — every racer writes byte-identical content;
* the same holds for auxiliary bytes entries (the codegen engine's
  marshalled code objects): a reader gets the complete blob or a miss,
  never a torn one.
"""

from __future__ import annotations

import marshal
import multiprocessing
import os
import threading

from repro.compiler.cache import CompileCache, compile_cache_key
from repro.compiler.driver import CompileOptions, compile_program
from repro.game.sources import figure2_source
from repro.ir.serialize import program_to_json
from repro.machine.config import CELL_LIKE

SOURCE = figure2_source(entity_count=6, pair_count=4, frames=1)

AUX_KIND = "codegen1.test-tag"

#: A blob shaped like the real entries: a marshalled tuple of code
#: objects, big enough that a torn write could not go unnoticed.
UNITS = tuple(
    compile(f"def f{i}(x):\n    return x + {i}\n" * 40, "<blob>", "exec")
    for i in range(24)
)
BLOB = marshal.dumps(UNITS)


def _probe_blob(directory, key):
    """A cold reader's view of the aux entry: None (fine: miss) or a
    description of what went wrong."""
    blob = CompileCache(directory).load_bytes(key, AUX_KIND)
    if blob is None or blob == BLOB:
        return None
    return "torn blob" if BLOB.startswith(blob) else "blob mismatch"


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _hammer_store_load(directory, key, text, rounds, out):
    """One racer: alternate full-artifact stores and loads on one key."""
    cache = CompileCache(directory)
    program = compile_program(SOURCE, CELL_LIKE)
    bad = 0
    for i in range(rounds):
        cache.store(key, program)
        # Fresh cache object per probe: defeat the in-memory text layer
        # so every load really reads the file another racer may be
        # replacing at this instant.
        reader = CompileCache(directory)
        loaded = reader.load(key)
        if loaded is None or reader.stats.evictions_bad:
            bad += 1
        elif program_to_json(loaded) != text:
            bad += 1
        cache.store_bytes(key, BLOB, AUX_KIND)
        if _probe_blob(directory, key) is not None:
            bad += 1
    out.put(bad)


class TestConcurrentWriters:
    def test_threads_hammering_one_key(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        key = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        program = compile_program(SOURCE, CELL_LIKE)
        text = program_to_json(program)
        failures: list[str] = []

        def worker():
            for _ in range(20):
                cache.store(key, program)
                reader = CompileCache(str(tmp_path))
                loaded = reader.load(key)
                if loaded is None or reader.stats.evictions_bad:
                    failures.append("torn or missing artifact")
                elif program_to_json(loaded) != text:
                    failures.append("content mismatch")
                cache.store_bytes(key, BLOB, AUX_KIND)
                problem = _probe_blob(str(tmp_path), key)
                if problem is not None:
                    failures.append(problem)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        # The published file is complete and loadable afterwards.
        final = CompileCache(str(tmp_path))
        assert program_to_json(final.load(key)) == text
        assert final.load_bytes(key, AUX_KIND) == BLOB
        assert final.stats.evictions_bad == 0

    def test_processes_hammering_one_key(self, tmp_path):
        ctx = _mp_context()
        key = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        program = compile_program(SOURCE, CELL_LIKE)
        text = program_to_json(program)
        out = ctx.Queue()
        procs = [
            ctx.Process(
                target=_hammer_store_load,
                args=(str(tmp_path), key, text, 10, out),
            )
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        bad = sum(out.get(timeout=120) for _ in procs)
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert bad == 0
        final = CompileCache(str(tmp_path))
        assert program_to_json(final.load(key)) == text
        assert final.load_bytes(key, AUX_KIND) == BLOB
        assert final.stats.evictions_bad == 0

    def test_clear_sweeps_tmp_droppings(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        key = compile_cache_key(SOURCE, CELL_LIKE, CompileOptions())
        cache.store(key, compile_program(SOURCE, CELL_LIKE))
        shard_dir = os.path.dirname(cache.path_for(key))
        # Simulate a writer killed between mkstemp and os.replace.
        dropping = os.path.join(shard_dir, "abandoned.tmp")
        with open(dropping, "w") as handle:
            handle.write("partial")
        cache.clear()
        assert not os.path.exists(dropping)
        assert cache.load(key) is None
