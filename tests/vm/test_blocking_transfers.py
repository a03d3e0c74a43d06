"""Blocking transfers as one step: :meth:`DmaEngine.transfer_and_wait`.

A raw outer access, a software-cache fill or write-back and an accessor
bulk transfer are each a transfer and its wait.  The fused step must be
exactly ``get``/``put`` followed by ``wait`` on its tag — the
composition every caller made before the step existed — both when
nothing else is in flight (the fast path, which builds no request) and
when a user transfer is (the fallback, which makes the two calls,
checking races and completing the other transfers on the same tag).
"""

from __future__ import annotations

import pytest

from repro.compiler.driver import compile_program
from repro.errors import RuntimeTrap
from repro.game.sources import figure2_source, move_loop_source
from repro.machine.config import resolve_target
from repro.machine.dma import GET, PUT, DmaEngine
from repro.machine.machine import Machine
from repro.obs import MetricsHub, TraceRecorder
from repro.runtime.softcache import SoftwareCache
from repro.vm.codegen import generate_module_source
from repro.vm.context import RAW_TAG, RawDmaStrategy
from repro.vm.interpreter import ACCESSOR_TAG, ENGINE_NAMES, RunOptions, run_program

TARGETS = ("cell", "manycore")


def issue_then_wait(self, kind, tag, local_addr, outer_addr, size, now):
    """The unfused composition the fused step must equal."""
    issue = self.get if kind == GET else self.put
    return self.wait(tag, issue(tag, local_addr, outer_addr, size, now))


def observe(program, target, engine, racecheck, traced):
    """Everything a run shows: output, clocks, counters, histograms,
    races, the trap and the trace."""
    machine = Machine(resolve_target(target))
    hub = MetricsHub()
    machine.attach_metrics(hub)
    recorder = TraceRecorder(capacity=1 << 16) if traced else None
    if recorder is not None:
        machine.attach_trace(recorder)
    seen: dict = {}
    try:
        result = run_program(
            program, machine, RunOptions(engine=engine, racecheck=racecheck)
        )
        seen["run"] = (result.output, result.cycles, result.instructions,
                       [race.describe() for race in result.races])
    except Exception as error:  # traps and DmaRaceError alike
        seen["trap"] = f"{type(error).__name__}: {error}"
    seen["counters"] = machine.perf.as_dict()
    seen["histograms"] = hub.histograms_dict()
    if recorder is not None:
        seen["trace"] = recorder.events()
    return seen


class TestFusedStep:
    @pytest.fixture(params=TARGETS)
    def engines(self, request):
        """Two idle DMA engines, each on its own machine with a hub and a
        recorder attached."""
        pair = []
        for _ in range(2):
            machine = Machine(resolve_target(request.param))
            machine.attach_metrics(MetricsHub())
            machine.attach_trace(TraceRecorder())
            machine.main_memory.write(0x1000, bytes(range(64)))
            pair.append(machine)
        return pair

    @pytest.mark.parametrize("kind", [GET, PUT])
    def test_idle_engine_matches_issue_then_wait(self, engines, kind):
        results = []
        for machine, step in zip(engines, (DmaEngine.transfer_and_wait,
                                           issue_then_wait)):
            dma = machine.accelerator(0).dma
            dma.local_store.write(0x200, b"local bytes!")
            now = 5
            for size in (4, 12, 64):
                now = step(dma, kind, RAW_TAG, 0x200, 0x1000, size, now)
            results.append((
                now, dma._next_serial, dma._in_flight,
                machine.perf.as_dict(), machine.metrics.histograms_dict(),
                machine.trace.events(), dma.local_store.read(0x200, 64),
                machine.main_memory.read(0x1000, 64),
            ))
        assert results[0] == results[1]
        assert results[0][2] == []

    def test_with_a_transfer_in_flight_it_waits_for_the_whole_tag(self, engines):
        dma = engines[0].accelerator(0).dma
        now = dma.get(RAW_TAG, 0x400, 0x1000, 4096, 0)
        done = dma.transfer_and_wait(PUT, RAW_TAG, 0x200, 0x3000, 4, now)
        assert done >= dma.cost.dma_latency + 4096 // dma.cost.dma_bytes_per_cycle
        assert dma._in_flight == []


def fallback_source(kind: str, tag: int, overlap: bool) -> str:
    """A user ``dma_get`` on ``tag`` still in flight while the offload
    makes a raw store, a cache fill or an accessor bulk transfer; with
    ``overlap`` the get reads outer bytes the strategy writes."""
    annotation = " [cache(direct)]" if kind == "fill" else ""
    body = {
        "raw": "g_out[1] = 5; g_out[3] = 7; r = 2;",
        "fill": "r = g_out[1]; g_out[2] = r + 3; r = r + g_out[9];",
        "bulk": "Array<int, 8> staged(g_out); r = staged[1];",
    }[kind]
    source = "g_out[0]" if overlap else "g_data[4]"
    return f"""
int g_out[16];
int g_data[16];
void main() {{
    int r = 0;
    g_out[1] = 11;
    __offload{annotation} {{
        int a[8];
        dma_get(&a[0], &{source}, 32, {tag});
        {body}
        dma_wait({tag});
        r = r + a[2];
    }};
    print_int(r);
    print_int(g_out[1]);
}}
"""


OWN_TAG = {"raw": RAW_TAG, "fill": SoftwareCache.CACHE_TAG, "bulk": ACCESSOR_TAG}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("racecheck", ["raise", "record", None])
@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("overlap", [False, True], ids=["apart", "overlapping"])
@pytest.mark.parametrize("own_tag", [False, True], ids=["other-tag", "own-tag"])
@pytest.mark.parametrize("kind", sorted(OWN_TAG))
def test_fallback_matches_issue_then_wait(
    monkeypatch, kind, own_tag, overlap, target, engine, racecheck, traced
):
    tag = OWN_TAG[kind] if own_tag else 3
    program = compile_program(
        fallback_source(kind, tag, overlap), resolve_target(target)
    )
    fused = observe(program, target, engine, racecheck, traced)
    with monkeypatch.context() as patch:
        patch.setattr(DmaEngine, "transfer_and_wait", issue_then_wait)
        assert observe(program, target, engine, racecheck, traced) == fused
    if overlap and kind == "raw" and racecheck is not None:
        # The raw store's put overlaps the get in outer memory.
        assert "DMA race in outer memory" in str(fused)


PROGRAMS = {
    "figure2": figure2_source(entity_count=12, pair_count=6, frames=1),
    "move-loop": move_loop_source(48, use_accessor=True, cache="direct"),
    "move-loop-raw": move_loop_source(24),
}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_idle_fast_path_matches_issue_then_wait(monkeypatch, name, target, traced):
    program = compile_program(PROGRAMS[name], resolve_target(target))
    fused = observe(program, target, "codegen", "raise", traced)
    with monkeypatch.context() as patch:
        patch.setattr(DmaEngine, "transfer_and_wait", issue_then_wait)
        assert observe(program, target, "codegen", "raise", traced) == fused
    assert fused["counters"]["dma.waits"] > 0


RACE_GUARD = """
int g_data[8];
void main() {
    int r = 0;
    __offload {
        int a[8];
        dma_wait(1);
        dma_get(&a[0], &g_data[0], 32, 1);
        r = a[2];   // BUG: read before the wait
        dma_wait(1);
    };
    print_int(r);
}
"""


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_read_before_wait_traps_after_an_empty_wait(engine):
    """A wait with nothing in flight rebinds the core's in-flight list;
    the local-load guard generated code binds is bound again after it,
    so the next get is still seen."""
    program = compile_program(RACE_GUARD, resolve_target("cell"))
    with pytest.raises(RuntimeTrap, match="overlaps in-flight dma_get"):
        run_program(
            program, Machine(resolve_target("cell")), RunOptions(engine=engine)
        )


def test_figure2s_raw_sites_take_the_short_paths(monkeypatch):
    """Figure 2 on cell: no outer site calls ``eng._load_outer`` /
    ``eng._store_outer`` (a miss calls the helper its prologue bound),
    the raw strategy's byte-level methods never run, and every DMA wait
    is one fused step."""
    cell = resolve_target("cell")
    program = compile_program(figure2_source(), cell)
    text = generate_module_source(program, cell.cost)
    assert "eng._store_outer(" not in text and "eng._load_outer(" not in text
    assert "_os(eng, _s, " in text, "no raw store site"
    calls = {"fused": 0, "bytes": 0}
    fused = DmaEngine.transfer_and_wait

    def counted(self, *args):
        calls["fused"] += 1
        return fused(self, *args)

    def refused(self, *args):
        calls["bytes"] += 1
        raise AssertionError("a raw access took the byte-level path")

    monkeypatch.setattr(DmaEngine, "transfer_and_wait", counted)
    monkeypatch.setattr(RawDmaStrategy, "load", refused)
    monkeypatch.setattr(RawDmaStrategy, "store", refused)
    perf = run_program(
        program, Machine(cell), RunOptions(engine="codegen")
    ).perf()
    assert perf["outer.raw_stores"] > 0 and calls["bytes"] == 0, calls
    assert calls["fused"] == perf["dma.waits"], (calls, perf["dma.waits"])
