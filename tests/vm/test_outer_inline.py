"""The codegen engine's inline software-cache hit path.

Generated code serves a direct-mapped hit inline — a tag compare and a
read or write of the line storage — when no tracer is attached;
otherwise, and for every other organisation, an access goes through the
cache's methods.  Nothing observable may tell the paths apart, the
streak histograms the hits feed included: each program runs on both
engines for every cache
organisation, with metrics on and off and tracing on and off, and the
reports (cycles, counters, histograms) and traces must be equal.
"""

from __future__ import annotations

import re

import pytest

from repro.compiler.driver import compile_program
from repro.game.sources import (
    ai_kernel_source,
    game_demo_source,
    move_loop_source,
)
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.obs import MetricsHub, TraceRecorder, collect_report
from repro.runtime.cachekinds import SOFT_CACHE_KINDS
from repro.runtime.softcache import (
    NO_INLINE,
    DirectMappedCache,
    inline_hit_weight,
    make_cache,
)
from repro.vm.codegen import generate_module_source
from repro.vm.context import build_strategy
from repro.vm.interpreter import RunOptions, run_program

#: Two lines one cache span apart share a direct-mapped slot: alternating
#: loads and stores make hits follow misses over and over.
PING_PONG = """
int g_a[2048];
int g_b[4];
void main() {
    __offload [cache(direct)] {
        for (int i = 0; i < 16; i++) {
            g_a[0] = g_a[0] + i;
            g_a[1] = g_a[1] + 1;
            g_b[0] = g_b[0] + g_a[0];
            g_b[1] = g_b[1] + 2;
        }
    };
    print_int(g_a[0]);
    print_int(g_b[0]);
}
"""

#: An int two bytes before a line boundary: every access to it spans
#: two lines, next to an aligned one in the same lines.
SPANNING = """
char g_buf[1024];
void main() {
    for (int i = 0; i < 1024; i++) { g_buf[i] = (char)(i * 7); }
    int raw = (int)&g_buf[0];
    int total = 0;
    __offload [cache(direct)] {
        int base = raw + 256 - raw % 128;
        int* p = (int*)(base + 126);
        for (int k = 0; k < 3; k++) {
            total = total + *p;
            *p = *p + k;
            int* q = (int*)(base + 64);
            total = total + *q;
        }
    };
    print_int(total);
}
"""

PROGRAMS = {
    "ai-kernel": ai_kernel_source(16, 4, cache="direct"),
    "move-loop-accessor": move_loop_source(
        64, use_accessor=True, cache="direct"
    ),
    "game-demo": game_demo_source(8, 6, 4, frames=1),
    "ping-pong": PING_PONG,
    "spanning": SPANNING,
}


def _observe(program, engine: str, metrics: bool, trace: bool):
    machine = Machine(CELL_LIKE)
    hub = MetricsHub() if metrics else None
    if hub is not None:
        machine.attach_metrics(hub)
    recorder = TraceRecorder(capacity=1 << 18) if trace else None
    if recorder is not None:
        machine.attach_trace(recorder)
    result = run_program(program, machine, RunOptions(engine=engine))
    report = collect_report(result, workload="x", hub=hub).as_dict()
    return report, recorder.events() if recorder is not None else None


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("metrics", [False, True], ids=["bare", "metrics"])
@pytest.mark.parametrize("kind", SOFT_CACHE_KINDS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_codegen_reports_equal_the_reference(name, kind, metrics, trace):
    source = PROGRAMS[name].replace("cache(direct)", f"cache({kind})")
    program = compile_program(source, CELL_LIKE)
    reference = _observe(program, "reference", metrics, trace)
    assert _observe(program, "codegen", metrics, trace) == reference
    counters = reference[0]["counters"]
    assert counters["softcache.probes"] > 0
    if name == "ping-pong" and kind == "direct":
        assert counters["softcache.misses"] >= 32
    if name == "spanning":
        # Every spanning access probes both of its lines.
        accesses = counters["outer.loads"] + counters["outer.stores"]
        assert counters["softcache.probes"] > accesses


def test_metrics_see_every_streak_of_the_ping_pong():
    program = compile_program(PING_PONG, CELL_LIKE)
    report, _ = _observe(program, "codegen", metrics=True, trace=False)
    histograms = report["histograms"]
    assert any(key.startswith("softcache.hit_streak") for key in histograms)
    assert any(key.startswith("softcache.miss_streak") for key in histograms)


class TestGeneratedSites:
    def test_every_outer_site_carries_the_inline_test(self):
        program = compile_program(ai_kernel_source(), CELL_LIKE)
        text = generate_module_source(program, CELL_LIKE.cost)
        # A miss calls the helper the prologue bound for its strategy.
        sites = text.count("_ol(eng, _s, ") + text.count("_os(eng, _s, ")
        assert sites > 0
        tests = re.findall(r"if _(?:tg|dy)\[(\w+) >> _cs & _ck\] == \1\b", text)
        assert len(tests) == sites
        # The strategy is read once per function entry, never per access:
        # in each function's prologue, none after it.
        assert text.count("ctx.strategy") == text.count("_s = ctx.strategy")
        assert text.count("_s = ctx.strategy") < sites
        for function in text.split("\ndef ")[1:]:
            body = function.split("\n    try:\n", 1)[-1]
            assert "ctx.strategy" not in body, function.split("(")[0]


class TestFlatState:
    @pytest.fixture
    def core(self):
        return Machine(CELL_LIKE).accelerator(0)

    def test_the_strategy_is_the_cache(self, core):
        cache, stack_limit = build_strategy(core, "direct")
        assert type(cache) is DirectMappedCache
        assert stack_limit == cache.local_base

    def test_fills_and_invalidate_reach_lists_bound_earlier(self, core):
        cache = make_cache("direct", core, 0x10000, num_lines=8)
        tags, dirty, _, _, span_mask, _, lines = cache.inline_view
        assert tags is cache._tags and dirty is cache._dirty
        line, slot = 0x500 >> 7, (0x500 >> 7) & 7
        _, now = cache.load(0x500, 4, 0)  # a fill
        assert tags[slot] == line and dirty[slot] is None
        now = cache.store(0x500, b"wxyz", now)
        assert dirty[slot] == line
        offset = 0x500 & span_mask
        assert bytes(lines[offset:offset + 4]) == b"wxyz"
        cache.flush(now)
        assert dirty[slot] is None
        _, now = cache.load(0x500 + 8 * 128, 4, now)  # evicts the line
        assert tags[slot] == line + 8
        cache.invalidate()
        assert tags == [None] * 8 and cache._tags is tags
        assert dirty == [None] * 8 and cache._dirty is dirty

    def test_line_zero_is_written_back(self, core):
        cache = make_cache("direct", core, 0x10000, num_lines=8)
        cache.flush(cache.store(0x10, b"zero", 0))
        assert core.main_memory.read_unchecked(0x10, 4) == b"zero"

    def test_write_through_stores_never_hit_inline(self, core):
        cache = make_cache("direct", core, 0x10000, write_through=True)
        cache.store(0x500, b"wt", 0)
        # An inline store hit only marks its line dirty, so a
        # write-through cache serves nothing inline.
        assert cache.inline_view is NO_INLINE
        assert core.main_memory.read_unchecked(0x500, 2) == b"wt"

    def test_negative_line_never_matches_an_empty_slot(self, core):
        cache = make_cache("direct", core, 0x10000, num_lines=8)
        tags, _, shift, mask = cache.inline_view[:4]
        address = -4
        assert tags[address >> shift & mask] != address + 3 >> shift

    @pytest.mark.parametrize("options", [{"num_lines": 1}, {"line_size": 4}])
    def test_geometries_the_inline_test_cannot_serve_stay_on_the_methods(
        self, core, options
    ):
        cache = make_cache("direct", core, 0x10000, **options)
        assert cache.inline_view is NO_INLINE

    def test_inline_hits_fold_into_the_counters_on_read(self, core):
        cache = make_cache("direct", core, 0x10000)
        tally = cache.inline_view[5]
        tally.count += 3 * inline_hit_weight(4, False)
        tally.count += inline_hit_weight(8, True)
        assert core.perf.get("softcache.probes") == 4
        tally.count += inline_hit_weight(2, False)
        assert core.perf.as_dict() == {
            "outer.bytes_read": 14,
            "outer.bytes_written": 8,
            "outer.loads": 4,
            "outer.stores": 1,
            "softcache.hits": 5,
            "softcache.probes": 5,
        }
