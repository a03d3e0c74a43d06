"""Virtual-call hits served inline by generated code.

A domain-call site in generated code first probes its run's hit table
(``Interpreter._hit_table``): a repeat of a lookup that hit calls the
generated callee directly, charging and counting the probes the lookup
made.  Misses, ``demand`` duplicates, traced runs and a first call after
``DomainTable.add()`` go through ``_domain_call_values`` as before;
nothing observable may tell the paths apart.
"""

from __future__ import annotations

import re

import pytest

from repro.compiler.driver import CompileOptions, compile_program
from repro.errors import MissingDuplicateError
from repro.game.sources import move_loop_source
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.obs import MetricsHub, TraceRecorder, collect_report
from repro.obs.trace import EV_DISPATCH_HIT
from repro.runtime.dispatch import InnerEntry
from repro.vm.codegen import CodegenInterpreter, generate_module_source
from repro.vm.interpreter import Interpreter, RunOptions, make_interpreter

SOURCE = """
class A { int v; virtual int f() { return v + 1; } };
class B : A { virtual int f() { return v + 2; } };
class C : A { virtual int f() { return v + 3; } };
A g_a[2]; B g_b[2]; C g_c[2];
A* g_objs[8];
void main() {
    g_objs[0] = &g_a[0]; g_objs[1] = &g_b[0]; g_objs[2] = &g_a[1];
    g_objs[3] = &g_b[1]; g_objs[4] = &g_a[0]; g_objs[5] = &g_b[0];
    g_objs[6] = &g_c[0]; g_objs[7] = &g_c[1];
    int s = 0;
    __offload [domain(A::f, B::f){CACHE}] {
        for (int i = 0; i < {COUNT}; i++) { A* o = g_objs[i]; s = s + o->f(); }
    };
    print_int(s);
}
"""


def program(count=6, cache=", cache(direct)", demand=False):
    source = SOURCE.replace("{CACHE}", cache).replace("{COUNT}", str(count))
    return compile_program(source, CELL_LIKE, CompileOptions(demand_load=demand))


def run(program, engine, traced=False, lookups=None):
    """Run ``program``; count ``_domain_call_values`` calls into
    ``lookups`` when given."""
    machine = Machine(CELL_LIKE)
    hub = MetricsHub()
    machine.attach_metrics(hub)
    recorder = TraceRecorder() if traced else None
    if recorder is not None:
        machine.attach_trace(recorder)
    interp = make_interpreter(program, machine, RunOptions(engine=engine))
    if lookups is not None:
        original = interp._domain_call_values

        def counted(*args):
            lookups.append(args[2])
            return original(*args)

        interp._domain_call_values = counted
    try:
        result = interp.run()
        seen = collect_report(result, workload="x", hub=hub).as_dict()
    except MissingDuplicateError as error:
        seen = {"trap": str(error), "counters": machine.perf.as_dict()}
    if recorder is not None:
        seen["trace"] = recorder.events()
    return seen, interp


@pytest.mark.parametrize("cache", [", cache(direct)", ""], ids=["cached", "raw"])
def test_repeat_calls_are_served_inline(cache):
    prog = program(cache=cache)
    lookups: list = []
    seen, interp = run(prog, "codegen", lookups=lookups)
    # Six calls to two targets: the first of each looks up, the rest hit.
    assert len(lookups) == 2 and len(set(lookups)) == 2
    assert seen["counters"]["dispatch.vcalls"] == 6
    assert seen == run(prog, "reference")[0]
    (table,) = interp._vcall_hits.values()
    assert sorted(table) == sorted(set(lookups))


def test_a_memo_miss_goes_through_the_lookup_and_traps_alike():
    prog = program(count=8)
    lookups: list = []
    seen, interp = run(prog, "codegen", lookups=lookups)
    assert "C::f" in seen["trap"]
    # A and B looked up once each; C's call misses and is never tabled.
    assert len(lookups) == 3
    assert lookups[-1] not in next(iter(interp._vcall_hits.values()))
    assert seen == run(prog, "reference")[0]


def test_demand_duplicates_are_never_served_inline():
    prog = program(count=8, demand=True)
    lookups: list = []
    seen, interp = run(prog, "codegen", lookups=lookups)
    assert seen["counters"]["demand.code_loads"] == 1
    # C::f is a demand entry: both of its calls go through the lookup.
    demand_fid = lookups[-1]
    assert lookups.count(demand_fid) == 2 and len(lookups) == 4
    assert demand_fid not in next(iter(interp._vcall_hits.values()))
    assert seen == run(prog, "reference")[0]


def test_a_traced_run_looks_up_every_call():
    prog = program()
    lookups: list = []
    seen, _ = run(prog, "codegen", traced=True, lookups=lookups)
    assert len(lookups) == 6
    hits = [event for event in seen["trace"] if event[3] == EV_DISPATCH_HIT]
    assert len(hits) == 6
    assert seen == run(prog, "reference", traced=True)[0]
    untraced, _ = run(prog, "codegen")
    assert untraced["counters"] == seen["counters"]


def test_a_domain_table_add_between_runs_is_seen_by_the_next_run():
    prog = program(count=8)
    first, _ = run(prog, "codegen")
    assert "C::f" in first["trap"]
    # Register C::f with A::f's compiled duplicate: the next run's first
    # call to it looks the new entry up, and later calls hit it inline.
    domain = prog.offload_meta[0].domain
    fids = {name: fid for fid, name in prog.function_ids.items()}
    entry = domain.inner[domain.outer.index(fids["A::f"])][0]
    domain.add(fids["C::f"], "C::f", [InnerEntry(entry.duplicate_id, entry.target)])
    lookups: list = []
    second, _ = run(prog, "codegen", lookups=lookups)
    assert second["counters"]["dispatch.domain_hits"] == 8
    assert lookups.count(fids["C::f"]) == 1
    assert second == run(prog, "reference")[0]


def test_only_generated_code_fills_hit_tables():
    seen, interp = run(program(), "reference")
    assert type(interp) is Interpreter and interp._vcall_hits == {}
    assert type(run(program(), "codegen")[1]) is CodegenInterpreter


def test_every_lookup_site_is_the_miss_arm_of_a_hit_probe():
    """The accessor move loop on cell: each ``_domain_call_values`` call
    in generated code sits behind an inline hit-table probe."""
    source = move_loop_source(512, use_accessor=True, cache="direct")
    lines = generate_module_source(
        compile_program(source, CELL_LIKE), CELL_LIKE.cost
    ).splitlines()
    sites = [i for i, line in enumerate(lines) if "eng._domain_call_values(" in line]
    assert sites
    for i in sites:
        assert re.fullmatch(r"\s*_e = _vh\d+\.get\(\w+\)", lines[i - 3]), lines[i - 3]
        assert lines[i - 2].strip() == "if _e is None:", lines[i - 2]
