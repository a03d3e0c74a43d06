"""Range-proven arithmetic in generated code, checked against runs.

Codegen emits an integer op's unwrapped term (:attr:`repro.ir.ops.Op.raw`)
where the interval analysis proves its result lies in the wrap's domain.
Checks keep that honest:

* an oracle over the game corpus x every target: a reference-engine run
  whose operator table records, at every site codegen emitted unwrapped,
  the raw result of each execution — each must lie in the range proven
  and the wrap's domain and equal what the wrapped template computes
  (or, at a site emitted as one literal, be that value);
* Figure 2's pair scan on ``apu`` keeps no wrap at all;
* a counter that really overflows keeps its wrap, and both engines agree
  on the wrapped values it goes through.
"""

from __future__ import annotations

import pytest

from repro.compiler.driver import compile_program
from repro.game.sources import figure2_source
from repro.ir import ops
from repro.ir.instructions import BinOp, UnOp
from repro.machine.config import resolve_target, target_names
from repro.machine.machine import Machine
from repro.tools.check import _game_corpus
from repro.vm import interpreter
from repro.vm.codegen import (
    CodegenStats,
    _FunctionEmitter,
    generate_module_source,
)
from repro.vm.interpreter import ENGINE_NAMES, RunOptions, run_program


class _Site(str):
    """An operator spelling that also names the site it sits at and the
    range proven there; the operator tables find it as the plain
    spelling."""

    site: tuple
    proof: tuple


class _Recording(dict):
    """An operator table whose entries, looked up through a
    :class:`_Site` spelling, check each raw result as they compute."""

    def __init__(self, table: dict, seen: dict):
        super().__init__(table)
        self.seen = seen

    def __getitem__(self, key):
        op = dict.__getitem__(self, key)
        site = getattr(key[0], "site", None)
        if site is None:
            return op
        raw = compile(op.raw.format(a="a", b="b"), "<raw>", "eval")
        seen, (lo, hi), (low, high) = self.seen, op.domain, key[0].proof

        def fn(*operands):
            result = op.fn(*operands)
            if low == high:  # emitted as this one value
                assert result == low, (site, operands, result)
            else:
                a, b = (int(x) for x in (operands * 2)[:2])
                value = eval(raw, {"a": a, "b": b})
                assert lo <= value <= hi and value == result, (site, operands, value)
                assert low <= value <= high, (site, operands, value)
            seen[site] = seen.get(site, 0) + 1
            return result

        return op._replace(fn=fn)


def _proven_sites(program, config) -> dict:
    """(function, index) -> (instruction, range proven) of every BinOp /
    UnOp codegen emits unwrapped."""
    sites = {}
    for function in program.functions.values():
        emitter = _FunctionEmitter(function, program, config.cost)
        emitter.emit()
        for index, proof in emitter.proven.items():
            instr = function.code[index]
            if isinstance(instr, (BinOp, UnOp)):
                sites[function.name, index] = instr, proof
    return sites


@pytest.fixture(scope="module")
def corpus_runs():
    """Per (program, target): the proven sites and the executions the
    recording reference run saw at each."""
    runs = {}
    for name, source in _game_corpus():
        for target in target_names():
            config = resolve_target(target)
            program = compile_program(source, config)
            sites = _proven_sites(program, config)
            for (function, index), (instr, proof) in sites.items():
                spelled = _Site(instr.op)
                spelled.site, spelled.proof = (function, index), proof
                instr.op = spelled
            seen: dict = {}
            patch = pytest.MonkeyPatch()
            patch.setattr(interpreter, "BINOPS", _Recording(ops.BINOPS, seen))
            patch.setattr(interpreter, "UNOPS", _Recording(ops.UNOPS, seen))
            try:
                run_program(program, Machine(config), RunOptions(engine="reference"))
            finally:
                patch.undo()
            runs[name, target] = sites, seen
    return runs


def test_every_unwrapped_site_stays_in_its_wraps_domain(corpus_runs):
    proven = sum(len(sites) for sites, _ in corpus_runs.values())
    reached = sum(len(seen) for _, seen in corpus_runs.values())
    executions = sum(sum(seen.values()) for _, seen in corpus_runs.values())
    print(
        f"{proven} unwrapped sites over {len(corpus_runs)} program/target"
        f" pairs; {reached} reached, {executions} executions checked"
    )
    assert proven > 1000 and reached > proven // 2 and executions > 100_000


@pytest.mark.parametrize("target", ["apu", "cell"])
def test_figure2s_unwrapped_sites_are_reached(corpus_runs, target):
    """Every unwrapped site of the ``calculateStrategy`` that runs (the
    host function, or on ``cell`` its offloaded duplicate) executes."""
    sites, seen = corpus_runs["game:figure2", target]
    ran = {function for function, _ in seen}
    strategy = {
        key for key in sites
        if key[0].startswith("GameWorld::calculateStrategy") and key[0] in ran
    }
    assert strategy and strategy <= set(seen)


def test_figure2s_inner_loop_keeps_no_wrap():
    """On ``apu`` the analysis bounds ``calculateStrategy``'s inner
    counter and the addresses it indexes, so the pair scan (the loop
    nested in the outer one) keeps no 32-bit wrap."""
    config = resolve_target("apu")
    program = compile_program(figure2_source(), config)
    stats = CodegenStats()
    text = generate_module_source(program, config.cost, stats)
    assert stats.proven_wraps > 0
    (unit,) = [
        body for body in text.split("\ndef ")[1:]
        if body.startswith("_fh_GameWorld__calculateStrategy_")
    ]
    lines = unit.splitlines()
    heads = [i for i, line in enumerate(lines) if line.strip() == "while True:"]
    head = heads[1]
    depth = len(lines[head]) - len(lines[head].lstrip())
    inner = []
    for line in lines[head + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= depth:
            break
        inner.append(line)
    assert inner and "0xFFFFFFFF" not in "\n".join(inner), "\n".join(inner)


# ------------------------------------------------------------ overflow

_OVERFLOW = """
void main() {
    int x = 2147483600;
    int steps = 0;
    for (int i = 2147483640; i > 0; i = i + 1) {
        x = x + 7;
        steps = steps + 1;
    }
    print_int(x);
    print_int(steps);
    uint u = 4294967290;
    for (int k = 0; k < 12; k = k + 1) {
        u = u + 1;
    }
    print_int(u);
}
"""


@pytest.mark.parametrize("target", ["apu", "cell"])
def test_a_counter_that_overflows_keeps_its_wrap(target):
    config = resolve_target(target)
    program = compile_program(_OVERFLOW, config)
    printed = {
        engine: run_program(program, Machine(config), RunOptions(engine=engine)).printed
        for engine in ENGINE_NAMES
    }
    assert printed["codegen"] == printed["reference"] == [
        2147483600 + 7 * 8 - 2**32, 8, 6,
    ]
    text = generate_module_source(program, config.cost)
    assert text.count("0x80000000") >= 2  # i + 1 and x + 7, at least
    assert "0xFFFFFFFF" in text  # u + 1


# ----------------------------------------------------- guarded division

_GUARDED_DIVISION = """
int f(int p, int d) {
    int x = p & 255;
    int e = 0;
    if (d > 0) { e = 3; }
    int s = 0;
    for (int i = 0; i < 10; i = i + 1) {
        if (e == 3) { s = s + 100 / e + x / e + x % e; }
    }
    return s;
}
void main() { print_int(f(200, 0)); print_int(f(200, 3)); }
"""


@pytest.mark.parametrize("target", ["apu", "cell"])
def test_a_division_proven_under_a_branch_cannot_trap_before_it(target):
    """``100 / e`` and ``x / e`` are proven only inside ``if (e == 3)``;
    loop-invariant terms are hoisted ahead of the loop, so they must be
    the value the proof pins (33) or divide by the literal it read, not
    by ``e``, which is 0 on the first call."""
    config = resolve_target(target)
    program = compile_program(_GUARDED_DIVISION, config)
    printed = {
        engine: run_program(program, Machine(config), RunOptions(engine=engine)).printed
        for engine in ENGINE_NAMES
    }
    assert printed["codegen"] == printed["reference"] == [0, 10 * (33 + 66 + 2)]
    text = generate_module_source(program, config.cost)
    assert " // 3)" in text and " % 3)" in text
