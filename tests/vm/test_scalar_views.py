"""Scalar loads and stores through typed views.

Generated code reads and writes main and local memory through
``memoryview`` casts of the backing store (``MemorySpace.v_<fmt>``)
wherever :data:`repro.ir.ops.SCALARS` gives a format: directly where the
alignment fixpoint proves the address aligned, behind an ``_a & k`` test
elsewhere, and through the ``struct`` codec when that test fails.  Inner
loops also read loop-invariant address arithmetic from ``_h`` temps bound
before the loop.  None of it may be observable: every case runs on both
engines and compares output, cycles, counters and the trace — or the
error's type and text and the counters a trap leaves.
"""

from __future__ import annotations

import math
import re
import sys

import pytest

from repro.analysis.intervals import analyze_function
from repro.compiler.driver import compile_program
from repro.game.sources import figure2_source, word_struct_source
from repro.ir.instructions import (
    AccSpace,
    BinOp,
    CJump,
    Call,
    Const,
    FrameAddr,
    GlobalAddr,
    Intrinsic,
    Jump,
    Load,
    Move,
    Ret,
    Store,
)
from repro.ir.module import GlobalSlot, IRFunction, IRProgram
from repro.ir.ops import SCALARS
from repro.machine.config import CELL_LIKE, resolve_target, target_names
from repro.machine.machine import Machine
from repro.machine.memory import MemorySpace
from repro.obs import TraceRecorder
from repro.tools.check import _game_corpus
from repro.vm.codegen import (
    _FunctionEmitter,
    generate_module_source,
    low_zero_bits,
)
from repro.vm.interpreter import Interpreter, RunOptions, run_program

#: Values stored through every row: integer edges for the integer rows,
#: IEEE edges (NaN, infinities, signed zero, f32 and f64 subnormals, the
#: largest f32) for the float rows.
INTS = [0, 1, -1, 0x7F, 0x80, 0x1234, -0x8000, 0x12345678, -0x80000000,
        0x123456789ABCDEF, -(2 ** 63)]
FLOATS = [1.5, -0.0, math.inf, -math.inf, math.nan, 1e-45, 5e-324,
          3.4028234663852886e38]

#: Byte offsets from an 8-aligned base: aligned for every width, then not.
OFFSETS = (0, 1, 2, 3, 4, 6)
BASE = 0x2000


def _outcome(program: IRProgram, engine: str, config=CELL_LIKE):
    """Printed reprs and cycles, or the error's type and text — with the
    counters and trace events either leaves behind."""
    machine = Machine(config)
    recorder = TraceRecorder(capacity=1 << 16)
    machine.attach_trace(recorder)
    try:
        result = run_program(program, machine, RunOptions(engine=engine))
        outcome = (repr(result.printed), result.cycles, result.instructions)
    except Exception as error:  # both engines must fail alike
        outcome = (type(error).__name__, str(error))
    return outcome, machine.perf.as_dict(), recorder.events()


def _agree(program: IRProgram, config=CELL_LIKE):
    """Both engines observe the same run; returns what they observed."""
    codegen = _outcome(program, "codegen", config)
    assert codegen == _outcome(program, "reference", config)
    return codegen


def _program(*functions: IRFunction, config=CELL_LIKE) -> IRProgram:
    program = IRProgram(target_name=config.name)
    for function in functions:
        program.functions[function.name] = function
    program.validate()
    return program


def _round_trips(key: tuple, address_reg: int, first_reg: int) -> list:
    """Store then load every value of ``key``'s kind at the address in
    ``address_reg``, printing what comes back."""
    size, signed, is_float = key
    code: list = []
    reg = first_reg
    for value in FLOATS if is_float else INTS:
        code += [
            Const(dst=reg, value=value),
            Store(addr=address_reg, src=reg, size=size, is_float=is_float),
            Load(dst=reg + 1, addr=address_reg, size=size, signed=signed,
                 is_float=is_float),
            Intrinsic(name="print_float" if is_float else "print_int",
                      args=[reg + 1]),
        ]
        reg += 2
    return code


def _codec_program(key: tuple) -> IRProgram:
    """``main`` round-trips at constant addresses (alignment known from
    the constant); ``probe`` at the one its caller passes (unknown)."""
    main: list = []
    for offset in OFFSETS:
        main += [
            Const(dst=1, value=BASE + 16 * offset + offset),
            *_round_trips(key, 1, 2),
            Call(callee="probe", args=[1]),
        ]
    main.append(Ret(src=None))
    return _program(
        IRFunction(name="main", params=[], num_regs=64, code=main),
        IRFunction(name="probe", params=["a"], num_regs=64,
                   code=[*_round_trips(key, 0, 1), Ret(src=None)]),
    )


@pytest.mark.parametrize("key", sorted(SCALARS), ids=lambda k: "%d%s%s" % (
    k[0], "s" if k[1] else "u", "f" if k[2] else "i"))
def test_every_codec_row_round_trips_identically(key):
    program = _codec_program(key)
    outcome = _agree(program)
    assert outcome[0][0].startswith("[")
    text = generate_module_source(program, CELL_LIKE.cost)
    row = SCALARS[key]
    if sys.byteorder == "little":
        assert row.load_view is not None
        assert f"_mv{row.load_view}[" in text
        # The unknown address in ``probe`` tests alignment at each access.
        assert f"if _a & {key[0] - 1} else" in text or key[0] == 1


def _single_access(address: int, load: bool, key=(4, True, False), via_param=False):
    size, signed, is_float = key
    access = (
        Load(dst=3, addr=0, size=size, signed=signed, is_float=is_float)
        if load else Store(addr=0, src=2, size=size, is_float=is_float)
    )
    body = [Const(dst=2, value=1.25 if is_float else 7), access,
            Intrinsic(name="print_int", args=[2]), Ret(src=None)]
    if via_param:
        return _program(
            IRFunction(name="main", params=[], num_regs=4, code=[
                Const(dst=0, value=address), Call(callee="at", args=[0]),
                Ret(src=None),
            ]),
            IRFunction(name="at", params=["a"], num_regs=4, code=body),
        )
    return _program(IRFunction(
        name="main", params=[], num_regs=4,
        code=[Const(dst=0, value=address), *body],
    ))


@pytest.mark.parametrize("via_param", [False, True], ids=["const", "param"])
@pytest.mark.parametrize("load", [True, False], ids=["load", "store"])
@pytest.mark.parametrize("key", [(1, True, False), (4, True, False),
                                 (4, False, True), (8, True, True)],
                         ids=["i8", "i32", "f32", "f64"])
@pytest.mark.parametrize("where", ["negative", "unaligned-negative", "tail",
                                   "straddle", "past", "wrapped"])
def test_out_of_bounds_and_negative_addresses_trap_identically(
    where, key, load, via_param
):
    size = CELL_LIKE.main_memory_size
    address = {
        "negative": -8, "unaligned-negative": -3, "tail": size - key[0],
        "straddle": size - key[0] + 1, "past": size, "wrapped": 0xFFFFFFF8,
    }[where]
    outcome = _agree(_single_access(address, load, key, via_param))
    if where != "tail":
        assert outcome[0][0] == "MemoryFault", outcome[0]


def test_an_f32_store_out_of_range_raises_the_codec_error_on_both_engines():
    program = _program(IRFunction(name="main", params=[], num_regs=4, code=[
        Const(dst=0, value=0x100), Const(dst=1, value=3.5e38),
        Store(addr=0, src=1, size=4, is_float=True), Ret(src=None),
    ]))
    outcome = _agree(program)
    assert outcome[0] == ("OverflowError", "float too large to pack with f format")


@pytest.mark.parametrize("address", [0x100, 0x102], ids=["aligned", "unaligned"])
def test_a_signalling_nan_converts_alike_through_view_and_codec(address):
    """An f32 load widens a signalling NaN the same way from a view as
    through ``struct``; a host whose codec kept the payload would
    diverge here."""
    program = _program(IRFunction(name="main", params=[], num_regs=8, code=[
        Const(dst=0, value=address), Const(dst=1, value=0x7F800001),
        Store(addr=0, src=1, size=4),
        Load(dst=2, addr=0, size=4, is_float=True),
        Store(addr=0, src=2, size=4, is_float=True),
        Load(dst=3, addr=0, size=4, signed=False),
        Intrinsic(name="print_int", args=[3]), Ret(src=None),
    ]))
    _agree(program)


def test_host_local_access_traps_on_both_engines():
    """A local-store access on the host (no local store) binds no view
    and traps from the bounds arm."""
    program = _program(IRFunction(name="main", params=[], num_regs=4, code=[
        Const(dst=0, value=16),
        Load(dst=1, addr=0, size=4, space=AccSpace.LOCAL),
        Ret(src=None),
    ]))
    outcome = _agree(program)
    assert outcome[0] == ("RuntimeTrap", "local-store access on core host which has none")


#: Local-store traffic from source: a char buffer in an offload read and
#: written as ints and floats at every byte offset.
LOCAL_TRAFFIC = """
void main() {
    int total = 0;
    __offload {
        char buf[64];
        for (int i = 0; i < 64; i++) { buf[i] = (char)(i * 37); }
        for (int k = 0; k < 8; k++) {
            int* q = (int*)(&buf[k]);
            total = total + *q;
            *q = total;
            float* f = (float*)(&buf[k + 16]);
            *f = *f + 1.5;
            uint* u = (uint*)(&buf[4 * k + 32]);
            total = total + (int)(*u >> 3);
        }
        total = total + buf[3];
    };
    print_int(total);
}
"""


@pytest.mark.parametrize("target", ["cell", "manycore", "apu", "smp"])
def test_local_and_main_traffic_from_source(target):
    config = resolve_target(target)
    program = compile_program(LOCAL_TRAFFIC, config)
    outcome = _agree(program, config)
    assert outcome[0][0].startswith("[")
    if not config.shared_memory:
        text = generate_module_source(program, config.cost)
        assert "_lvi[_a >> 2]" in text and "_ls.v_i" in text


def test_word_addressed_target():
    config = resolve_target("dsp")
    program = compile_program(word_struct_source(), config)
    _agree(program, config)
    text = generate_module_source(program, config.cost)
    assert re.search(r"_[ml]v\w\[_a >> 2\]", text)


def test_a_memory_not_a_multiple_of_eight_casts_its_whole_prefix():
    memory = MemorySpace("m", 20)
    assert len(memory.v_d) == 2 and len(memory.v_I) == 5 and len(memory.v_B) == 20
    assert memory.v_d is memory.v_d  # cast once, then an attribute
    with pytest.raises(AttributeError):
        memory.not_a_view  # noqa: B018
    # A machine whose main memory ends 4 bytes past an 8-byte boundary:
    # the last whole double, the misaligned one after it, one straddling
    # the end.
    config = CELL_LIKE.with_(main_memory_size=CELL_LIKE.main_memory_size - 4)
    size = config.main_memory_size
    for address in (size - 12, size - 8, size - 4):
        program = _single_access(address, True, (8, True, True))
        _agree(program, config)
        program = _single_access(address, False, (8, True, True), via_param=True)
        _agree(program, config)


# ------------------------------------------------------------- alignment


#: A 32-bit 0's low zero bits.
_ZERO_BITS = 32


def _bits(code: list, params=(), frame_size=0, globals_=None):
    """Each register's proven low zero bits at the end of ``code``, as
    codegen reads them off the interval analysis."""
    function = IRFunction(name="f", params=list(params), num_regs=16,
                          code=code + [Ret(src=None)], frame_size=frame_size)
    program = IRProgram(target_name=CELL_LIKE.name)
    for name, address in (globals_ or {}).items():
        program.globals[name] = GlobalSlot(name=name, address=address, size=4)
    values = analyze_function(function).values_before(len(code))
    return {
        reg: low_zero_bits(values.get(reg), program, frame_size)
        for reg in range(16)
    }


class TestAlignmentRules:
    def test_const(self):
        assert _bits([Const(dst=1, value=24)])[1] == 3
        assert _bits([Const(dst=1, value=0)])[1] == _ZERO_BITS
        assert _bits([Const(dst=1, value=-16)])[1] == 4
        assert _bits([Const(dst=1, value=2.0)])[1] == 0

    def test_global_addr(self):
        known = _bits([GlobalAddr(dst=1, name="g"), GlobalAddr(dst=2, name="h")],
                      globals_={"g": 0x1040})
        assert known[1] == 6 and known[2] == 0  # an unknown global: nothing

    def test_frame_addr_only_in_a_function_with_its_own_frame(self):
        code = [FrameAddr(dst=1, offset=8), FrameAddr(dst=2, offset=32)]
        assert _bits(code, frame_size=64)[1] == 3
        assert _bits(code, frame_size=64)[2] == 4
        assert _bits(code)[1] == 0

    def test_add_and_sub_take_the_minimum(self):
        for op in "+-":
            known = _bits([Const(dst=1, value=16), Const(dst=2, value=12),
                           BinOp(op=op, dst=3, a=1, b=2)])
            assert known[3] == 2

    def test_mul_adds(self):
        known = _bits([Const(dst=2, value=24), BinOp(op="*", dst=3, a=0, b=2),
                       BinOp(op="*", dst=4, a=2, b=2)], params=["x"])
        assert known[3] == 3 and known[4] == 6

    def test_and_takes_the_maximum(self):
        known = _bits([Const(dst=2, value=-8), BinOp(op="&", dst=3, a=0, b=2)],
                      params=["x"])
        assert known[3] == 3

    def test_shift_by_a_constant_adds_it(self):
        code = [Const(dst=1, value=4), Const(dst=2, value=2),
                BinOp(op="<<", dst=3, a=1, b=2), BinOp(op="<<", dst=4, a=1, b=0)]
        known = _bits(code, params=["n"])
        assert known[3] == 4 and known[4] == 0  # by a parameter: nothing

    def test_a_shift_count_read_before_its_definition_is_no_constant(self):
        code = [Const(dst=1, value=4), BinOp(op="<<", dst=3, a=1, b=2),
                Const(dst=2, value=2)]
        assert _bits(code)[3] == 0  # may shift by anything first
        code.insert(0, Const(dst=2, value=2))
        assert _bits(code)[3] == 4

    def test_move_copies(self):
        assert _bits([Const(dst=1, value=64), Move(dst=2, src=1)])[2] == 6

    def test_params_loads_and_calls_know_nothing(self):
        known = _bits([Load(dst=2, addr=0), Call(dst=3, callee="g", args=[]),
                       Move(dst=4, src=0)], params=["p"])
        assert known[0] == known[2] == known[3] == known[4] == 0

    def test_every_definition_lowers_the_register(self):
        known = _bits([Const(dst=1, value=64), Const(dst=1, value=4),
                       Const(dst=2, value=1), BinOp(op="+", dst=3, a=3, b=1)])
        # The last definition holds at the end; a register read before
        # any definition holds nothing known.
        assert known[1] == 2 and known[3] == 0


def _claims(program: IRProgram, cost) -> dict:
    """The scalar accesses the emitter indexes a typed view at without
    an alignment test, per function (as instruction identities)."""
    claims = {}
    for function in program.functions.values():
        emitter = _FunctionEmitter(function, program, cost)
        emitter.emit()
        claims[function.name] = {id(function.code[i]) for i in emitter.aligned}
    return claims


class _Recording(Interpreter):
    """The reference engine, noting each scalar access's IR instruction
    and address (read off the decode loop's frame)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen: list = []

    def _note(self, address: int) -> None:
        frame = sys._getframe(2)
        if frame.f_code.co_name == "_exec_function":
            instr = frame.f_locals["instr"]
            if isinstance(instr, (Load, Store)):
                self.seen.append((frame.f_locals["function"].name, instr, address))

    def _read_mem(self, space, address, size, ctx):
        self._note(address)
        return super()._read_mem(space, address, size, ctx)

    def _write_mem(self, space, address, data, ctx):
        self._note(address)
        return super()._write_mem(space, address, data, ctx)


def _check_claims(program: IRProgram, config) -> int:
    claims = _claims(program, config.cost)
    engine = _Recording(program, Machine(config), RunOptions(engine="reference"))
    try:
        engine.run()
    except Exception:  # a trapping program still checks what it reached
        pass
    for name, instr, address in engine.seen:
        if id(instr) in claims[name]:
            assert address % instr.size == 0, (name, instr, hex(address))
    return len(engine.seen)


@pytest.mark.parametrize("target", target_names())
def test_claimed_alignment_holds_on_the_corpus(target):
    """Every alignment the fixpoint claims holds for the address of each
    scalar access a reference run of each corpus program makes."""
    config = resolve_target(target)
    checked = sum(
        _check_claims(compile_program(source, config), config)
        for name, source in _game_corpus()
        if name != "game:components-abstract"  # long; specialized covers it
    )
    assert checked > 1000


# ---------------------------------------------------------------- hoisting


def _loop(redefine: bool) -> IRProgram:
    """A loop printing the word at ``BASE + r1 * 8``, with ``r1`` set
    before the loop (to a loaded word's low three bits: a range, not a
    constant codegen would fold) and (``redefine``) bumped inside it."""
    code = [
        Const(dst=11, value=BASE), Load(dst=12, addr=11, size=4, signed=False),
        Const(dst=13, value=7), BinOp(op="&", dst=1, a=12, b=13),
        Const(dst=2, value=0), Const(dst=3, value=5),
        Const(dst=9, value=1),
        BinOp(op="<", dst=5, a=2, b=3),                      # head
        CJump(cond=5, then_label="body", else_label="end"),
        Const(dst=4, value=8),                               # body
        Const(dst=10, value=BASE),
        BinOp(op="*", dst=6, a=1, b=4, signed=False),
        BinOp(op="+", dst=7, a=10, b=6, signed=False),
        Load(dst=8, addr=7, size=4, signed=False),
        Intrinsic(name="print_int", args=[8]),
        *([BinOp(op="+", dst=1, a=1, b=9)] if redefine else []),
        BinOp(op="+", dst=2, a=2, b=9),
        Jump(label="head"),
        Ret(src=None),                                       # end
    ]
    head = 7
    body = head + 2
    end = len(code) - 1
    return _program(IRFunction(
        name="main", params=[], num_regs=16, code=code,
        labels={"head": head, "body": body, "end": end},
    ))


@pytest.mark.parametrize("redefine", [False, True], ids=["invariant", "redefined"])
def test_hoisting_respects_definitions_inside_the_loop(redefine):
    program = _loop(redefine)
    _agree(program)
    text = generate_module_source(program, CELL_LIKE.cost)
    hoisted = re.findall(r"^\s+(_h\d+) = (.*)$", text, re.M)
    inner = text.split("while True:", 1)[1]
    if redefine:
        assert not hoisted
        assert "(r1 * 8)" in inner
    else:
        assert [text for _, text in hoisted] == [f"({BASE} + (r1 * 8))"]
        assert "(r1 * 8)" not in inner and "_a = _h0" in inner


def test_figure2_inner_loop_reads_hoisted_addresses_and_views():
    config = resolve_target("apu")
    program = compile_program(figure2_source(), config)
    text = generate_module_source(program, config.cost)
    strategy = text.split("\ndef ")[1]
    assert "calculateStrategy" in strategy.split("(")[0]
    inner = strategy.split("            while True:\n", 1)[1]
    assert "_h0 = " in strategy and "_a = _h0" in inner
    # The pair scan itself: no struct unpack, typed views only, and
    # every address hoisted out of it is read in it.
    inner = inner.split("\n            _ic += ", 1)[0]
    assert "unpack_from" not in inner and "_upf_" not in inner, inner
    assert "_mvf[" in inner, inner
    hoisted = [
        line.split(" = ")[0].strip() for line in strategy.splitlines()
        if line.lstrip().startswith("_h")
    ]
    assert hoisted and all(name in inner for name in hoisted), hoisted
