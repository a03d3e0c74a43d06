"""Source-codegen execution engine.

The reference interpreter (:mod:`repro.vm.interpreter`) re-decodes
every instruction on every execution: one ``isinstance`` ladder per
dispatch, attribute loads on the instruction object, a list indexing
per register access and a per-instruction budget check.  That
host-side overhead — not the simulated machine — dominates wall-clock
time.  This engine pays the decode once per program: each IR function
is translated into real generated Python source — one ``def`` per IR
function, virtual registers lowered to Python *locals*, fused basic
blocks becoming straight-line statements, and cycle / perf-counter /
budget updates batched per block — then compiled with :func:`compile`
/ ``exec`` and dispatched as an ordinary Python call::

    def _f0_main(eng, ctx):
        _ic = eng._instructions         # hoisted counters
        _now = ctx.now + 4
        ...
            while True:                 # a natural loop of the IR
                _ic += 12               # one budget test per block
                if _ic > _bud:
                    raise eng._budget_trap()
                _now += 9               # batched clock-blind charges
                if not (r3 < 48):
                    break
                r0 = ((r1 + 24) + 0x80000000 & 0xFFFFFFFF) - 0x80000000

Translation scheme
------------------

* **Registers -> locals.**  Register ``i`` becomes local ``r{i}``;
  parameters are the generated function's positional parameters, and
  only registers live into the entry block get a ``= 0`` initialiser.
* **Block fusion.**  Leaders are the entry plus *actual* jump targets
  (not every label), which keeps straight-line runs long.  Each block
  opens with its one ``_ic += span`` budget test.
* **Cycle batching.**  Clock-blind instructions (arithmetic, moves,
  scalar local/main traffic, word extract/insert, print and math
  intrinsics) are charged in one ``_now += total`` per run; segments
  break at every clock-observing instruction (calls, outer-space
  accesses, DMA intrinsics, offload launch/join, bulk copies), so the
  clock is exactly the reference engine's at every observation point.
  A branch is charged with the segment before it when nothing in that
  segment can trap.
* **Propagation inside a block.**  Simulated cost is already in those
  batched updates, so host work may shrink: a constant or copy is
  substituted into its readers; a pure, trap-free ALU result read
  exactly once is forwarded into that reader in parentheses (same
  operations, same order); a value nobody reads is not computed.  A
  pending value is stored just before a register it reads is
  redefined, and at block end when the backward liveness pass says a
  successor reads it.  Loads, stores, calls, intrinsics, integer
  division (it traps) and everything clock-observing stay statements,
  in program order.
* **Structured control flow.**  Natural loops become ``while True:``
  with ``break`` / ``continue``; two-way branches whose arms rejoin or
  leave become ``if`` / ``else``.  A function whose CFG cannot be
  written that way (irreducible, a short-circuit join, a nest deeper
  than the parser allows) keeps the ``while True`` / ``if _pc == N``
  ladder, arms ordered by loop depth (``CodegenStats.ladders``).
* **Hoisted counters.**  ``eng._instructions``, ``eng._budget``,
  ``ctx.now`` and each memory's ``_data`` / ``size`` live in locals
  (``_ic``, ``_bud``, ``_now``, ``_md`` / ``_mz``, ``_ld`` / ``_lz``).
  ``_ic`` and ``_now`` are written back before, and re-read after,
  everything that is handed ``ctx`` — calls, domain dispatch, offload
  launch/join, bulk copies, trace events — and on return; DMA engines
  and outer-access strategies take and return the clock as a value.
  One ``except BaseException`` around the body restores both.
* **Outer accesses.**  A function with outer loads or stores binds its
  strategy's inline view once, at entry (``eng._inline_view``): a
  direct-mapped cache's flat tag and dirty lists, geometry, hit tally
  and line storage (:mod:`repro.runtime.softcache`), or a view that
  never matches.  Each site compares one list entry; a hit reads or
  writes the line storage with the scalar codec and adds one weight to
  the tally, anything else calls ``eng._load_outer`` /
  ``eng._store_outer`` like the reference engine.  The probe cycles of
  a hit are charged with the segment the access closes, and the miss
  path hands the cache the clock without them.
* **Typedness.**  A per-function fixpoint classifies registers as
  int-typed / float-typed / unknown, eliding the defensive ``int()`` /
  ``float()`` coercions where a register's value class is proven.
* **Typed views.**  A main or local scalar access indexes a
  ``memoryview`` cast of the backing store (``MemorySpace.v_<fmt>``,
  bound at entry as ``_mvf``, ``_lvI`` ...) where
  :data:`repro.ir.ops.SCALARS` gives a view format, after the unchanged
  bounds test.  A site :func:`_known_alignment` proves aligned uses the
  view directly; any other tests ``_a & (size - 1)`` and takes the
  ``struct`` codec when misaligned.
* **Hoisting.**  In a ``while True:`` loop, a forwarded int-typed,
  trap-free expression reading no register the loop defines is bound
  once before the outermost such loop (``_h0 = ...``).  Host work only:
  budget tests and clock charges stay in place.
* **Per-duplicate specialization.**  Offload duplicates are separate
  IR functions (``IRFunction.duplicate_id``), so each duplicate gets
  its own specialized generated function — memory-space operands and
  codecs are baked per duplicate, never re-dispatched.
* **Single source of truth.**  Arithmetic is not written here: every
  BinOp / UnOp / pure intrinsic is its :mod:`repro.ir.ops` template
  with operand text substituted, the same text the reference engine
  runs compiled.  Stateful machinery — offload scheduling
  through :mod:`repro.sched`, domain dispatch, DMA engines, bulk
  copies, race checking — is *called into* the reference
  implementation (``eng._run_offload``, ``eng._domain_call_values``,
  ...), never re-implemented, which is how the engine stays cycle-,
  counter- and trace-identical to the reference engine.  The only
  host-side differences: the ``max_instructions`` guard is charged per
  basic block at block entry (totals are exact for every completed
  block), and hot counters (``vm.calls``, ``word.extracts`` ...)
  accumulate in :class:`~repro.machine.perf.CounterSlot` batches that
  drain into the machine-wide counters on read.

Caching
-------

The generated module is compiled as one *compile unit per function*
(plus the prelude and the dispatch table), all ``exec``\\ ed into one
shared namespace, so the ``compile()`` arena is bounded by the largest
function rather than by the whole module.  The resulting code objects
are cached at two levels:

* in memory on the :class:`~repro.ir.module.IRProgram` object itself,
  keyed by cost-model identity, so repeat runs of one program object
  never regenerate;
* on disk in the content-addressed compile cache
  (:mod:`repro.compiler.cache`) as ``marshal.dumps`` of the tuple of
  code objects, stored alongside the program artifact shards as
  ``<key>.<kind>.bin``.  The key is sha256 over the digest of the
  canonical program artifact + the cost model (the job path hands in
  the digest of the text the compile cache just stored or loaded, so
  the program is not serialized a second time; anyone else's program
  is serialized and hashed, so mutated IR keys as what it is); key and
  kind both carry :data:`CODEGEN_VERSION` and
  ``sys.implementation.cache_tag``, because marshalled bytecode is only
  meaningful to the interpreter version that wrote it.  With a cache
  attached (``REPRO_COMPILE_CACHE`` or an explicit cache), a warm start
  unmarshals the code objects and ``exec``\\ s them without running the
  translator or ``compile()`` at all
  (``CodegenStats.translations == 0``).  An entry that does not
  unmarshal to a tuple of code objects is counted
  (``CacheStats.aux_bad``), treated as a miss and overwritten.
  Generated *source* is never stored; inspect it with
  ``python -m repro.tools.run --dump-codegen``.

Functions using an instruction the translator does not know fall back
per-function to the reference interpreter's decode loop; everything
else in the program — their callees included — still runs generated
code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import marshal
import math
import sys
from types import CodeType
from typing import Callable, Optional

from repro.analysis.dataflow import BasicBlock, ControlFlowGraph
from repro.ir import ops
from repro.ir.instructions import (
    AccSpace,
    BinOp,
    CJump,
    Call,
    Const,
    Copy,
    DomainCall,
    Extract,
    FrameAddr,
    GlobalAddr,
    ICall,
    Insert,
    Instr,
    Intrinsic,
    Jump,
    Load,
    Move,
    OffloadJoin,
    OffloadLaunch,
    Ret,
    Store,
    Trap,
    UnOp,
    instr_def,
    instr_uses,
)
from repro.ir.module import IRFunction, IRProgram
from repro.ir.serialize import (
    artifact_digest,
    program_to_json,
    to_canonical_json,
)
from repro.machine.config import CostModel
from repro.machine.machine import Machine
from repro.obs.trace import EV_ENTER, EV_EXIT, EV_FRAME
from repro.runtime.softcache import (
    NO_INLINE,
    DirectMappedCache,
    inline_hit_weight,
)
from repro.vm.context import ThreadContext
from repro.vm.interpreter import PRINTS, Interpreter, RunOptions

#: Bumped whenever the translation scheme changes in any way that can
#: affect generated source; part of the disk cache key and kind so
#: stale cached modules are never re-executed.
CODEGEN_VERSION = 4

#: Pseudo-filename under which generated code is compiled (shows up in
#: tracebacks from generated code).
MODULE_FILENAME = "<repro.vm.codegen>"

_TERMINATORS = (Jump, CJump, Ret, Trap)

# Register value classes proven by the typedness analysis.
_INT = "int"
_FLT = "float"
_ANY = "any"

_SPACE_NAMES = {
    AccSpace.MAIN: "_SP_MAIN",
    AccSpace.LOCAL: "_SP_LOCAL",
    AccSpace.OUTER: "_SP_OUTER",
}


class _Unsupported(Exception):
    """Raised by the translator for constructs it cannot lower; the
    affected function falls back to the reference interpreter."""


@dataclasses.dataclass
class CodegenStats:
    """Codegen accounting for one engine instance (or warm pass).

    ``translations`` counts IR functions whose source was *generated*
    this time, and ``source_chars`` the size of that source; a warm
    start served entirely from the compile cache leaves both at 0.
    """

    translations: int = 0
    fallbacks: int = 0
    #: Translated functions whose CFG kept the ``_pc`` ladder.
    ladders: int = 0
    exec_loads: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    source_chars: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "codegen.translations": self.translations,
            "codegen.fallbacks": self.fallbacks,
            "codegen.ladders": self.ladders,
            "codegen.exec_loads": self.exec_loads,
            "codegen.cache_hits": self.cache_hits,
            "codegen.cache_misses": self.cache_misses,
            "codegen.source_chars": self.source_chars,
        }


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _float_literal(value: float) -> str:
    if math.isnan(value):
        return "math.nan"
    if math.isinf(value):
        return "math.inf" if value > 0 else "-math.inf"
    return repr(value)


def _literal(value: object) -> str:
    if isinstance(value, float):
        return _float_literal(value)
    return repr(value)


def _codec_suffix(key: tuple[int, bool, bool]) -> str:
    size, signed, is_float = key
    return f"{size}{'s' if signed else 'u'}{'f' if is_float else 'i'}"


def _table_op(instr: Instr) -> Optional[ops.Op]:
    """The :mod:`repro.ir.ops` entry of a BinOp, UnOp or Intrinsic."""
    if isinstance(instr, BinOp):
        return ops.BINOPS.get((instr.op, instr.float_op, instr.signed))
    if isinstance(instr, UnOp):
        return ops.UNOPS.get((instr.op, instr.float_op))
    return ops.INTRINSICS.get(instr.name)


def _infer_reg_types(function: IRFunction) -> dict[int, str]:
    """Flow-insensitive fixpoint classifying registers as int / float /
    unknown.  Unwritten registers read as their 0 initializer, so a
    register absent from the result is int-typed."""
    types: dict[int, str] = {r: _ANY for r in range(len(function.params))}

    def join(reg: Optional[int], t: str) -> bool:
        if reg is None:
            return False
        cur = types.get(reg)
        if cur is None:
            types[reg] = t
            return True
        if cur == t or cur == _ANY:
            return False
        types[reg] = _ANY
        return True

    # Every class but a copy's is fixed by its own instruction: one pass,
    # then the copies to a fixpoint.
    moves = []
    for instr in function.code:
        if isinstance(instr, Move):
            moves.append(instr)
        elif isinstance(instr, Const):
            join(instr.dst, _FLT if isinstance(instr.value, float) else _INT)
        elif isinstance(instr, (BinOp, UnOp, Intrinsic)):
            # Outside the table: an intrinsic that acts on the machine
            # and returns 0 (or an op ``emit`` will refuse).
            op = _table_op(instr)
            join(instr.dst, op.result if op else _INT)
        elif isinstance(instr, Load):
            join(instr.dst, _FLT if instr.is_float else _INT)
        elif isinstance(
            instr, (Extract, Insert, FrameAddr, GlobalAddr, OffloadLaunch)
        ):
            join(instr.dst, _INT)
        elif isinstance(instr, (Call, ICall, DomainCall)):
            join(instr.dst, _ANY)
    changed = True
    while changed:
        changed = False
        for move in moves:
            src_t = types.get(move.src)
            if src_t is not None:
                changed |= join(move.dst, src_t)
    return types


#: Most low zero bits a register is credited with (a 32-bit 0's).
_ALIGN_TOP = 32
#: The BinOps whose result's known low zero bits follow their operands'.
_ALIGN_OPS = frozenset(("+", "-", "*", "&", "<<"))


def _zero_bits(value: object) -> int:
    """Low zero bits of an int constant (0 for anything else)."""
    if type(value) is not int:
        return 0
    return (value & -value).bit_length() - 1 if value & 0xFFFFFFFF else _ALIGN_TOP


def _known_alignment(
    function: IRFunction, program: IRProgram, defs: list, entry_live: int
) -> dict[int, int]:
    """Flow-insensitive fixpoint of each register's known low zero bits,
    shaped like :func:`_infer_reg_types`: each register starts at
    :data:`_ALIGN_TOP` (its 0 initializer) and every definition (``defs``
    holds each instruction's) can only lower it.  A shift count is
    constant when every definition is the same ``Const`` and it is not
    live into the entry (the mask ``entry_live``)."""
    nparams = len(function.params)
    known = dict.fromkeys(range(nparams), 0)
    consts: dict[int, object] = {}
    flows = []  # (reg, op, a, b): the definitions that read registers
    for instr, reg in zip(function.code, defs):
        if reg is None:
            continue
        kind, value, bits = type(instr), None, _ALIGN_TOP
        if kind is Move:
            flows.append((reg, "+", instr.src, instr.src))
        elif kind is BinOp and instr.op in _ALIGN_OPS and not instr.float_op:
            flows.append((reg, instr.op, instr.a, instr.b))
        elif kind is Const:
            bits = _zero_bits(instr.value)
            if reg >= nparams and not entry_live >> reg & 1:
                value = instr.value
        elif kind is GlobalAddr:
            slot = program.globals.get(instr.name)
            bits = 0 if slot is None else _zero_bits(slot.address)
        elif kind is FrameAddr and function.frame_size:
            bits = min(4, _zero_bits(instr.offset))
        else:  # params, loads, calls ...: nothing
            bits = 0
        consts[reg] = value if consts.get(reg, value) == value else None
        if bits < known.get(reg, _ALIGN_TOP):
            known[reg] = bits
    changed = True
    while changed:  # sums above _ALIGN_TOP never lower a register
        changed = False
        for reg, op, a, b in flows:
            x, y = known.get(a, _ALIGN_TOP), known.get(b, _ALIGN_TOP)
            if op == "<<":
                shift = consts.get(b)
                new = x + (shift & 31) if type(shift) is int else 0
            else:
                new = min(x, y) if op in "+-" else x + y if op == "*" else max(x, y)
            if new < known.get(reg, _ALIGN_TOP):
                known[reg] = new
                changed = True
    return known


#: One emitted statement line: (relative indent, text).
_Lines = list[tuple[int, str]]


class _Unstructured(Exception):
    """The CFG does not fit ``while`` / ``if`` / ``break``; the function
    keeps the ``_pc`` ladder."""


#: Pseudo successor: control runs off the end of the function.
_EXIT = -1

#: Deepest loop nest emitted as real ``while`` statements (CPython
#: refuses more than 20 statically nested blocks).
_MAX_LOOP_DEPTH = 16

#: Longest expression forwarded into its single use rather than stored.
_MAX_FORWARD_CHARS = 160

#: First statement of a ``_pc`` ladder, as it sits in a function's text
#: (string literals cannot hold a raw newline, so nothing else matches).
LADDER_MARK = "\n        _pc = 0\n"

#: The engine helper each DMA or accessor intrinsic runs on the value
#: clock.
_CLOCK_HELPERS = {
    "dma_get": "_dma_transfer",
    "dma_put": "_dma_transfer",
    "dma_wait": "_dma_wait",
    "acc_bulk_get": "_bulk_transfer",
    "acc_bulk_put": "_bulk_transfer",
}

_SYNC_OUT = (0, "eng._instructions, ctx.now = _ic, _now")
_SYNC_IN = (0, "_ic, _now = eng._instructions, ctx.now")


def _indent(lines: _Lines, by: int = 1) -> _Lines:
    return [(ind + by, text) for ind, text in lines]


class _FunctionEmitter:
    """Translates one IR function into Python source lines."""

    def __init__(
        self,
        function: IRFunction,
        program: IRProgram,
        cost: CostModel,
        func_names: dict[str, str],
        generated: set[str],
        needs: set,
    ):
        self.fn = function
        self.program = program
        self.cost = cost
        self.func_names = func_names
        #: Program functions that will exist in the generated module
        #: (call sites to anything else go through ``eng``).
        self.generated = generated
        #: Shared accumulator of scalar-codec keys / module-level
        #: features the prelude must provide.
        self.needs = needs
        self.types = _infer_reg_types(function)
        self.uses_fb = False
        self.uses_ls = False
        self.uses_chk = False
        self.uses_mm = False
        #: Whether an outer load or store binds the strategy's inline
        #: view in the prologue.
        self.uses_outer = False
        #: Cycles the outer access just translated charges up front (see
        #: ``_emit_outer``); ``_body`` adds them to the segment it closes.
        self._lead = 0
        #: Typed-view formats the prologue binds per memory (``_m`` main,
        #: ``_l`` local): ``_mvf`` is ``_mm.v_f``.
        self.views: dict[str, set[str]] = {"_m": set(), "_l": set()}
        #: Block-local values not stored yet: register -> [text,
        #: registers the text reads, uses left, live at block end,
        #: header of the loop it is invariant in or None].
        self.env: dict[int, list] = {}
        self._deps: set[int] = set()
        self._coerced = False
        #: (text, loop header) of each invariant value the instruction
        #: being translated read; (loop header, ``_hN = text``) of each
        #: binding to place before a loop; per loop header, its blocks and
        #: the mask of registers they define (empty: no hoisting).
        self._invariant: list[tuple[str, int]] = []
        self.hoisted: list[tuple[int, str]] = []
        self.loop_defs: dict[int, tuple[set[int], int]] = {}
        #: How to read an operand of each :class:`repro.ir.ops.Op` kind.
        self._read_as = {"i": self.iv, "f": self.fv, "r": self.rv}

    # ------------------------------------------------------------ helpers

    def rv(self, reg: int) -> str:
        """Register as an expression: its pending block-local value
        (constant, copy source or forwarded expression) when there is
        one, else the local ``r{reg}``."""
        entry = self.env.get(reg)
        if entry is None:
            self._deps.add(reg)
            return f"r{reg}"
        entry[2] -= 1
        self._deps |= entry[1]
        if entry[4] is not None:
            self._invariant.append((entry[0], entry[4]))
        return entry[0]

    def iv(self, reg: int) -> str:
        """Register as an int expression (coercion elided when proven)."""
        if self.types.get(reg, _INT) == _INT:
            return self.rv(reg)
        self._coerced = True
        return f"int({self.rv(reg)})"

    def fv(self, reg: int) -> str:
        """Register as a float expression."""
        if self.types.get(reg) == _FLT:
            return self.rv(reg)
        self._coerced = True
        return f"float({self.rv(reg)})"

    def _args(self, regs: list[int]) -> str:
        return ", ".join(self.rv(a) for a in regs)

    def _codec_name(self, kind: str, key: tuple[int, bool, bool]) -> str:
        self.needs.add(("codec", key))
        return f"_{kind}_{_codec_suffix(key)}"

    # -------------------------------------------------------------- emit

    def emit(self) -> str:
        fn = self.fn
        nparams = len(fn.params)
        self.blocks = self._collect_blocks()
        self._analyse()
        entry_live = self.live_in[0] if self.blocks else 0
        self.align = _known_alignment(fn, self.program, self.defs, entry_live)
        self._bodies: dict[int, _Lines] = {}
        #: CJump condition of each emitted block, as an ``if`` test.
        self.conds: dict[int, str] = {}
        if not self.blocks:
            body = self._exit_lines()
        else:
            try:
                body = self._structured()
                if max(body)[0] > 60:  # lines sort by indent first
                    raise _Unstructured("nesting too deep for the parser")
            except _Unstructured:
                self.loop_defs, self.hoisted = {}, []  # a ladder has no loops
                self._bodies.clear()
                body = self._ladder()

        # Prologue (after the body so the uses_* flags are known).
        params = "".join(f", r{i}" for i in range(nparams))
        lines: _Lines = [(0, f"def {self.func_names[fn.name]}(eng, ctx{params}):")]
        entry_live >>= nparams
        init = [
            f"r{nparams + i}" for i in range(entry_live.bit_length())
            if entry_live >> i & 1
        ]
        if init:
            lines.append((1, " = ".join(init) + " = 0"))
        if fn.frame_size:
            lines.append((1, "_stk = ctx.stack"))
            lines.append((1, "_sp0 = _stk.sp"))
            lines.append((1, f"_fb = _stk.push({fn.frame_size})"))
        elif self.uses_fb:
            lines.append((1, "_fb = ctx.stack.sp"))
        lines.append((1, "_ic = eng._instructions"))
        lines.append((1, "_bud = eng._budget"))
        lines.append((1, f"_now = ctx.now + {self.cost.call}"))
        lines.append((1, "eng._sc_calls.count += 1"))
        lines.append((1, "_tr = eng._trace"))
        lines.append((1, "if _tr.enabled:"))
        lines.append((2, "ctx.now = _now"))
        lines.append((2, f"eng._emit_enter(ctx, {fn.name!r})"))
        if self.uses_outer:
            lines.append((1, "_s = ctx.strategy"))
            lines.append(
                (1, "_tg, _dy, _cs, _ck, _cw, _pt, _cv = eng._inline_view(_s)")
            )
        if self.uses_ls:
            # No local store: size -1 fails every bounds test, and the
            # slow path under it raises the "has none" trap.
            views = sorted(self.views["_l"])
            names, nones = "".join(f", _lv{f}" for f in views), ", None" * len(views)
            reads = "".join(f", _ls.v_{fmt}" for fmt in views)
            lines.append((1, "_ls = ctx.local_store"))
            lines.append((1, f"_ld, _lz{names} = (None, -1{nones}) if _ls is None else (_ls._data, _ls.size{reads})"))
        if self.uses_chk:
            lines.append((1, "_chk = None"))
            lines.append((1, "if eng._chk_discipline and ctx.is_accel and _ls is not None:"))
            lines.append((2, "_chk = ctx.core.dma"))
        if self.uses_mm:
            lines.append((1, "_mm = ctx.main_memory"))
            lines.append((1, "_md = _mm._data"))
            lines.append((1, "_mz = _mm.size"))
            for fmt in sorted(self.views["_m"]):
                lines.append((1, f"_mv{fmt} = _mm.v_{fmt}"))
        lines.append((1, "try:"))
        lines.extend(_indent(body, 2))
        # Both only ever grow, so the larger is the live one whether the
        # exception rose here or in a callee (which restored its own).
        lines.append((1, "except BaseException:"))
        lines.append((2, "eng._instructions = max(_ic, eng._instructions)"))
        lines.append((2, "ctx.now = max(_now, ctx.now)"))
        lines.append((2, "raise"))
        if fn.frame_size:
            lines.append((1, "finally:"))
            lines.append((2, "_stk.pop(_sp0)"))
        return "\n".join("    " * ind + text for ind, text in lines) + "\n"

    def _exit_lines(self, charge: int = 0, value: str = "0") -> _Lines:
        now = f"_now + {charge}" if charge else "_now"
        return [
            (0, f"eng._instructions, ctx.now = _ic, {now}"),
            (0, "if _tr.enabled:"),
            (1, f"eng._emit_exit(ctx, {self.fn.name!r})"),
            (0, f"return {value}"),
        ]

    # ------------------------------------------------------------- blocks

    def _collect_blocks(self) -> list[tuple[int, int, int]]:
        """(leader, end, span) per block.  Leaders are the entry plus
        resolvable in-range jump targets, not every label, so
        straight-line runs stay long.  Spans still count exactly the
        executed instructions."""
        fn = self.fn
        code = fn.code
        n = len(code)
        if n == 0:
            return []
        targets: set[int] = set()
        for instr in code:
            if isinstance(instr, Jump):
                labels: tuple = (instr.label,)
            elif isinstance(instr, CJump):
                labels = (instr.then_label, instr.else_label)
            else:
                continue
            targets.update(fn.labels.get(label, -1) for label in labels)
        targets = {t for t in targets if 0 <= t < n}
        leaders = sorted({0, *targets})
        blocks = []
        for pos, leader in enumerate(leaders):
            limit = leaders[pos + 1] if pos + 1 < len(leaders) else n
            end = limit
            for j in range(leader, limit):
                if isinstance(code[j], _TERMINATORS):
                    end = j + 1
                    break
            blocks.append((leader, end, end - leader))
        return blocks

    def _analyse(self) -> None:
        """Successors of every block and one backward liveness pass:
        ``live_in`` / ``live_out`` are register bit masks per block."""
        fn = self.fn
        code = fn.code
        n = len(code)
        blocks = self.blocks
        index_of = {leader: i for i, (leader, _, _) in enumerate(blocks)}

        def target(label: str):
            t = fn.labels.get(label)
            if t is None:
                return label  # KeyError at run time, as on the decode loop
            return index_of[t] if 0 <= t < n else _EXIT

        #: Per block: () after Ret/Trap, (t,) for a jump or fall-through,
        #: (then, else) for a CJump; a target is a block index, _EXIT or
        #: the name of a label that does not exist.
        self.succ: list[tuple] = []
        self.uses = [instr_uses(instr) for instr in code]
        self.defs = [instr_def(instr) for instr in code]
        use_masks, def_masks = [], []
        for leader, end, _ in blocks:
            last = code[end - 1]
            if isinstance(last, Jump):
                self.succ.append((target(last.label),))
            elif isinstance(last, CJump):
                self.succ.append(
                    (target(last.then_label), target(last.else_label))
                )
            elif isinstance(last, (Ret, Trap)):
                self.succ.append(())
            else:
                self.succ.append((index_of[end] if end < n else _EXIT,))
            used = defined = 0
            for j in range(leader, end):
                for reg in self.uses[j]:
                    if not defined >> reg & 1:
                        used |= 1 << reg
                if self.defs[j] is not None:
                    defined |= 1 << self.defs[j]
            use_masks.append(used)
            def_masks.append(defined)
        self.def_masks = def_masks
        #: The successors that are blocks, as the CFG's edges.
        self.edges = [
            sorted({t for t in succ if type(t) is int and t >= 0})
            for succ in self.succ
        ]
        self.live_in = [0] * len(blocks)
        self.live_out = [0] * len(blocks)
        changed = True
        while changed:
            changed = False
            for i in range(len(blocks) - 1, -1, -1):
                out = 0
                for s in self.edges[i]:
                    out |= self.live_in[s]
                self.live_out[i] = out
                live = use_masks[i] | (out & ~def_masks[i])
                if live != self.live_in[i]:
                    self.live_in[i] = live
                    changed = True

    def _kill(self, reg: int, out: _Lines) -> None:
        """``reg`` is about to be redefined: forget its pending value and
        store every pending value that reads it and is still wanted."""
        env = self.env
        env.pop(reg, None)
        if reg in self._read:
            for other in [k for k, entry in env.items() if reg in entry[1]]:
                text, _, left, live, _ = env.pop(other)
                if left or live:
                    out.append((0, f"r{other} = {text}"))

    def _invariant_in(self, index: int) -> Optional[int]:
        """Header of the outermost loop around block ``index`` that
        defines no register the value just translated reads."""
        mask = sum(1 << reg for reg in self._deps)
        best = None
        for header, (body, defined) in self.loop_defs.items():
            if index in body and not defined & mask and (
                best is None or len(body) > len(self.loop_defs[best][0])
            ):
                best = header
        return best

    def _hoist(self, result):
        """Bind each invariant value the instruction read before its loop
        and read the binding in ``result`` (an expression or lines); one
        no longer spelled out whole (a bare branch test) stays put."""
        if not self._invariant:
            return result
        lines = [(0, result)] if isinstance(result, str) else list(result)
        for text, header in self._invariant:
            at = next((i for i, (_, line) in enumerate(lines) if text in line), None)
            if at is not None:
                name = f"_h{len(self.hoisted)}"
                self.hoisted.append((header, f"{name} = {text}"))
                lines[at] = (lines[at][0], lines[at][1].replace(text, name, 1))
        self._invariant = []
        return lines[0][1] if isinstance(result, str) else lines

    def _body(self, index: int) -> _Lines:
        """One block up to (and charging for) its terminator: the budget
        test, then the clock-blind segments with pure values propagated,
        forwarded or dropped.  A CJump leaves its test in ``self.conds``;
        the transfer itself is the caller's."""
        cached = self._bodies.get(index)
        if cached is not None:
            return cached
        leader, end, span = self.blocks[index]
        code = self.fn.code
        out: _Lines = [
            (0, f"_ic += {span}"),
            (0, "if _ic > _bud:"),
            (1, "raise eng._budget_trap()"),
        ]
        # Backward: per definition, how many reads it reaches inside the
        # block and whether it is the value live out of the block.
        reach: dict[int, tuple[int, bool]] = {}
        reads: dict[int, int] = {}
        live = self.live_out[index]
        for j in range(end - 1, leader - 1, -1):
            reg = self.defs[j]
            if reg is not None:
                reach[j] = (reads.pop(reg, 0), bool(live >> reg & 1))
                live &= ~(1 << reg)
            for reg in self.uses[j]:
                reads[reg] = reads.get(reg, 0) + 1
        env = self.env
        env.clear()
        self._read: set[int] = set()  # every register a pending text read
        pending_charge = 0
        pending_lines: _Lines = []
        can_raise = False  # anything but pure stores in pending_lines?

        def flush() -> None:
            nonlocal pending_charge, can_raise
            if pending_charge:
                out.append((0, f"_now += {pending_charge}"))
                pending_charge = 0
            out.extend(pending_lines)
            pending_lines.clear()
            can_raise = False

        def store_live() -> None:
            for reg, (text, _, _, wanted, _) in env.items():
                if wanted:
                    pending_lines.append((0, f"r{reg} = {text}"))

        for j in range(leader, end):
            instr = code[j]
            self._invariant = []
            if isinstance(instr, _TERMINATORS):
                tail = self._emit_terminator(index, instr)
                if isinstance(instr, CJump):
                    self.conds[index] = self._hoist(self.conds[index])
                else:
                    tail = self._hoist(tail)
                store_live()
                if not tail and not can_raise:
                    # Nothing in the last segment can observe the clock
                    # or trap, so the branch is charged with it.
                    pending_charge += self.cost.branch
                    flush()
                else:
                    flush()
                    out.extend(tail or [(0, f"_now += {self.cost.branch}")])
                break
            self._deps = set()
            self._coerced = False
            result, charge = self._translate(instr)
            reg = self.defs[j]
            if reg is not None:
                self._kill(reg, pending_lines)
            pure = isinstance(result, str)
            if pure:
                reads_left, wanted = reach[j]
                if result[0] != "(" or (
                    reads_left == 1 and not wanted and not self._coerced
                    and len(result) < _MAX_FORWARD_CHARS
                ):
                    # An invariant value is hoisted whole by its reader;
                    # any other binds what it read before their loops.
                    loop = None
                    if self.loop_defs and result[0] == "(" and self.types.get(reg, _INT) == _INT:
                        loop = self._invariant_in(index)
                    if loop is None:
                        result = self._hoist(result)
                    env[reg] = [result, self._deps, reads_left, wanted, loop]
                    self._read |= self._deps
                    result = []
                elif reads_left or wanted or self._coerced:
                    result = [(0, f"r{reg} = {self._hoist(result)}")]
                else:
                    result = []
            else:
                result = self._hoist(result)
            if charge is None:
                pending_charge += self._lead
                self._lead = 0
                flush()
                out.extend(result)
            else:
                pending_charge += charge
                pending_lines.extend(result)
                can_raise = can_raise or not pure
        else:
            store_live()
            flush()
        self._bodies[index] = out
        return out

    def _emit_terminator(self, index: int, instr: Instr) -> _Lines:
        if isinstance(instr, Ret):
            value = self.rv(instr.src) if instr.src is not None else "0"
            return self._exit_lines(self.cost.ret, value)
        if isinstance(instr, Trap):
            return [(0, f"raise RuntimeTrap({instr.message!r})")]
        if isinstance(instr, CJump):
            cond = self.rv(instr.cond)
            if cond.startswith("(1 if ") and cond.endswith(" else 0)"):
                cond = cond[6:-8]
            self.conds[index] = cond
        return []  # a branch: only its charge, which ``_body`` places

    # ------------------------------------------------- structured control

    def _cfg(self) -> ControlFlowGraph:
        """The fused blocks as a :mod:`repro.analysis.dataflow` CFG, for
        its dominators and natural loops."""
        cfg_blocks = [
            BasicBlock(index=i, start=leader, end=end, succs=self.edges[i])
            for i, (leader, end, _) in enumerate(self.blocks)
        ]
        for block in cfg_blocks:
            for s in block.succs:
                cfg_blocks[s].preds.append(block.index)
        return ControlFlowGraph(self.fn, cfg_blocks)

    def _structured(self) -> _Lines:
        """The body as ``while`` / ``if`` / ``break`` / ``continue``.  A
        block is placed once every forward edge into it has been
        emitted, right after the construct those edges fall out of;
        what cannot be placed that way raises :class:`_Unstructured`."""
        #: Joins a then-arm fell into: they go after that ``if``, so
        #: nothing nested in its else-arm may place them.
        self.stops: list[int] = []
        if not self.edges[0]:  # one block, not looping on itself
            return self._block(0, None, 0)[0]
        cfg = self.cfg = self._cfg()
        self.loops = {loop.header: loop.body for loop in cfg.natural_loops()}
        for header, body in self.loops.items():
            defined = 0
            for i in body:
                defined |= self.def_masks[i]
            self.loop_defs[header] = (body, defined)
        self.back = set(cfg.back_edges())
        self.pending = [0] * len(self.blocks)
        for i in cfg.reverse_postorder():
            for s in self.edges[i]:
                if (i, s) not in self.back:
                    self.pending[s] += 1
        self.placed: set[int] = set()
        lines, left = self._seq(0, None, 0)
        if left is not None:
            raise _Unstructured(f"block {left} has no place")
        return lines

    def _seq(self, b, loop, depth: int, opening: bool = False):
        """Blocks from ``b`` on, for as long as each next one is ready to
        be placed.  Returns the lines and the block control falls into
        off their end (None: every path left by return / continue /
        break / raise).  ``loop`` is the innermost open loop as
        [header, exit, broke]."""
        out: _Lines = []
        while b is not None and (
            opening or not (self.pending[b] or b in self.stops)
        ):
            if b in self.placed:
                raise _Unstructured(f"block {b} reached twice")
            if b in self.loops and not opening:
                if depth >= _MAX_LOOP_DEPTH:
                    raise _Unstructured("loop nest too deep")
                body = self.loops[b]
                # Of the blocks the loop can leave to, the one laid out
                # last is where structured lowering puts the join.
                exits = [
                    t for i in body for t in self.edges[i]
                    if t not in body
                ]
                inner = [b, max(exits, default=None), False]
                lines, left = self._seq(b, inner, depth + 1, opening=True)
                if left is not None:
                    raise _Unstructured(f"loop {b} falls into block {left}")
                if lines[-1] == (0, "continue"):
                    lines.pop()  # the bottom of the body loops anyway
                out += [(0, text) for h, text in self.hoisted if h == b]
                out += [(0, "while True:"), *_indent(lines)]
                if not inner[2]:
                    return out, None
                lines, b = self._land(inner[1], loop)
            else:
                opening = False
                self.placed.add(b)
                lines, b = self._block(b, loop, depth)
            out.extend(lines)
        return out, b

    def _land(self, t: int, loop):
        """Control arrives at block ``t`` from inside ``loop``."""
        if loop is not None:
            if t == loop[0]:
                return [(0, "continue")], None
            if t == loop[1]:
                loop[2] = True
                return [(0, "break")], None
        return [], t

    def _arm(self, src: int, t, loop, depth: int):
        """Everything one out-edge of ``src`` leads to that can be
        placed under it."""
        if isinstance(t, str):
            return [(0, f"raise KeyError({t!r})")], None
        if t == _EXIT:
            return self._exit_lines(), None
        if (src, t) not in self.back:
            self.pending[t] -= 1
        lines, t = self._land(t, loop)
        if t is not None:
            lines, t = self._seq(t, loop, depth)
        return lines, t

    def _block(self, b: int, loop, depth: int):
        lines = list(self._body(b))
        succ = self.succ[b]
        if not succ:
            return lines, None
        if len(succ) == 1 or succ[0] == succ[1]:
            arm, left = self._arm(b, succ[0], loop, depth)
            return lines + arm, left
        cond = self.conds[b]
        then, then_left = self._arm(b, succ[0], loop, depth)
        self.stops.append(then_left)
        other, other_left = self._arm(b, succ[1], loop, depth)
        self.stops.pop()
        if then_left is not None and other_left not in (None, then_left):
            raise _Unstructured(f"arms of block {b} do not rejoin")
        if other_left is None and (then_left is not None or len(other) < len(then)):
            # The arm that leaves goes under the ``if``; the other one
            # follows it un-nested.
            lines += [(0, f"if not ({cond}):"), *_indent(other), *then]
        elif then_left is None:
            lines += [(0, f"if {cond}:"), *_indent(then), *other]
        elif then:
            lines += [(0, f"if {cond}:"), *_indent(then)]
            if other:
                lines += [(0, "else:"), *_indent(other)]
        elif other:
            lines += [(0, f"if not ({cond}):"), *_indent(other)]
        return lines, then_left if then_left is not None else other_left

    # ------------------------------------------------------------- ladder

    def _ladder(self) -> _Lines:
        """Fallback control flow: a ``while True`` around one ``if _pc ==
        leader`` arm per block, deepest loops first so the hottest
        blocks are tested first."""
        depth = [0] * len(self.blocks)
        for loop in self.cfg.natural_loops():
            for i in loop.body:
                depth[i] += 1

        def goto(t) -> _Lines:
            if isinstance(t, str):
                return [(0, f"raise KeyError({t!r})")]
            if t == _EXIT:
                return self._exit_lines()
            return [(0, f"_pc = {self.blocks[t][0]}"), (0, "continue")]

        body: _Lines = [(0, LADDER_MARK.strip()), (0, "while True:")]
        order = sorted(range(len(self.blocks)), key=lambda i: (-depth[i], i))
        for pos, i in enumerate(order):
            body.append(
                (1, f"{'elif' if pos else 'if'} _pc == {self.blocks[i][0]}:")
            )
            lines = list(self._body(i))
            succ = self.succ[i]
            if len(succ) == 1 or (len(succ) == 2 and succ[0] == succ[1]):
                lines.extend(goto(succ[0]))
            elif succ:
                lines += [(0, f"if {self.conds[i]}:"), *_indent(goto(succ[0]))]
                lines.extend(goto(succ[1]))
            body.extend(_indent(lines, 2))
        return body

    # ----------------------------------------------------- instructions

    def _translate(self, instr: Instr) -> "tuple[_Lines | str, Optional[int]]":
        """One straight-line instruction -> source lines + static cycle
        charge (None for clock-observing instructions, which charge
        ``_now`` themselves).  A pure, trap-free definition comes back as
        the *expression* for its destination — an atom, or anything else
        in parentheses — for ``_body`` to store, forward or drop."""
        cost = self.cost
        alu = cost.alu

        if isinstance(instr, Const):
            return _literal(instr.value), alu

        if isinstance(instr, Move):
            return self.rv(instr.src), alu

        if isinstance(instr, BinOp):
            return self._emit_alu(instr, instr.a, instr.b), alu

        if isinstance(instr, UnOp):
            return self._emit_alu(instr, instr.a), alu

        if isinstance(instr, Load):
            return self._emit_load(instr)

        if isinstance(instr, Store):
            return self._emit_store(instr)

        if isinstance(instr, Copy):
            size = (
                self.iv(instr.size_reg)
                if instr.size_reg is not None
                else str(instr.size)
            )
            src_sp = _SPACE_NAMES[instr.src_space]
            dst_sp = _SPACE_NAMES[instr.dst_space]
            return [_SYNC_OUT, (
                0,
                f"eng._copy_values({src_sp}, {dst_sp}, "
                f"{self.iv(instr.src_addr)}, {self.iv(instr.dst_addr)}, "
                f"{size}, ctx)",
            ), _SYNC_IN], None

        if isinstance(instr, Extract):
            return self._emit_extract(instr)

        if isinstance(instr, Insert):
            return self._emit_insert(instr)

        if isinstance(instr, FrameAddr):
            self.uses_fb = True
            return (f"(_fb + {instr.offset})" if instr.offset else "_fb"), alu

        if isinstance(instr, GlobalAddr):
            slot = self.program.globals.get(instr.name)
            if slot is not None:
                return str(slot.address), alu
            # Unknown global: surface the reference engine's KeyError
            # at execution time, not at codegen time.
            return [(
                0,
                f"r{instr.dst} = eng.program.globals[{instr.name!r}].address",
            )], alu

        if isinstance(instr, Call):
            return self._emit_call(instr), None

        if isinstance(instr, ICall):
            return self._emit_icall(instr), None

        if isinstance(instr, DomainCall):
            call = (
                f"eng._domain_call_values({instr.offload_id}, "
                f"{instr.duplicate_id!r}, {self.iv(instr.func_id)}, "
                f"[{self._args(instr.args)}], ctx)"
            )
            if instr.dst is not None:
                call = f"r{instr.dst} = {call}"
            return [_SYNC_OUT, (0, call), _SYNC_IN], None

        if isinstance(instr, Intrinsic):
            return self._emit_intrinsic(instr)

        if isinstance(instr, OffloadLaunch):
            return [_SYNC_OUT, (
                0,
                f"r{instr.dst} = eng._run_offload({instr.offload_id}, "
                f"{instr.entry!r}, [{self._args(instr.args)}], ctx)",
            ), _SYNC_IN], None

        if isinstance(instr, OffloadJoin):
            return [_SYNC_OUT, (
                0, f"eng._join_offload({self.iv(instr.handle)}, ctx)"
            ), _SYNC_IN], None

        # Unknown instruction class: fail at execution time exactly like
        # the reference loop does.
        message = f"unhandled instruction {instr!r}"
        return [(0, f"raise AssertionError({message!r})")], None

    # --------------------------------------------------------- arithmetic

    def _operands(self, op: ops.Op, regs: list[int]) -> list[str]:
        """Each operand as the text the table says it is read as."""
        read = self._read_as
        return [read[kind](reg) for kind, reg in zip(op.kinds, regs)]

    def _emit_alu(self, instr: "BinOp | UnOp", *regs: int) -> "_Lines | str":
        """Operand text substituted into the instruction's
        :mod:`repro.ir.ops` template: an expression in parentheses, or
        the statements of an op that branches or may trap (never
        forwarded or dropped)."""
        op = _table_op(instr)
        if op is None:
            raise _Unsupported(f"{type(instr).__name__} {instr.op}")
        read, kinds = self._read_as, op.kinds
        a = b = read[kinds[0]](regs[0])
        if len(regs) == 2:
            b = read[kinds[1]](regs[1])
            if (
                b == "0" and instr.op in ("+", "-", "|", "^")
                and not (instr.signed or instr.float_op)
                and a.endswith("& 0xFFFFFFFF)")
            ):
                return a  # field at offset 0 of an already-wrapped address
        if "{d}" in op.text:
            return ops.statements(op.text, f"r{instr.dst}", a, b)
        return "(" + op.text.format(a=a, b=b) + ")"

    # ------------------------------------------------------------- memory

    def _emit_load(self, instr: Load) -> tuple[_Lines, Optional[int]]:
        d, size = instr.dst, instr.size
        addr = self.iv(instr.addr)
        row = ops.SCALARS.get(instr.scalar_key)

        if instr.space is AccSpace.OUTER and row is not None:
            upf = self._codec_name("upf", instr.scalar_key)
            up = self._codec_name("up", instr.scalar_key)
            return self._emit_outer(addr, size, False, lambda a: [
                (0, f"r{d} = {upf}(_cv, {a} & _cw)[0]"),
            ], lambda a, now: [
                (0, f"r{d}, _now = eng._load_outer("
                    f"_s, {a}, {size}, {now}, {up})"),
            ]), None

        if row is None:
            # Exotic width: defer to the reference helpers wholesale
            # (which charge the clock themselves).
            sp = _SPACE_NAMES[instr.space]
            return [
                _SYNC_OUT,
                (0, f"_data = eng._read_mem({sp}, {addr}, {size}, ctx)"),
                _SYNC_IN,
                (
                    0,
                    f"r{d} = eng._decode(_data, {instr.signed},"
                    f" {instr.is_float})",
                ),
            ], None

        upf = self._codec_name("upf", instr.scalar_key)
        mem = "_m" if instr.space is AccSpace.MAIN else "_l"
        access = self._direct(instr, addr, mem, row.load_view, f"{upf}({mem}d, _a)[0]")
        if mem == "_m":
            return access, self.cost.host_mem_access
        self.uses_chk = True
        return [
            access[0],
            (0, "if _chk is not None and _chk._in_flight:"),
            (1, f"_cf = _chk.pending_local_conflict(_a, {size})"),
            (1, "if _cf is not None:"),
            (
                2,
                'raise RuntimeTrap(f"local store read at {_a:#x} overlaps'
                ' in-flight {_cf.describe()}; missing dma_wait")',
            ),
            *access[1:],
        ], self.cost.local_access

    def _direct(self, instr, addr: str, mem: str, fmt: Optional[str], slow: str) -> _Lines:
        """A main (``mem`` ``_m``) or local (``_l``) scalar access at
        ``addr``, bound to ``_a``, behind the bounds test whose arm traps
        (no ``_a < 0`` half for an address wrapped to 32 bits).  ``slow``
        is its ``struct`` form: a load's value, a store's statement.  A
        known-aligned site indexes the typed view ``fmt`` instead; any
        other tests ``_a`` for alignment and, when misaligned, takes
        ``slow``.  With ``fmt`` None it is ``slow`` alone."""
        size = instr.size
        if mem == "_m":
            self.uses_mm = True
            trap = [(0, f"_mm.check_bounds(_a, {size})")]
        else:
            self.uses_ls = True
            trap = [(0, "if _ls is None:"), (1, 'raise RuntimeTrap(f"local-store'
                    ' access on core {ctx.name} which has none")'),
                    (0, f"_ls.check_bounds(_a, {size})")]
        test = f"_a + {size} > {mem}z"
        if not addr.endswith("& 0xFFFFFFFF)"):
            test = f"_a < 0 or {test}"
        load = f"r{instr.dst} = " if isinstance(instr, Load) else ""
        head = [(0, f"_a = {addr}"), (0, f"if {test}:"), *_indent(trap)]
        if fmt is None:
            return head + [(0, load + slow)]
        self.views[mem].add(fmt)
        shift = size.bit_length() - 1
        item = f"{mem}v{fmt}[_a >> {shift}]" if shift else f"{mem}v{fmt}[_a]"
        fast = load + item if load else f"{item} = _v"
        if self.align.get(instr.addr, _ALIGN_TOP) >= shift:
            return head + [(0, fast)]
        if load:
            return head + [(0, f"{load}{slow} if _a & {size - 1} else {item}")]
        head[1] = (0, f"if {test} or _a & {size - 1}:")
        return head + [(1, slow), (0, "else:"), (1, fast)]

    def _emit_outer(
        self, addr: str, size: int, store: bool,
        hit: Callable[[str], _Lines], miss: Callable[[str, str], _Lines],
    ) -> _Lines:
        """An outer access at ``addr``: ``hit(address)`` inline when the
        slot of its first byte holds the line of its last byte — dirty,
        for a store (the prologue binds a never-matching view for
        anything but a direct-mapped cache, or with tracing on) — else
        ``miss(address, clock)``: the shared engine helper, handed the
        clock minus the probe cycles the access charges up front.  A hit
        is tallied for the ``softcache.*`` / ``outer.*`` counters in one
        add."""
        self.uses_outer = True
        self._lead = self.cost.cache_probe
        lines: _Lines = []
        if not addr.isidentifier():
            lines.append((0, f"_a = {addr}"))
            addr = "_a"
        last = f"{addr} + {size - 1}" if size > 1 else addr
        entries = "_dy" if store else "_tg"
        return lines + [
            (0, f"if {entries}[{addr} >> _cs & _ck] == {last} >> _cs:"),
            *_indent(hit(addr)),
            (1, f"_pt.count += {inline_hit_weight(size, store):#x}"),
            (0, "else:"),
            *_indent(miss(addr, f"_now - {self._lead}")),
        ]

    def _emit_store(self, instr: Store) -> tuple[_Lines, Optional[int]]:
        src, size = instr.src, instr.size
        addr = self.iv(instr.addr)
        is_float = instr.is_float
        key = (size, False, is_float)
        row = ops.SCALARS.get(key)

        if row is None:
            sp = _SPACE_NAMES[instr.space]
            return [
                (0, f"_data = eng._encode({self.rv(src)}, {size}, {is_float})"),
                _SYNC_OUT,
                (0, f"eng._write_mem({sp}, {addr}, _data, ctx)"),
                _SYNC_IN,
            ], None

        pki = self._codec_name("pki", key)
        value = (
            f"_v = {self.fv(src)}"
            if is_float
            else f"_v = {self.iv(src)} & {instr.mask:#x}"
        )
        if instr.space is AccSpace.OUTER:
            pk = self._codec_name("pk", key)
            return [(0, value), *self._emit_outer(addr, size, True, lambda a: [
                (0, f"{pki}(_cv, {a} & _cw, _v)"),
            ], lambda a, now: [
                (0, f"_now = eng._store_outer(_s, {a}, _v, {now}, {pk})"),
            ])], None
        main = instr.space is AccSpace.MAIN
        mem = "_m" if main else "_l"
        return [(0, value), *self._direct(
            instr, addr, mem, row.store_view, f"{pki}({mem}d, _a, _v)"
        )], self.cost.host_mem_access if main else self.cost.local_access

    # ----------------------------------------------------------- sub-word

    def _emit_extract(self, instr: Extract) -> tuple[_Lines, int]:
        d = instr.dst
        mask, sign_bit, modulus = instr.mask, instr.sign_bit, instr.modulus
        word = self.iv(instr.word)
        if instr.const_offset is not None:
            shift = 8 * instr.const_offset
            expr = f"({word} >> {shift}) & {mask:#x}" if shift else f"{word} & {mask:#x}"
            charge = self.cost.word_extract
        else:
            expr = f"({word} >> (8 * {self.iv(instr.offset)})) & {mask:#x}"
            charge = 2 * self.cost.word_extract
        if instr.signed:
            lines: _Lines = [
                (0, f"_v = {expr}"),
                (0, f"if _v >= {sign_bit}:"),
                (1, f"_v -= {modulus}"),
                (0, f"r{d} = _v"),
            ]
        else:
            lines = [(0, f"r{d} = {expr}")]
        lines.append((0, "eng._sc_extracts.count += 1"))
        return lines, charge

    def _emit_insert(self, instr: Insert) -> tuple[_Lines, int]:
        d = instr.dst
        mask = instr.mask
        word = self.iv(instr.word)
        value = self.iv(instr.value)
        if instr.const_offset is not None:
            shift = 8 * instr.const_offset
            shifted_mask = mask << shift
            merged = (
                f"({word} & ~{shifted_mask:#x})"
                f" | (({value} & {mask:#x}) << {shift})"
            )
            lines: _Lines = [
                (0, f"r{d} = ({merged}) & 0xFFFFFFFF"),
            ]
            charge = self.cost.word_extract
        else:
            lines = [
                (0, f"_sh = 8 * {self.iv(instr.offset)}"),
                (
                    0,
                    f"r{d} = (({word} & ~({mask:#x} << _sh))"
                    f" | (({value} & {mask:#x}) << _sh)) & 0xFFFFFFFF",
                ),
            ]
            charge = 2 * self.cost.word_extract
        lines.append((0, "eng._sc_inserts.count += 1"))
        return lines, charge

    # -------------------------------------------------------------- calls

    def _emit_call(self, instr: Call) -> _Lines:
        args = self._args(instr.args)
        if instr.callee in self.generated:
            sep = ", " if args else ""
            call = f"{self.func_names[instr.callee]}(eng, ctx{sep}{args})"
        else:
            # Unknown or fallback callee: route through the engine (a
            # missing name raises the reference engine's KeyError).
            call = (
                f"eng._exec_function(eng.program.function({instr.callee!r}),"
                f" [{args}], ctx)"
            )
        if instr.dst is not None:
            call = f"r{instr.dst} = {call}"
        return [_SYNC_OUT, (0, call), _SYNC_IN]

    def _emit_icall(self, instr: ICall) -> _Lines:
        self.needs.add(("func_ids", None))
        call = f"eng._call_by_name(_nm, [{self._args(instr.args)}], ctx)"
        if instr.dst is not None:
            call = f"r{instr.dst} = {call}"
        return [
            (0, f"_fid = {self.iv(instr.func_id)}"),
            (0, "_nm = _FUNC_IDS.get(_fid)"),
            (0, "if _nm is None:"),
            (
                1,
                'raise RuntimeTrap(f"indirect call through bad function'
                ' id {_fid:#x}")',
            ),
            (0, f"_now += {self.cost.vtable_load}"),
            _SYNC_OUT,
            (0, call),
            _SYNC_IN,
        ]

    # --------------------------------------------------------- intrinsics

    def _emit_intrinsic(self, instr: Intrinsic) -> tuple[_Lines, Optional[int]]:
        name = instr.name
        d = instr.dst
        args = instr.args
        alu = self.cost.alu

        def assign(expr: str) -> _Lines:
            if d is None:
                return []
            return [(0, f"r{d} = {expr}")]

        if name in PRINTS:
            return [
                (0, f"eng._print(ctx, {name!r}, {self.rv(args[0])})"),
                *assign("0"),
            ], alu

        pure = ops.INTRINSICS.get(name)
        if pure is not None:
            return ops.statements(
                pure.text, None if d is None else f"r{d}",
                *self._operands(pure, args),
            ), pure.weight * alu

        helper = _CLOCK_HELPERS.get(name)
        if helper is not None:
            call = f"eng.{helper}({name!r}, ctx, {self._args(args)}, _now)"
            return [(0, f"_now = {call}"), *assign("0")], None

        # Unknown intrinsic: fail at execution time like the reference.
        message = f"unhandled intrinsic {name!r}"
        return [(0, f"raise AssertionError({message!r})")], None


# ----------------------------------------------------------------- module


def _prelude(needs: set, program: IRProgram) -> str:
    lines = [
        '"""Generated by repro.vm.codegen — do not edit."""',
        "import math",
        "from repro.errors import RuntimeTrap",
        "from repro.ir.instructions import AccSpace",
        "from repro.ir.ops import SCALARS as _SCALARS",
        "from repro.vm.interpreter import _int_div, _int_rem",
        "",
        "_SP_MAIN = AccSpace.MAIN",
        "_SP_LOCAL = AccSpace.LOCAL",
        "_SP_OUTER = AccSpace.OUTER",
    ]
    for key in sorted(key for kind, key in needs if kind == "codec"):
        sfx = _codec_suffix(key)
        lines.append(f"_c_{sfx} = _SCALARS[{', '.join(map(str, key))}].codec")
        lines.append(f"_up_{sfx} = _c_{sfx}.unpack")
        lines.append(f"_upf_{sfx} = _c_{sfx}.unpack_from")
        lines.append(f"_pk_{sfx} = _c_{sfx}.pack")
        lines.append(f"_pki_{sfx} = _c_{sfx}.pack_into")
    if any(kind == "func_ids" for kind, _ in needs):
        ids = ", ".join(
            f"{fid}: {name!r}"
            for fid, name in sorted(program.function_ids.items())
        )
        lines.append(f"_FUNC_IDS = {{{ids}}}")
    lines.append("")
    return "\n".join(lines) + "\n"


def generate_module_units(
    program: IRProgram, cost: CostModel
) -> tuple[list[str], int, int]:
    """Translate every function of ``program`` into the source of one
    Python module, as its compile units: the prelude, one chunk per
    generated function, and the ``FUNCTIONS`` dispatch table.

    Returns ``(units, generated_count, fallback_count)``; functions
    the translator cannot lower are left out of the module (the engine
    falls back to the reference interpreter for them).
    """
    ordered = sorted(program.functions)
    func_names = {
        name: f"_f{i}_{_sanitize(name)}" for i, name in enumerate(ordered)
    }
    failed: set[str] = set()
    while True:
        needs: set = set()
        chunks: dict[str, str] = {}
        new_failed = set(failed)
        generated = set(ordered) - new_failed
        for name in ordered:
            if name in new_failed:
                continue
            emitter = _FunctionEmitter(
                program.functions[name], program, cost,
                func_names, generated, needs,
            )
            try:
                chunks[name] = emitter.emit()
            except _Unsupported:
                new_failed.add(name)
        if new_failed == failed:
            break
        failed = new_failed
    units = [_prelude(needs, program)]
    units.extend(chunks[name] for name in ordered if name in chunks)
    table = "".join(
        f"    {name!r}: {func_names[name]},\n"
        for name in ordered
        if name in chunks
    )
    units.append("FUNCTIONS = {\n" + table + "}\n")
    return units, len(chunks), len(failed)


def generate_module_source(
    program: IRProgram, cost: CostModel
) -> tuple[str, int, int]:
    """:func:`generate_module_units` joined into one module's text
    (what ``run --dump-codegen`` prints)."""
    units, generated, fallbacks = generate_module_units(program, cost)
    return "\n".join(units), generated, fallbacks


def _exec_units(units: tuple[CodeType, ...]) -> dict:
    """Exec a module's compile units into one shared namespace and
    return it; ``FUNCTIONS`` in it is the dispatch table (IR function
    name -> generated Python function)."""
    namespace: dict = {"__name__": "repro.vm._codegen_generated"}
    for unit in units:
        exec(unit, namespace)
    return namespace


def _load_units(blob: bytes) -> Optional[dict[str, Callable]]:
    """Dispatch table of a cached module from its disk-cache entry, or
    None for anything but a marshalled tuple of code objects that
    defines ``FUNCTIONS``."""
    try:
        units = marshal.loads(blob)
    except Exception:  # whatever marshal raises on bytes it did not write
        return None
    if not isinstance(units, tuple) or not all(
        isinstance(unit, CodeType) for unit in units
    ):
        return None
    return _exec_units(units).get("FUNCTIONS")


def codegen_cache_kind() -> str:
    """Auxiliary-entry kind of cached code objects: translator version
    and interpreter bytecode tag, so entries of different versions sit
    side by side in one cache directory."""
    return f"codegen{CODEGEN_VERSION}.{sys.implementation.cache_tag}"


def codegen_cache_key(
    program: IRProgram, cost: CostModel, digest: Optional[str] = None
) -> Optional[str]:
    """Content address of one program's generated code objects, or None
    when there is nothing sound to key on: the program cannot be
    canonically serialized (hand-built IR with exotic instruction
    objects stays uncached, never wrong), or the interpreter declares
    no bytecode cache tag.

    ``digest`` is :func:`repro.ir.serialize.artifact_digest` of the
    program's canonical text, from a caller that holds that text and
    vouches the program has not changed since (the compile cache,
    :meth:`~repro.compiler.cache.CompileCache.artifact_digest`);
    without it the program is serialized and hashed here.
    """
    tag = sys.implementation.cache_tag
    if tag is None:
        return None
    if digest is None:
        try:
            digest = artifact_digest(program_to_json(program))
        except Exception:
            return None
    material = to_canonical_json(
        {
            "codegen_version": CODEGEN_VERSION,
            "cache_tag": tag,
            "program_sha256": digest,
            "cost": dataclasses.asdict(cost),
        }
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def clear_codegen_cache(program: IRProgram) -> None:
    """Drop the in-memory generated module of ``program`` (after
    mutating its IR)."""
    program.__dict__.pop("_cg_module", None)


class CodegenInterpreter(Interpreter):
    """Drop-in engine executing generated Python source.

    All lifecycle, offload, domain-dispatch, DMA and intrinsic
    machinery is inherited; functions the translator cannot lower run
    on the inherited decode loop.
    """

    def __init__(
        self,
        program: IRProgram,
        machine: Machine,
        options: Optional[RunOptions] = None,
    ):
        super().__init__(program, machine, options)
        self._cost = machine.config.cost
        self._budget = self.options.max_instructions
        self._chk_discipline = self.options.check_dma_discipline
        perf = machine.perf
        # Batched counters for the quantities generated code itself
        # produces; everything underneath (DMA, caches, dispatch tables)
        # keeps its own accounting.
        self._sc_calls = perf.slot("vm.calls")
        self._sc_extracts = perf.slot("word.extracts")
        self._sc_inserts = perf.slot("word.inserts")
        self.codegen_stats = CodegenStats()
        self._gen_funcs: Optional[dict[str, Callable]] = None

    # ------------------------------------------------------------ dispatch

    def _exec_function(
        self, function: IRFunction, args: list[object], ctx: ThreadContext
    ) -> object:
        funcs = self._gen_funcs
        if funcs is None:
            funcs = self._ensure_module()
        fn = funcs.get(function.name)
        if fn is None:
            # Nested calls come back through ``self._exec_function``,
            # so a fallback function's callees still run generated code.
            return Interpreter._exec_function(self, function, args, ctx)
        return fn(self, ctx, *args)

    def _compiled_callee(self, function: IRFunction) -> Optional[Callable]:
        funcs = self._gen_funcs
        if funcs is None:
            funcs = self._ensure_module()
        return funcs.get(function.name)

    def _inline_view(self, strategy: object) -> tuple:
        """What a generated function binds at entry to serve outer hits
        inline: the strategy's :attr:`DirectMappedCache.inline_view`
        when it is exactly a direct-mapped cache (a victim cache
        subclasses one) and no tracer wants an event per hit, else the
        never-matching :data:`~repro.runtime.softcache.NO_INLINE`."""
        if type(strategy) is DirectMappedCache and not self._trace.enabled:
            return strategy.inline_view  # type: ignore[attr-defined]
        return NO_INLINE

    def _call_by_name(
        self, name: str, args: list[object], ctx: ThreadContext
    ) -> object:
        """Indirect-call helper for generated code: resolves the callee
        like the reference engine (KeyError on unknown names)."""
        return self._exec_function(self.program.function(name), args, ctx)

    # -------------------------------------------------------------- trace

    def _emit_enter(self, ctx: ThreadContext, name: str) -> None:
        trace = self._trace
        track = ctx.core.name
        trace.emit(ctx.now, track, EV_ENTER, (name,))
        marker = trace.frame_marker
        if marker is not None and name.endswith(marker):
            trace.emit(ctx.now, track, EV_FRAME, (name,))

    def _emit_exit(self, ctx: ThreadContext, name: str) -> None:
        self._trace.emit(ctx.now, ctx.core.name, EV_EXIT, (name,))

    # ------------------------------------------------------------- module

    def _ensure_module(
        self, cache=None, digest: Optional[str] = None
    ) -> dict[str, Callable]:
        """Build (or load) the generated module for this program + cost
        model; results are cached on the program object and, when a
        compile cache is available, on disk as marshalled code objects
        (``digest``: see :func:`codegen_cache_key`)."""
        program = self.program
        stats = self.codegen_stats
        cached = program.__dict__.get("_cg_module")
        if (
            cached is not None
            and cached[0] is self._cost
            and cached[1] == CODEGEN_VERSION
        ):
            self._gen_funcs = cached[2]
            return cached[2]
        if cache is None:
            from repro.compiler.cache import resolve_cache

            cache = resolve_cache(None)
        funcs = None
        key = (
            codegen_cache_key(program, self._cost, digest)
            if cache is not None
            else None
        )
        if key is not None:
            kind = codegen_cache_kind()
            blob = cache.load_bytes(key, kind)
            if blob is not None:
                funcs = _load_units(blob)
                if funcs is None:
                    cache.reject_bytes()
            if funcs is not None:
                stats.cache_hits += 1
            else:
                stats.cache_misses += 1
        if funcs is None:
            sources, generated, _ = generate_module_units(
                program, self._cost
            )
            stats.translations += generated
            stats.source_chars = sum(map(len, sources))
            units = tuple(
                compile(source, MODULE_FILENAME, "exec") for source in sources
            )
            if key is not None:
                cache.store_bytes(key, marshal.dumps(units), kind)
            funcs = _exec_units(units)["FUNCTIONS"]
        # Counted from the loaded functions, so a module served from
        # disk reports what a freshly generated one does.
        stats.fallbacks += sum(name not in funcs for name in program.functions)
        stats.ladders += sum(
            "_pc" in fn.__code__.co_varnames for fn in funcs.values()
        )
        stats.exec_loads += 1
        program._cg_module = (self._cost, CODEGEN_VERSION, funcs)  # type: ignore[attr-defined]
        self._gen_funcs = funcs
        return funcs


def warm_translations(
    program: IRProgram,
    machine: Machine,
    options: Optional[RunOptions] = None,
    engine: str = "codegen",
    cache=None,
    digest: Optional[str] = None,
) -> int:
    """Translate every function of ``program`` ahead of execution.

    Serving workloads that load a cached artifact
    (:mod:`repro.compiler.cache`) and then field many requests against
    it can pay the IR -> translation cost at load time instead of on
    the first run.  The generated module is cached on the program
    object itself (keyed by cost model), so every subsequent
    ``run_program`` of this program object on a machine with the same
    cost model reuses it.

    Args:
        engine: The translating engine to warm; ``"codegen"`` is the
            only one (the reference engine translates nothing).
        cache: Optional :class:`repro.compiler.cache.CompileCache` to
            consult before translating (else ``REPRO_COMPILE_CACHE``);
            cached code objects mean neither codegen nor ``compile()``
            runs at all.
        digest: Optional ``cache.artifact_digest(key)`` of the artifact
            ``program`` was just stored to or loaded from, unmodified;
            spares the cache key a serialization of the program
            (:func:`codegen_cache_key`).

    Returns the number of functions that actually needed translating
    (0 when the program is already warm for this cost model, or its
    module was served from the compile cache).
    """
    if engine != "codegen":
        raise ValueError(
            f"unknown warm_translations engine {engine!r}; known: 'codegen'"
        )
    # No race checkers: this engine instance only translates, and must
    # not leave observers attached to the machine's DMA engines.
    warm = CodegenInterpreter(
        program,
        machine,
        dataclasses.replace(options or RunOptions(), racecheck=None),
    )
    warm._ensure_module(cache=cache, digest=digest)
    return warm.codegen_stats.translations
