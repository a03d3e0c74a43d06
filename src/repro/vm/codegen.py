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
        r0 = r1 = 0
        ctx.now += 4
        eng._sc_calls.count += 1
        ...
        _pc = 0
        while True:
            if _pc == 0:
                eng._instructions += 12
                ...
                ctx.now += 9            # batched clock-blind charges
                r0 = (r1 + r2 + 0x80000000 & 0xFFFFFFFF) - 0x80000000
                ...

Translation scheme
------------------

* **Registers -> locals.**  Register ``i`` becomes local ``r{i}``;
  function parameters are the leading locals, bound directly from the
  generated function's positional parameters.
* **Block fusion.**  Leaders are the entry plus *actual* jump targets
  (not every label), which keeps straight-line runs long.  Functions
  without branches compile to pure straight-line code with no dispatch
  loop at all; branching functions use a ``while True`` /
  ``if _pc == N`` ladder with ``continue`` as the only dispatch
  overhead.
* **Cycle batching.**  Clock-blind instructions (arithmetic, moves,
  scalar local/main traffic, word extract/insert, print and math
  intrinsics) are charged in one ``ctx.now += total`` per run;
  segments break at every clock-observing instruction (calls,
  outer-space accesses, DMA intrinsics, offload launch/join, bulk
  copies, branches), so ``ctx.now`` is exactly the reference engine's
  at every observation point.
* **Typedness.**  A per-function fixpoint classifies registers as
  int-typed / float-typed / unknown, eliding the defensive ``int()`` /
  ``float()`` coercions where a register's value class is proven.
* **Per-duplicate specialization.**  Offload duplicates are separate
  IR functions (``IRFunction.duplicate_id``), so each duplicate gets
  its own specialized generated function — memory-space operands and
  codecs are baked per duplicate, never re-dispatched.
* **Single source of truth.**  Stateful machinery — offload scheduling
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
)
from repro.ir.module import IRFunction, IRProgram
from repro.ir.serialize import (
    artifact_digest,
    program_to_json,
    to_canonical_json,
)
from repro.machine.config import CostModel
from repro.machine.machine import Machine
from repro.machine.memory import scalar_codec
from repro.obs.trace import EV_ENTER, EV_EXIT, EV_FRAME
from repro.vm.context import ThreadContext
from repro.vm.interpreter import Interpreter, RunOptions

#: Bumped whenever the translation scheme changes in any way that can
#: affect generated source; part of the disk cache key and kind so
#: stale cached modules are never re-executed.
CODEGEN_VERSION = 1

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

#: Value class of each intrinsic's destination register.
_INTRINSIC_TYPES = {
    "print_int": _INT,
    "print_float": _INT,
    "print_char": _INT,
    "sqrtf": _FLT,
    "fabsf": _FLT,
    "fminf": _FLT,
    "fmaxf": _FLT,
    "iabs": _INT,
    "imin": _INT,
    "imax": _INT,
    "dma_get": _INT,
    "dma_put": _INT,
    "dma_wait": _INT,
    "acc_bulk_get": _INT,
    "acc_bulk_put": _INT,
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
    exec_loads: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    source_chars: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "codegen.translations": self.translations,
            "codegen.fallbacks": self.fallbacks,
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

    changed = True
    while changed:
        changed = False
        for instr in function.code:
            if isinstance(instr, Const):
                t = _FLT if isinstance(instr.value, float) else _INT
                changed |= join(instr.dst, t)
            elif isinstance(instr, Move):
                src_t = types.get(instr.src)
                if src_t is not None:
                    changed |= join(instr.dst, src_t)
            elif isinstance(instr, BinOp):
                if instr.is_compare:
                    t = _INT
                else:
                    t = _FLT if instr.float_op else _INT
                changed |= join(instr.dst, t)
            elif isinstance(instr, UnOp):
                op = instr.op
                if op == "-":
                    t = _FLT if instr.float_op else _INT
                elif op == "itof":
                    t = _FLT
                elif op in ("!", "~", "ftoi") or op.startswith(("sext", "zext")):
                    t = _INT
                else:
                    t = _ANY
                changed |= join(instr.dst, t)
            elif isinstance(instr, Load):
                changed |= join(instr.dst, _FLT if instr.is_float else _INT)
            elif isinstance(instr, (Extract, Insert, FrameAddr, GlobalAddr)):
                changed |= join(instr.dst, _INT)
            elif isinstance(instr, OffloadLaunch):
                changed |= join(instr.dst, _INT)
            elif isinstance(instr, (Call, ICall, DomainCall)):
                changed |= join(instr.dst, _ANY)
            elif isinstance(instr, Intrinsic):
                changed |= join(
                    instr.dst, _INTRINSIC_TYPES.get(instr.name, _ANY)
                )
    return types


#: One emitted statement line: (relative indent, text).
_Lines = list[tuple[int, str]]


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

    # ------------------------------------------------------------ helpers

    def iv(self, reg: int) -> str:
        """Register as an int expression (coercion elided when proven)."""
        if self.types.get(reg, _INT) == _INT:
            return f"r{reg}"
        return f"int(r{reg})"

    def fv(self, reg: int) -> str:
        """Register as a float expression."""
        if self.types.get(reg) == _FLT:
            return f"r{reg}"
        return f"float(r{reg})"

    def _codec_name(self, kind: str, key: tuple[int, bool, bool]) -> str:
        self.needs.add(("codec", key))
        return f"_{kind}_{_codec_suffix(key)}"

    # -------------------------------------------------------------- emit

    def emit(self) -> str:
        fn = self.fn
        code = fn.code
        n = len(code)
        nparams = len(fn.params)
        pyname = self.func_names[fn.name]

        blocks = self._collect_blocks()
        loop_mode = any(isinstance(i, (Jump, CJump)) for i in code)

        body: _Lines = []
        if loop_mode:
            body.append((0, "_pc = 0"))
            body.append((0, "while True:"))
            first = True
            for leader, end, span in blocks:
                body.append((1, f"{'if' if first else 'elif'} _pc == {leader}:"))
                first = False
                block_lines = self._emit_block(leader, end, span, loop_mode=True)
                body.extend((ind + 2, text) for ind, text in block_lines)
            body.append((1, "else:"))
            body.append((2, "break"))
            body.extend(self._exit_lines())
        elif n:
            leader, end, span = blocks[0]
            block_lines = self._emit_block(leader, end, span, loop_mode=False)
            body.extend(block_lines)
            last = code[end - 1] if end else None
            if not isinstance(last, (Ret, Trap)):
                body.extend(self._exit_lines())
        else:
            body.extend(self._exit_lines())

        # Prologue (after the body so the uses_* flags are known).
        params = "".join(f", r{i}" for i in range(nparams))
        lines: _Lines = [(0, f"def {pyname}(eng, ctx{params}):")]
        used = self._used_regs()
        init = sorted(r for r in used if r >= nparams)
        if init:
            lines.append((1, " = ".join(f"r{r}" for r in init) + " = 0"))
        if fn.frame_size:
            lines.append((1, "_stk = ctx.stack"))
            lines.append((1, "_sp0 = _stk.sp"))
            lines.append((1, f"_fb = _stk.push({fn.frame_size})"))
        elif self.uses_fb:
            lines.append((1, "_fb = ctx.stack.sp"))
        lines.append((1, f"ctx.now += {self.cost.call}"))
        lines.append((1, "eng._sc_calls.count += 1"))
        lines.append((1, "_tr = eng._trace"))
        lines.append((1, "if _tr.enabled:"))
        lines.append((2, f"eng._emit_enter(ctx, {fn.name!r})"))
        if self.uses_ls:
            lines.append((1, "_ls = ctx.local_store"))
        if self.uses_chk:
            lines.append((
                1,
                "_chk = eng._chk_discipline and ctx.is_accel"
                " and ctx.core.dma is not None",
            ))
        if self.uses_mm:
            lines.append((1, "_mm = ctx.main_memory"))
        if fn.frame_size:
            lines.append((1, "try:"))
            lines.extend((ind + 2, text) for ind, text in body)
            lines.append((1, "finally:"))
            lines.append((2, "_stk.pop(_sp0)"))
        else:
            lines.extend((ind + 1, text) for ind, text in body)

        return "\n".join("    " * ind + text for ind, text in lines) + "\n"

    def _used_regs(self) -> set[int]:
        used: set[int] = set(range(len(self.fn.params)))
        for instr in self.fn.code:
            for field_name in (
                "dst", "src", "a", "b", "addr", "cond", "word", "value",
                "offset", "func_id", "handle", "src_addr", "dst_addr",
                "size_reg",
            ):
                reg = getattr(instr, field_name, None)
                if isinstance(reg, int) and not isinstance(reg, bool):
                    # Extract/Insert const_offset path leaves offset None;
                    # every register field is a plain int index.
                    used.add(reg)
            args = getattr(instr, "args", None)
            if args:
                used.update(args)
        return used

    def _exit_lines(self) -> _Lines:
        return [
            (0, "if _tr.enabled:"),
            (1, f"eng._emit_exit(ctx, {self.fn.name!r})"),
            (0, "return 0"),
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
                t = fn.labels.get(instr.label)
                if t is not None and 0 <= t < n:
                    targets.add(t)
            elif isinstance(instr, CJump):
                for label in (instr.then_label, instr.else_label):
                    t = fn.labels.get(label)
                    if t is not None and 0 <= t < n:
                        targets.add(t)
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

    def _emit_block(
        self, leader: int, end: int, span: int, loop_mode: bool
    ) -> _Lines:
        code = self.fn.code
        out: _Lines = [
            (0, f"eng._instructions += {span}"),
            (0, "if eng._instructions > eng._budget:"),
            (
                1,
                'raise RuntimeTrap(f"instruction budget exceeded'
                ' ({eng._budget})")',
            ),
        ]
        pending_charge = 0
        pending_lines: _Lines = []

        def flush() -> None:
            nonlocal pending_charge
            if pending_charge:
                out.append((0, f"ctx.now += {pending_charge}"))
                pending_charge = 0
            out.extend(pending_lines)
            pending_lines.clear()

        for index in range(leader, end):
            instr = code[index]
            if isinstance(instr, _TERMINATORS):
                flush()
                out.extend(self._emit_terminator(instr, loop_mode))
                return out
            lines, charge = self._translate(instr)
            if charge is None:
                flush()
                out.extend(lines)
            else:
                pending_charge += charge
                pending_lines.extend(lines)
        flush()
        # Fall-through into the next leader (or off the end).
        if loop_mode:
            if end < len(code):
                out.append((0, f"_pc = {end}"))
                out.append((0, "continue"))
            else:
                out.append((0, "break"))
        return out

    # -------------------------------------------------------- terminators

    def _branch_lines(self, label: str) -> _Lines:
        """Transfer control to ``label`` (charge already emitted)."""
        target = self.fn.labels.get(label)
        n = len(self.fn.code)
        if target is None:
            return [(0, f"raise KeyError({label!r})")]
        if target >= n:
            return [(0, "break")]
        return [(0, f"_pc = {target}"), (0, "continue")]

    def _emit_terminator(self, instr: Instr, loop_mode: bool) -> _Lines:
        cost = self.cost
        if isinstance(instr, Ret):
            value = f"r{instr.src}" if instr.src is not None else "0"
            return [
                (0, f"ctx.now += {cost.ret}"),
                (0, "if _tr.enabled:"),
                (1, f"eng._emit_exit(ctx, {self.fn.name!r})"),
                (0, f"return {value}"),
            ]
        if isinstance(instr, Trap):
            return [(0, f"raise RuntimeTrap({instr.message!r})")]
        if isinstance(instr, Jump):
            out: _Lines = [(0, f"ctx.now += {cost.branch}")]
            if not loop_mode:
                # Only reachable for a jump straight to the exit (any
                # other target would have forced loop mode).
                target = self.fn.labels.get(instr.label)
                if target is None:
                    out.append((0, f"raise KeyError({instr.label!r})"))
                return out
            out.extend(self._branch_lines(instr.label))
            return out
        assert isinstance(instr, CJump)
        out = [(0, f"ctx.now += {cost.branch}")]
        then_t = self.fn.labels.get(instr.then_label)
        else_t = self.fn.labels.get(instr.else_label)
        n = len(self.fn.code)
        plain = (
            then_t is not None and 0 <= then_t < n
            and else_t is not None and 0 <= else_t < n
        )
        if plain and loop_mode:
            out.append((0, f"_pc = {then_t} if r{instr.cond} else {else_t}"))
            out.append((0, "continue"))
            return out
        if not loop_mode:
            raise _Unsupported("CJump outside loop mode")
        out.append((0, f"if r{instr.cond}:"))
        out.extend((ind + 1, text) for ind, text in
                   self._branch_lines(instr.then_label))
        out.append((0, "else:"))
        out.extend((ind + 1, text) for ind, text in
                   self._branch_lines(instr.else_label))
        return out

    # ----------------------------------------------------- instructions

    def _translate(self, instr: Instr) -> tuple[_Lines, Optional[int]]:
        """One straight-line instruction -> source lines + static cycle
        charge (None for clock-observing instructions, which charge
        ``ctx.now`` in their own lines)."""
        cost = self.cost
        alu = cost.alu

        if isinstance(instr, Const):
            return [(0, f"r{instr.dst} = {_literal(instr.value)}")], alu

        if isinstance(instr, Move):
            return [(0, f"r{instr.dst} = r{instr.src}")], alu

        if isinstance(instr, BinOp):
            return self._emit_binop(instr), alu

        if isinstance(instr, UnOp):
            return self._emit_unop(instr), alu

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
            return [(
                0,
                f"eng._copy_values({src_sp}, {dst_sp}, "
                f"{self.iv(instr.src_addr)}, {self.iv(instr.dst_addr)}, "
                f"{size}, ctx)",
            )], None

        if isinstance(instr, Extract):
            return self._emit_extract(instr)

        if isinstance(instr, Insert):
            return self._emit_insert(instr)

        if isinstance(instr, FrameAddr):
            self.uses_fb = True
            expr = f"_fb + {instr.offset}" if instr.offset else "_fb"
            return [(0, f"r{instr.dst} = {expr}")], alu

        if isinstance(instr, GlobalAddr):
            slot = self.program.globals.get(instr.name)
            if slot is None:
                # Unknown global: surface the reference engine's KeyError
                # at execution time, not at codegen time.
                expr = f"eng.program.globals[{instr.name!r}].address"
            else:
                expr = str(slot.address)
            return [(0, f"r{instr.dst} = {expr}")], alu

        if isinstance(instr, Call):
            return self._emit_call(instr), None

        if isinstance(instr, ICall):
            return self._emit_icall(instr), None

        if isinstance(instr, DomainCall):
            args = ", ".join(f"r{a}" for a in instr.args)
            call = (
                f"eng._domain_call_values({instr.offload_id}, "
                f"{instr.duplicate_id!r}, {self.iv(instr.func_id)}, "
                f"[{args}], ctx)"
            )
            if instr.dst is not None:
                call = f"r{instr.dst} = {call}"
            return [(0, call)], None

        if isinstance(instr, Intrinsic):
            return self._emit_intrinsic(instr)

        if isinstance(instr, OffloadLaunch):
            args = ", ".join(f"r{a}" for a in instr.args)
            return [(
                0,
                f"r{instr.dst} = eng._run_offload({instr.offload_id}, "
                f"{instr.entry!r}, [{args}], ctx)",
            )], None

        if isinstance(instr, OffloadJoin):
            return [(
                0, f"eng._join_offload({self.iv(instr.handle)}, ctx)"
            )], None

        # Unknown instruction class: fail at execution time exactly like
        # the reference loop does.
        message = f"unhandled instruction {instr!r}"
        return [(0, f"raise AssertionError({message!r})")], None

    # --------------------------------------------------------- arithmetic

    def _emit_binop(self, instr: BinOp) -> _Lines:
        d, a, b, op = instr.dst, instr.a, instr.b, instr.op
        if instr.is_compare:
            return [(0, f"r{d} = 1 if r{a} {op} r{b} else 0")]
        if instr.float_op:
            fa, fb = self.fv(a), self.fv(b)
            if op == "/":
                return [
                    (0, f"_x = {fa}"),
                    (0, f"_y = {fb}"),
                    (0, "if _y == 0.0:"),
                    (
                        1,
                        f"r{d} = math.inf if _x > 0"
                        " else (-math.inf if _x < 0 else math.nan)",
                    ),
                    (0, "else:"),
                    (1, f"r{d} = _x / _y"),
                ]
            if op in ("+", "-", "*"):
                return [(0, f"r{d} = {fa} {op} {fb}")]
            raise _Unsupported(f"float op {op}")
        ia, ib = self.iv(a), self.iv(b)
        if op in ("+", "-", "*", "&", "|", "^"):
            core = f"{ia} {op} {ib}"
        elif op == "/":
            core = f"_int_div({ia}, {ib})"
        elif op == "%":
            core = f"_int_rem({ia}, {ib})"
        elif op == "<<":
            core = f"{ia} << ({ib} & 31)"
        elif op == ">>":
            if instr.signed:
                core = f"{ia} >> ({ib} & 31)"
            else:
                core = f"({ia} & 0xFFFFFFFF) >> ({ib} & 31)"
        else:
            raise _Unsupported(f"int op {op}")
        if instr.signed:
            return [(
                0,
                f"r{d} = (({core}) + 0x80000000 & 0xFFFFFFFF) - 0x80000000",
            )]
        return [(0, f"r{d} = ({core}) & 0xFFFFFFFF")]

    def _emit_unop(self, instr: UnOp) -> _Lines:
        d, a, op = instr.dst, instr.a, instr.op
        if op == "-":
            if instr.float_op:
                return [(0, f"r{d} = -{self.fv(a)}")]
            return [(
                0,
                f"r{d} = (-{self.iv(a)} + 0x80000000 & 0xFFFFFFFF)"
                " - 0x80000000",
            )]
        if op == "!":
            return [(0, f"r{d} = 0 if r{a} else 1")]
        if op == "~":
            return [(
                0,
                f"r{d} = (~{self.iv(a)} + 0x80000000 & 0xFFFFFFFF)"
                " - 0x80000000",
            )]
        if op == "itof":
            return [(0, f"r{d} = float({self.iv(a)})")]
        if op == "ftoi":
            return [
                (0, f"_x = {self.fv(a)}"),
                (0, "if math.isnan(_x) or math.isinf(_x):"),
                (1, f"r{d} = 0"),
                (0, "else:"),
                (
                    1,
                    f"r{d} = (math.trunc(_x) + 0x80000000 & 0xFFFFFFFF)"
                    " - 0x80000000",
                ),
            ]
        if op in ("sext8", "sext16", "zext8", "zext16"):
            bits = 8 if op.endswith("8") else 16
            mask = (1 << bits) - 1
            if op.startswith("zext"):
                return [(0, f"r{d} = {self.iv(a)} & {mask:#x}")]
            sign_bit = 1 << (bits - 1)
            modulus = 1 << bits
            return [
                (0, f"_v = {self.iv(a)} & {mask:#x}"),
                (0, f"if _v >= {sign_bit}:"),
                (1, f"_v -= {modulus}"),
                (0, f"r{d} = _v"),
            ]
        raise _Unsupported(f"unary op {op}")

    # ------------------------------------------------------------- memory

    def _emit_load(self, instr: Load) -> tuple[_Lines, Optional[int]]:
        d, size = instr.dst, instr.size
        addr = self.iv(instr.addr)
        codec = scalar_codec(*instr.scalar_key)

        if instr.space is AccSpace.OUTER:
            lines: _Lines = [
                (0, "_s = ctx.strategy"),
                (0, "assert _s is not None"),
                (0, f"_data, ctx.now = _s.load({addr}, {size}, ctx.now)"),
                (0, "eng._sc_outer_loads.count += 1"),
                (0, f"eng._sc_outer_read.count += {size}"),
            ]
            if codec is not None:
                up = self._codec_name("up", instr.scalar_key)
                lines.append((0, f"r{d} = {up}(_data)[0]"))
            else:
                lines.append((
                    0,
                    f'r{d} = int.from_bytes(_data, "little",'
                    f" signed={instr.signed})",
                ))
            return lines, None

        if codec is None:
            # Exotic width: defer to the reference helpers wholesale
            # (which charge the clock themselves).
            sp = _SPACE_NAMES[instr.space]
            return [
                (0, f"_data = eng._read_mem({sp}, {addr}, {size}, ctx)"),
                (
                    0,
                    f"r{d} = eng._decode(_data, {instr.signed},"
                    f" {instr.is_float})",
                ),
            ], None

        upf = self._codec_name("upf", instr.scalar_key)
        if instr.space is AccSpace.MAIN:
            self.uses_mm = True
            return [
                (0, f"_a = {addr}"),
                (0, f"if _a < 0 or _a + {size} > _mm.size:"),
                (1, f"_mm.check_bounds(_a, {size})"),
                (0, f"r{d} = {upf}(_mm._data, _a)[0]"),
            ], self.cost.host_mem_access

        self.uses_ls = True
        self.uses_chk = True
        return [
            (0, "if _ls is None:"),
            (
                1,
                'raise RuntimeTrap(f"local-store access on core'
                ' {ctx.name} which has none")',
            ),
            (0, f"_a = {addr}"),
            (0, "if _chk:"),
            (1, "_dma = ctx.core.dma"),
            (1, "if _dma._in_flight:"),
            (2, f"_cf = _dma.pending_local_conflict(_a, {size})"),
            (2, "if _cf is not None:"),
            (
                3,
                'raise RuntimeTrap(f"local store read at {_a:#x} overlaps'
                ' in-flight {_cf.describe()}; missing dma_wait")',
            ),
            (0, f"if _a < 0 or _a + {size} > _ls.size:"),
            (1, f"_ls.check_bounds(_a, {size})"),
            (0, f"r{d} = {upf}(_ls._data, _a)[0]"),
        ], self.cost.local_access

    def _emit_store(self, instr: Store) -> tuple[_Lines, Optional[int]]:
        src, size = instr.src, instr.size
        addr = self.iv(instr.addr)
        is_float = instr.is_float
        key = (size, False, is_float)
        codec = scalar_codec(*key)

        if instr.space is AccSpace.OUTER:
            if is_float:
                if codec is not None:
                    pk = self._codec_name("pk", key)
                    enc = f"_data = {pk}({self.fv(src)})"
                else:
                    enc = f"_data = _I._encode(r{src}, {size}, True)"
            else:
                enc = (
                    f"_data = ({self.iv(src)} & {instr.mask:#x})"
                    f'.to_bytes({size}, "little")'
                )
            return [
                (0, enc),
                (0, "_s = ctx.strategy"),
                (0, "assert _s is not None"),
                (0, f"ctx.now = _s.store({addr}, _data, ctx.now)"),
                (0, "eng._sc_outer_stores.count += 1"),
                (0, f"eng._sc_outer_written.count += {size}"),
            ], None

        if codec is None:
            sp = _SPACE_NAMES[instr.space]
            return [
                (0, f"_data = eng._encode(r{src}, {size}, {is_float})"),
                (0, f"eng._write_mem({sp}, {addr}, _data, ctx)"),
            ], None

        pki = self._codec_name("pki", key)
        value = (
            f"_v = {self.fv(src)}"
            if is_float
            else f"_v = {self.iv(src)} & {instr.mask:#x}"
        )
        if instr.space is AccSpace.MAIN:
            self.uses_mm = True
            return [
                (0, value),
                (0, f"_a = {addr}"),
                (0, f"if _a < 0 or _a + {size} > _mm.size:"),
                (1, f"_mm.check_bounds(_a, {size})"),
                (0, f"{pki}(_mm._data, _a, _v)"),
            ], self.cost.host_mem_access

        self.uses_ls = True
        return [
            (0, value),
            (0, "if _ls is None:"),
            (
                1,
                'raise RuntimeTrap(f"local-store access on core'
                ' {ctx.name} which has none")',
            ),
            (0, f"_a = {addr}"),
            (0, f"if _a < 0 or _a + {size} > _ls.size:"),
            (1, f"_ls.check_bounds(_a, {size})"),
            (0, f"{pki}(_ls._data, _a, _v)"),
        ], self.cost.local_access

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
        args = ", ".join(f"r{a}" for a in instr.args)
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
        return [(0, call)]

    def _emit_icall(self, instr: ICall) -> _Lines:
        self.needs.add(("func_ids", None))
        args = ", ".join(f"r{a}" for a in instr.args)
        call = f"eng._call_by_name(_nm, [{args}], ctx)"
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
            (0, f"ctx.now += {self.cost.vtable_load}"),
            (0, call),
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

        if name in ("print_int", "print_float", "print_char"):
            if name == "print_int":
                conv = self.iv(args[0])
            elif name == "print_float":
                conv = self.fv(args[0])
            else:
                conv = f"chr({self.iv(args[0])} & 0xFF)"
            lines: _Lines = [
                (0, f"eng.output.append((ctx.name, {conv}))"),
            ]
            lines.extend(assign("0"))
            return lines, alu

        if name == "sqrtf":
            lines = [(0, f"_x = {self.fv(args[0])}")]
            lines.extend(
                assign("math.sqrt(_x) if _x >= 0 else math.nan")
            )
            return lines, 4 * alu

        if name == "fabsf":
            return assign(f"abs({self.fv(args[0])})"), alu

        if name == "iabs":
            return assign(
                f"(abs({self.iv(args[0])}) + 0x80000000 & 0xFFFFFFFF)"
                " - 0x80000000"
            ), alu

        if name in ("imin", "imax"):
            pick = "min" if name == "imin" else "max"
            return assign(
                f"{pick}({self.iv(args[0])}, {self.iv(args[1])})"
            ), alu

        if name in ("fminf", "fmaxf"):
            pick = "min" if name == "fminf" else "max"
            return assign(
                f"{pick}({self.fv(args[0])}, {self.fv(args[1])})"
            ), alu

        if name in ("dma_get", "dma_put"):
            verb = "get" if name == "dma_get" else "put"
            lines = [
                (0, "_dma = eng._require_dma(ctx)"),
                (0, f"_l = {self.iv(args[0])}"),
                (0, f"_o = {self.iv(args[1])}"),
                (0, f"_n = {self.iv(args[2])}"),
                (0, f"_t = {self.iv(args[3])}"),
                (0, "if _n <= 0:"),
                (
                    1,
                    f'raise RuntimeTrap(f"{name} with non-positive'
                    ' size {_n}")',
                ),
                (0, f"eng._check_dma_tag({name!r}, _t)"),
                (0, f"ctx.now = _dma.{verb}(_t, _l, _o, _n, ctx.now)"),
            ]
            lines.extend(assign("0"))
            return lines, None

        if name == "dma_wait":
            lines = [
                (0, "_dma = eng._require_dma(ctx)"),
                (0, f"_t = {self.iv(args[0])}"),
                (0, 'eng._check_dma_tag("dma_wait", _t)'),
                (0, "ctx.now = _dma.wait(_t, ctx.now)"),
            ]
            lines.extend(assign("0"))
            return lines, None

        if name in ("acc_bulk_get", "acc_bulk_put"):
            verb = "get" if name == "acc_bulk_get" else "put"
            counters = (
                ("accessor.bulk_gets", "accessor.bytes_in")
                if name == "acc_bulk_get"
                else ("accessor.bulk_puts", "accessor.bytes_out")
            )
            lines = [
                (0, "_dma = eng._require_dma(ctx)"),
                (0, f"_l = {self.iv(args[0])}"),
                (0, f"_o = {self.iv(args[1])}"),
                (0, f"_n = {self.iv(args[2])}"),
                (0, f"ctx.now = _dma.{verb}(_ACC_TAG, _l, _o, _n, ctx.now)"),
                (0, "ctx.now = _dma.wait(_ACC_TAG, ctx.now)"),
                (0, f'ctx.core.perf.add("{counters[0]}")'),
                (0, f'ctx.core.perf.add("{counters[1]}", _n)'),
            ]
            lines.extend(assign("0"))
            return lines, None

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
        "from repro.machine.memory import scalar_codec as _codec",
        "from repro.vm.interpreter import (",
        "    ACCESSOR_TAG as _ACC_TAG,",
        "    Interpreter as _I,",
        "    _int_div,",
        "    _int_rem,",
        ")",
        "",
        "_SP_MAIN = AccSpace.MAIN",
        "_SP_LOCAL = AccSpace.LOCAL",
        "_SP_OUTER = AccSpace.OUTER",
    ]
    codec_keys = sorted(
        key for kind, key in needs if kind == "codec"
    )
    for key in codec_keys:
        size, signed, is_float = key
        sfx = _codec_suffix(key)
        lines.append(f"_c_{sfx} = _codec({size}, {signed}, {is_float})")
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
        self._sc_outer_loads = perf.slot("outer.loads")
        self._sc_outer_read = perf.slot("outer.bytes_read")
        self._sc_outer_stores = perf.slot("outer.stores")
        self._sc_outer_written = perf.slot("outer.bytes_written")
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
            sources, generated, fallbacks = generate_module_units(
                program, self._cost
            )
            stats.translations += generated
            stats.fallbacks += fallbacks
            stats.source_chars = sum(map(len, sources))
            units = tuple(
                compile(source, MODULE_FILENAME, "exec") for source in sources
            )
            if key is not None:
                cache.store_bytes(key, marshal.dumps(units), kind)
            funcs = _exec_units(units)["FUNCTIONS"]
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
