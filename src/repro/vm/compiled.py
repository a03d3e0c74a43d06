"""Closure-compiled execution engine.

The reference interpreter (:mod:`repro.vm.interpreter`) re-decodes every
instruction on every execution: one ``isinstance`` ladder per dispatch,
plus attribute loads on the instruction object, cost-model lookups and a
per-instruction budget check.  That host-side overhead — not the
simulated machine — dominates wall-clock time on large workloads.

This engine performs the decode **once per IR function**: each
instruction is translated into a Python closure with everything the
instruction will ever need pre-bound at translation time — register
indices, operand constants, ``struct.Struct`` scalar codecs, label
targets resolved to instruction indices, resolved callee functions,
global addresses, cost-model constants and memory-space handles.  The
per-instruction closures are then fused per basic block: the function
becomes a flat list ``ops`` aligned with ``code`` in which each block
leader's slot holds one closure that charges the block's budget span and
cycle cost, runs the block body in a tight loop, and returns the next
pc, so the dispatch loop collapses to::

    while 0 <= pc < len(ops):
        pc = ops[pc](frame)

paying its bounds-check-and-index cost once per *block*.  ``frame``
carries only the per-activation state (registers, thread context, frame
base).  The ops list is cached on the
:class:`~repro.ir.module.IRFunction` itself, keyed by the cost model, so
repeated calls and repeated runs pay translation cost once.

Cycle batching: instructions whose cycle charge is a translate-time
constant and which never *observe* the clock (arithmetic, moves, local
and main memory scalar traffic, word extract/insert, print and math
intrinsics) do not touch ``ctx.now`` themselves; the enclosing block
closure adds their summed charge up front, per segment.  Segments break
at every clock-observing instruction (calls, outer-space accesses, DMA
intrinsics, offload launch/join, bulk copies), so the value of
``ctx.now`` at every observation point is exactly the reference
engine's.

Equivalence contract
--------------------

The compiled engine is *cycle-for-cycle and counter-for-counter
identical* to the reference engine: identical printed output, identical
simulated cycle counts, identical perf counters, identical trap
messages.  It achieves this by sharing the reference implementation for
every stateful or complex operation (offload launch/join, domain calls,
DMA intrinsics, bulk copies) and only specialising the hot, pure
instruction bodies.  Differences are limited to host-side mechanics:

* the ``max_instructions`` runaway guard is charged per basic block at
  block entry rather than per instruction (totals are exact for every
  completed block);
* hot counters (``vm.calls``, ``word.extracts`` …) accumulate in
  :class:`~repro.machine.perf.CounterSlot` batches and drain into the
  machine-wide :class:`~repro.machine.perf.PerfCounters` on read.

The differential suite (``tests/test_vm_equivalence.py``) enforces the
contract over every example workload and a randomized IR fuzz corpus.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.errors import RuntimeTrap
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
from repro.machine.machine import Machine
from repro.machine.memory import scalar_codec
from repro.obs.trace import EV_ENTER, EV_EXIT, EV_FRAME
from repro.vm.context import ThreadContext
from repro.vm.interpreter import (
    Interpreter,
    RunOptions,
    _int_div,
    _int_rem,
)

_U32 = 0xFFFFFFFF
_BIAS = 0x80000000

#: An op takes the activation frame and returns the next pc (or -1 to
#: leave the function).
Op = Callable[["_Frame"], int]

#: A translated instruction: the closure plus its cycle charge when that
#: charge is a translate-time constant and the instruction never reads
#: the clock (such closures do NOT touch ``ctx.now`` themselves — the
#: block fusion pass charges them in batches).  ``None`` marks
#: clock-observing instructions, which charge ``ctx.now`` internally.
Translated = tuple[Op, Optional[int]]


class _Frame:
    """Per-activation state threaded through the compiled ops."""

    __slots__ = ("eng", "ctx", "regs", "frame_base", "ls", "chk", "ret")

    def __init__(
        self,
        eng: "CompiledInterpreter",
        ctx: ThreadContext,
        regs: list,
        frame_base: int,
        ls,
        chk: bool,
    ):
        self.eng = eng
        self.ctx = ctx
        self.regs = regs
        self.frame_base = frame_base
        self.ls = ls
        self.chk = chk
        self.ret: object = 0


_TERMINATORS = (Jump, CJump, Ret, Trap)


def _int_binop_fn(op: str, signed: bool) -> Callable[[object, object], int]:
    """A pure value function for the colder integer BinOps."""
    if op == "/":
        base = _int_div
    elif op == "%":
        base = _int_rem
    elif op == "&":
        base = lambda a, b: a & b
    elif op == "|":
        base = lambda a, b: a | b
    elif op == "^":
        base = lambda a, b: a ^ b
    elif op == "<<":
        base = lambda a, b: a << (b & 31)
    elif op == ">>":
        if signed:
            base = lambda a, b: a >> (b & 31)
        else:
            base = lambda a, b: (a & _U32) >> (b & 31)
    else:
        raise AssertionError(f"int op {op}")
    if signed:
        return lambda a, b: ((base(int(a), int(b)) + _BIAS) & _U32) - _BIAS
    return lambda a, b: base(int(a), int(b)) & _U32


class CompiledInterpreter(Interpreter):
    """Drop-in replacement for :class:`Interpreter` with compiled dispatch.

    All lifecycle, offload, domain-dispatch and intrinsic machinery is
    inherited; only the per-instruction execution path is replaced.
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
        # Batched counters for the quantities the dispatch loop itself
        # produces; everything underneath (DMA, caches, dispatch tables)
        # keeps its own accounting.
        self._sc_calls = perf.slot("vm.calls")
        self._sc_extracts = perf.slot("word.extracts")
        self._sc_inserts = perf.slot("word.inserts")
        self._sc_outer_loads = perf.slot("outer.loads")
        self._sc_outer_read = perf.slot("outer.bytes_read")
        self._sc_outer_stores = perf.slot("outer.stores")
        self._sc_outer_written = perf.slot("outer.bytes_written")

    # ------------------------------------------------------------ dispatch

    def _exec_function(
        self, function: IRFunction, args: list[object], ctx: ThreadContext
    ) -> object:
        fdict = function.__dict__
        ops = fdict.get("_cc_ops")
        if ops is None or fdict.get("_cc_cost") is not self._cost:
            ops = self._compile(function)
        regs: list[object] = [0] * max(function.num_regs, len(args))
        regs[: len(args)] = args
        stack = ctx.stack
        saved_sp = stack.sp
        frame_base = (
            stack.push(function.frame_size) if function.frame_size else stack.sp
        )
        ctx.now += self._cost.call
        self._sc_calls.count += 1
        trace = self._trace
        if trace.enabled:
            track = ctx.core.name
            trace.emit(ctx.now, track, EV_ENTER, (function.name,))
            marker = trace.frame_marker
            if marker is not None and function.name.endswith(marker):
                trace.emit(ctx.now, track, EV_FRAME, (function.name,))
        chk = self._chk_discipline and ctx.is_accel and ctx.core.dma is not None
        frame = _Frame(self, ctx, regs, frame_base, ctx.local_store, chk)
        pc = 0
        n = len(ops)
        try:
            while 0 <= pc < n:
                pc = ops[pc](frame)
            # ``ctx.now`` here equals the reference engine's at its exit
            # emit: the Ret op has already charged ``cost.ret``, and a
            # fall-off leaves the clock untouched — so one emit covers
            # both paths with identical stamps.
            if trace.enabled:
                trace.emit(ctx.now, ctx.core.name, EV_EXIT, (function.name,))
            return frame.ret
        finally:
            stack.pop(saved_sp)

    # ----------------------------------------------------------- translation

    def _compile(self, function: IRFunction) -> list[Op]:
        """Translate ``function.code`` into the cached ops list."""
        translated = [
            self._translate(instr, index, function)
            for index, instr in enumerate(function.code)
        ]
        ops = self._fuse_blocks(function, translated)
        function._cc_ops = ops  # type: ignore[attr-defined]
        function._cc_cost = self._cost  # type: ignore[attr-defined]
        return ops

    def _fuse_blocks(
        self, function: IRFunction, translated: list[Translated]
    ) -> list[Op]:
        """Fuse each basic block into one dispatch.

        Leaders are the function entry and every label target; a block's
        span runs to its terminator (or the next leader, for blocks that
        fall through).  Control only ever enters a block at its leader,
        so the leader slot is replaced by one closure that charges the
        block's instruction span against the budget, batch-charges the
        cycle cost of clock-blind instructions per segment (segments
        break at clock-observing instructions, keeping ``ctx.now`` exact
        at every observation point), runs the ops in a tight loop, and
        returns the next pc.  Per-op semantics are untouched — the same
        closures run in the same order, so mid-block traps behave
        identically.
        """
        ops: list[Op] = [op for op, _ in translated]
        code = function.code
        n = len(code)
        if n == 0:
            return ops
        budget = self._budget
        leaders = sorted({0, *(i for i in function.labels.values() if i < n)})
        for pos, leader in enumerate(leaders):
            limit = leaders[pos + 1] if pos + 1 < len(leaders) else n
            end = limit
            for j in range(leader, limit):
                if isinstance(code[j], _TERMINATORS):
                    end = j + 1
                    break
            span = end - leader
            block = translated[leader:end]

            # A clock-observing tail (all control transfers are) runs
            # last and picks the next pc; a clock-blind tail (pure
            # fall-through into the next block) joins the segments and
            # the block exits to the constant fall-through pc.
            tail_op, tail_charge = block[-1]
            if tail_charge is None:
                seq = block[:-1]
                exit_op: Optional[Op] = tail_op
            else:
                seq = block
                exit_op = None
            exit_pc = end

            # Alternating segments: charge the summed cost of a run of
            # clock-blind ops, run them, then run any clock-observing
            # ops (which charge themselves), repeat.
            segments: list[tuple[int, tuple[Op, ...]]] = []
            i = 0
            while i < len(seq):
                charge = 0
                run: list[Op] = []
                while i < len(seq) and seq[i][1] is not None:
                    charge += seq[i][1]  # type: ignore[operator]
                    run.append(seq[i][0])
                    i += 1
                while i < len(seq) and seq[i][1] is None:
                    run.append(seq[i][0])
                    i += 1
                segments.append((charge, tuple(run)))

            if len(segments) == 1 and exit_op is not None:
                charge, body = segments[0]

                def block_op(
                    st: _Frame,
                    body=body,
                    tail=exit_op,
                    charge=charge,
                    span=span,
                ) -> int:
                    eng = st.eng
                    eng._instructions += span
                    if eng._instructions > budget:
                        raise RuntimeTrap(
                            f"instruction budget exceeded ({budget})"
                        )
                    if charge:
                        st.ctx.now += charge
                    for op in body:
                        op(st)
                    return tail(st)

            elif len(segments) <= 1 and exit_op is None:
                charge, body = segments[0] if segments else (0, ())

                def block_op(
                    st: _Frame,
                    body=body,
                    charge=charge,
                    span=span,
                    nxt=exit_pc,
                ) -> int:
                    eng = st.eng
                    eng._instructions += span
                    if eng._instructions > budget:
                        raise RuntimeTrap(
                            f"instruction budget exceeded ({budget})"
                        )
                    if charge:
                        st.ctx.now += charge
                    for op in body:
                        op(st)
                    return nxt

            else:
                segs = tuple(segments)

                def block_op(
                    st: _Frame,
                    segs=segs,
                    tail=exit_op,
                    span=span,
                    nxt=exit_pc,
                ) -> int:
                    eng = st.eng
                    eng._instructions += span
                    if eng._instructions > budget:
                        raise RuntimeTrap(
                            f"instruction budget exceeded ({budget})"
                        )
                    ctx = st.ctx
                    for charge, run in segs:
                        if charge:
                            ctx.now += charge
                        for op in run:
                            op(st)
                    if tail is not None:
                        return tail(st)
                    return nxt

            ops[leader] = block_op
        return ops

    def _translate(
        self, instr: Instr, index: int, function: IRFunction
    ) -> Translated:
        """One instruction -> one fully pre-bound closure plus its
        static cycle charge (None for clock-observing instructions)."""
        cost = self._cost
        nxt = index + 1
        alu = cost.alu

        if isinstance(instr, Const):
            dst, value = instr.dst, instr.value

            def op_const(st: _Frame) -> int:
                st.regs[dst] = value
                return nxt

            return op_const, alu

        if isinstance(instr, Move):
            dst, src = instr.dst, instr.src

            def op_move(st: _Frame) -> int:
                r = st.regs
                r[dst] = r[src]
                return nxt

            return op_move, alu

        if isinstance(instr, BinOp):
            return self._translate_binop(instr, nxt)

        if isinstance(instr, UnOp):
            return self._translate_unop(instr, nxt)

        if isinstance(instr, Load):
            return self._translate_load(instr, nxt)

        if isinstance(instr, Store):
            return self._translate_store(instr, nxt)

        if isinstance(instr, Copy):

            def op_copy(st: _Frame, I=instr) -> int:
                st.eng._exec_copy(I, st.regs, st.ctx)
                return nxt

            return op_copy, None

        if isinstance(instr, Extract):
            return self._translate_extract(instr, nxt)

        if isinstance(instr, Insert):
            return self._translate_insert(instr, nxt)

        if isinstance(instr, FrameAddr):
            dst, offset = instr.dst, instr.offset

            def op_frameaddr(st: _Frame) -> int:
                st.regs[dst] = st.frame_base + offset
                return nxt

            return op_frameaddr, alu

        if isinstance(instr, GlobalAddr):
            dst = instr.dst
            slot = self.program.globals.get(instr.name)
            if slot is None:
                # Unknown global: defer so the failure surfaces at
                # execution time with the reference engine's KeyError.
                def op_globaladdr_missing(st: _Frame, name=instr.name) -> int:
                    st.regs[dst] = st.eng.program.globals[name].address
                    return nxt

                return op_globaladdr_missing, alu
            address = slot.address

            def op_globaladdr(st: _Frame) -> int:
                st.regs[dst] = address
                return nxt

            return op_globaladdr, alu

        if isinstance(instr, Jump):
            branch = cost.branch
            target = function.labels.get(instr.label)
            if target is None:

                def op_jump_missing(st: _Frame, label=instr.label) -> int:
                    st.ctx.now += branch
                    raise KeyError(label)

                return op_jump_missing, None

            def op_jump(st: _Frame, target=target) -> int:
                st.ctx.now += branch
                return target

            return op_jump, None

        if isinstance(instr, CJump):
            branch = cost.branch
            cond = instr.cond
            then_target = function.labels.get(instr.then_label)
            else_target = function.labels.get(instr.else_label)
            if then_target is None or else_target is None:

                def op_cjump_missing(
                    st: _Frame, I=instr, labels=function.labels
                ) -> int:
                    st.ctx.now += branch
                    target = I.then_label if st.regs[I.cond] else I.else_label
                    return labels[target]

                return op_cjump_missing, None

            def op_cjump(st: _Frame) -> int:
                st.ctx.now += branch
                return then_target if st.regs[cond] else else_target

            return op_cjump, None

        if isinstance(instr, Call):
            return self._translate_call(instr, nxt)

        if isinstance(instr, ICall):
            return self._translate_icall(instr, nxt)

        if isinstance(instr, DomainCall):
            dst = instr.dst

            def op_domaincall(st: _Frame, I=instr) -> int:
                value = st.eng._exec_domain_call(I, st.regs, st.ctx)
                if dst is not None:
                    st.regs[dst] = value
                return nxt

            return op_domaincall, None

        if isinstance(instr, Intrinsic):
            return self._translate_intrinsic(instr, nxt)

        if isinstance(instr, Ret):
            ret_cost = cost.ret
            src = instr.src
            if src is None:

                def op_ret_void(st: _Frame) -> int:
                    st.ctx.now += ret_cost
                    st.ret = 0
                    return -1

                return op_ret_void, None

            def op_ret(st: _Frame) -> int:
                st.ctx.now += ret_cost
                st.ret = st.regs[src]
                return -1

            return op_ret, None

        if isinstance(instr, OffloadLaunch):
            dst = instr.dst

            def op_launch(st: _Frame, I=instr) -> int:
                st.regs[dst] = st.eng._launch_offload(I, st.regs, st.ctx)
                return nxt

            return op_launch, None

        if isinstance(instr, OffloadJoin):
            handle = instr.handle

            def op_join(st: _Frame) -> int:
                st.eng._join_offload(int(st.regs[handle]), st.ctx)
                return nxt

            return op_join, None

        if isinstance(instr, Trap):
            message = instr.message

            def op_trap(st: _Frame) -> int:
                raise RuntimeTrap(message)

            return op_trap, None

        # Unknown instruction class: fail exactly like the reference loop.
        def op_unhandled(st: _Frame, I=instr) -> int:
            raise AssertionError(f"unhandled instruction {I!r}")

        return op_unhandled, None

    # ------------------------------------------------------------ arithmetic

    def _translate_binop(self, instr: BinOp, nxt: int) -> Translated:
        alu = self._cost.alu
        dst, a, b = instr.dst, instr.a, instr.b
        op = instr.op
        if instr.is_compare:
            if op == "==":

                def op_eq(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = 1 if r[a] == r[b] else 0
                    return nxt

                return op_eq, alu
            if op == "!=":

                def op_ne(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = 1 if r[a] != r[b] else 0
                    return nxt

                return op_ne, alu
            if op == "<":

                def op_lt(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = 1 if r[a] < r[b] else 0
                    return nxt

                return op_lt, alu
            if op == "<=":

                def op_le(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = 1 if r[a] <= r[b] else 0
                    return nxt

                return op_le, alu
            if op == ">":

                def op_gt(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = 1 if r[a] > r[b] else 0
                    return nxt

                return op_gt, alu

            def op_ge(st: _Frame) -> int:
                r = st.regs
                r[dst] = 1 if r[a] >= r[b] else 0
                return nxt

            return op_ge, alu

        if instr.float_op:
            if op == "+":

                def op_fadd(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = float(r[a]) + float(r[b])
                    return nxt

                return op_fadd, alu
            if op == "-":

                def op_fsub(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = float(r[a]) - float(r[b])
                    return nxt

                return op_fsub, alu
            if op == "*":

                def op_fmul(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = float(r[a]) * float(r[b])
                    return nxt

                return op_fmul, alu
            if op == "/":

                def op_fdiv(st: _Frame) -> int:
                    r = st.regs
                    fa, fb = float(r[a]), float(r[b])
                    if fb == 0.0:
                        r[dst] = (
                            math.inf if fa > 0
                            else (-math.inf if fa < 0 else math.nan)
                        )
                    else:
                        r[dst] = fa / fb
                    return nxt

                return op_fdiv, alu
            raise AssertionError(f"float op {op}")

        if op == "+":
            if instr.signed:

                def op_adds(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = (
                        (int(r[a]) + int(r[b]) + _BIAS) & _U32
                    ) - _BIAS
                    return nxt

                return op_adds, alu

            def op_addu(st: _Frame) -> int:
                r = st.regs
                r[dst] = (int(r[a]) + int(r[b])) & _U32
                return nxt

            return op_addu, alu
        if op == "-":
            if instr.signed:

                def op_subs(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = (
                        (int(r[a]) - int(r[b]) + _BIAS) & _U32
                    ) - _BIAS
                    return nxt

                return op_subs, alu

            def op_subu(st: _Frame) -> int:
                r = st.regs
                r[dst] = (int(r[a]) - int(r[b])) & _U32
                return nxt

            return op_subu, alu
        if op == "*":
            if instr.signed:

                def op_muls(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = (
                        (int(r[a]) * int(r[b]) + _BIAS) & _U32
                    ) - _BIAS
                    return nxt

                return op_muls, alu

            def op_mulu(st: _Frame) -> int:
                r = st.regs
                r[dst] = (int(r[a]) * int(r[b])) & _U32
                return nxt

            return op_mulu, alu

        value_fn = _int_binop_fn(op, instr.signed)

        def op_int(st: _Frame) -> int:
            r = st.regs
            r[dst] = value_fn(r[a], r[b])
            return nxt

        return op_int, alu

    def _translate_unop(self, instr: UnOp, nxt: int) -> Translated:
        alu = self._cost.alu
        dst, a = instr.dst, instr.a
        op = instr.op
        if op == "-":
            if instr.float_op:

                def op_fneg(st: _Frame) -> int:
                    r = st.regs
                    r[dst] = -float(r[a])
                    return nxt

                return op_fneg, alu

            def op_neg(st: _Frame) -> int:
                r = st.regs
                r[dst] = ((-int(r[a]) + _BIAS) & _U32) - _BIAS
                return nxt

            return op_neg, alu
        if op == "!":

            def op_not(st: _Frame) -> int:
                r = st.regs
                r[dst] = 0 if r[a] else 1
                return nxt

            return op_not, alu
        if op == "~":

            def op_inv(st: _Frame) -> int:
                r = st.regs
                r[dst] = ((~int(r[a]) + _BIAS) & _U32) - _BIAS
                return nxt

            return op_inv, alu
        if op == "itof":

            def op_itof(st: _Frame) -> int:
                r = st.regs
                r[dst] = float(int(r[a]))
                return nxt

            return op_itof, alu
        if op == "ftoi":

            def op_ftoi(st: _Frame) -> int:
                r = st.regs
                f = float(r[a])
                if math.isnan(f) or math.isinf(f):
                    r[dst] = 0
                else:
                    r[dst] = ((math.trunc(f) + _BIAS) & _U32) - _BIAS
                return nxt

            return op_ftoi, alu
        if op in ("sext8", "sext16", "zext8", "zext16"):
            bits = 8 if op.endswith("8") else 16
            mask = (1 << bits) - 1
            sign_bit = 1 << (bits - 1)
            modulus = 1 << bits
            if op.startswith("sext"):

                def op_sext(st: _Frame) -> int:
                    r = st.regs
                    value = int(r[a]) & mask
                    if value >= sign_bit:
                        value -= modulus
                    r[dst] = value
                    return nxt

                return op_sext, alu

            def op_zext(st: _Frame) -> int:
                r = st.regs
                r[dst] = int(r[a]) & mask
                return nxt

            return op_zext, alu
        raise AssertionError(f"unary op {op}")

    # --------------------------------------------------------------- memory

    def _translate_load(self, instr: Load, nxt: int) -> Translated:
        dst, addr_reg, size = instr.dst, instr.addr, instr.size
        space = instr.space
        codec = scalar_codec(*instr.scalar_key)

        if space is AccSpace.OUTER:
            if codec is not None:
                unpack = codec.unpack

                def decode(data: bytes) -> object:
                    return unpack(data)[0]

            else:
                signed = instr.signed

                def decode(data: bytes) -> object:
                    return int.from_bytes(data, "little", signed=signed)

            def op_load_outer(st: _Frame) -> int:
                ctx = st.ctx
                strategy = ctx.strategy
                assert strategy is not None
                data, ctx.now = strategy.load(
                    int(st.regs[addr_reg]), size, ctx.now
                )
                eng = st.eng
                eng._sc_outer_loads.count += 1
                eng._sc_outer_read.count += size
                st.regs[dst] = decode(data)
                return nxt

            return op_load_outer, None

        if codec is None:
            # Exotic width: defer to the reference helpers wholesale
            # (which charge the clock themselves).
            def op_load_generic(st: _Frame, I=instr) -> int:
                eng = st.eng
                data = eng._read_mem(
                    I.space, int(st.regs[I.addr]), I.size, st.ctx
                )
                st.regs[I.dst] = eng._decode(data, I.signed, I.is_float)
                return nxt

            return op_load_generic, None

        unpack_from = codec.unpack_from

        if space is AccSpace.MAIN:

            def op_load_main(st: _Frame) -> int:
                mem = st.ctx.main_memory
                addr = int(st.regs[addr_reg])
                if addr < 0 or addr + size > mem.size:
                    mem.check_bounds(addr, size)
                st.regs[dst] = unpack_from(mem._data, addr)[0]
                return nxt

            return op_load_main, self._cost.host_mem_access

        def op_load_local(st: _Frame) -> int:
            mem = st.ls
            if mem is None:
                raise RuntimeTrap(
                    f"local-store access on core {st.ctx.name} which has none"
                )
            addr = int(st.regs[addr_reg])
            if st.chk:
                dma = st.ctx.core.dma
                if dma._in_flight:
                    conflict = dma.pending_local_conflict(addr, size)
                    if conflict is not None:
                        raise RuntimeTrap(
                            f"local store read at {addr:#x} overlaps "
                            f"in-flight {conflict.describe()}; missing dma_wait"
                        )
            if addr < 0 or addr + size > mem.size:
                mem.check_bounds(addr, size)
            st.regs[dst] = unpack_from(mem._data, addr)[0]
            return nxt

        return op_load_local, self._cost.local_access

    def _translate_store(self, instr: Store, nxt: int) -> Translated:
        src, addr_reg, size = instr.src, instr.addr, instr.size
        space = instr.space
        is_float = instr.is_float
        mask = instr.mask
        codec = scalar_codec(size, False, is_float)

        if space is AccSpace.OUTER:
            if is_float:
                if codec is not None:
                    pack = codec.pack

                    def encode(value: object) -> bytes:
                        return pack(float(value))

                else:

                    def encode(value: object) -> bytes:
                        return Interpreter._encode(value, size, True)

            else:

                def encode(value: object) -> bytes:
                    return (int(value) & mask).to_bytes(size, "little")

            def op_store_outer(st: _Frame) -> int:
                ctx = st.ctx
                data = encode(st.regs[src])
                strategy = ctx.strategy
                assert strategy is not None
                ctx.now = strategy.store(int(st.regs[addr_reg]), data, ctx.now)
                eng = st.eng
                eng._sc_outer_stores.count += 1
                eng._sc_outer_written.count += size
                return nxt

            return op_store_outer, None

        if codec is None:

            def op_store_generic(st: _Frame, I=instr) -> int:
                eng = st.eng
                data = eng._encode(st.regs[I.src], I.size, I.is_float)
                eng._write_mem(I.space, int(st.regs[I.addr]), data, st.ctx)
                return nxt

            return op_store_generic, None

        pack_into = codec.pack_into

        if space is AccSpace.MAIN:
            access = self._cost.host_mem_access
            if is_float:

                def op_fstore_main(st: _Frame) -> int:
                    value = float(st.regs[src])
                    mem = st.ctx.main_memory
                    addr = int(st.regs[addr_reg])
                    if addr < 0 or addr + size > mem.size:
                        mem.check_bounds(addr, size)
                    pack_into(mem._data, addr, value)
                    return nxt

                return op_fstore_main, access

            def op_store_main(st: _Frame) -> int:
                value = int(st.regs[src]) & mask
                mem = st.ctx.main_memory
                addr = int(st.regs[addr_reg])
                if addr < 0 or addr + size > mem.size:
                    mem.check_bounds(addr, size)
                pack_into(mem._data, addr, value)
                return nxt

            return op_store_main, access

        access = self._cost.local_access
        if is_float:

            def op_fstore_local(st: _Frame) -> int:
                value = float(st.regs[src])
                mem = st.ls
                if mem is None:
                    raise RuntimeTrap(
                        f"local-store access on core {st.ctx.name} "
                        f"which has none"
                    )
                addr = int(st.regs[addr_reg])
                if addr < 0 or addr + size > mem.size:
                    mem.check_bounds(addr, size)
                pack_into(mem._data, addr, value)
                return nxt

            return op_fstore_local, access

        def op_store_local(st: _Frame) -> int:
            value = int(st.regs[src]) & mask
            mem = st.ls
            if mem is None:
                raise RuntimeTrap(
                    f"local-store access on core {st.ctx.name} which has none"
                )
            addr = int(st.regs[addr_reg])
            if addr < 0 or addr + size > mem.size:
                mem.check_bounds(addr, size)
            pack_into(mem._data, addr, value)
            return nxt

        return op_store_local, access

    # ------------------------------------------------------------ sub-word

    def _translate_extract(self, instr: Extract, nxt: int) -> Translated:
        dst, word_reg = instr.dst, instr.word
        mask, sign_bit, modulus = instr.mask, instr.sign_bit, instr.modulus
        signed = instr.signed
        if instr.const_offset is not None:
            shift = 8 * instr.const_offset

            def op_extract_const(st: _Frame) -> int:
                r = st.regs
                value = (int(r[word_reg]) >> shift) & mask
                if signed and value >= sign_bit:
                    value -= modulus
                r[dst] = value
                st.eng._sc_extracts.count += 1
                return nxt

            return op_extract_const, self._cost.word_extract

        offset_reg = instr.offset

        def op_extract_var(st: _Frame) -> int:
            r = st.regs
            value = (int(r[word_reg]) >> (8 * int(r[offset_reg]))) & mask
            if signed and value >= sign_bit:
                value -= modulus
            r[dst] = value
            st.eng._sc_extracts.count += 1
            return nxt

        return op_extract_var, 2 * self._cost.word_extract

    def _translate_insert(self, instr: Insert, nxt: int) -> Translated:
        dst, word_reg, value_reg = instr.dst, instr.word, instr.value
        mask = instr.mask
        if instr.const_offset is not None:
            shift = 8 * instr.const_offset
            shifted_mask = mask << shift

            def op_insert_const(st: _Frame) -> int:
                r = st.regs
                merged = (int(r[word_reg]) & ~shifted_mask) | (
                    (int(r[value_reg]) & mask) << shift
                )
                r[dst] = merged & _U32
                st.eng._sc_inserts.count += 1
                return nxt

            return op_insert_const, self._cost.word_extract

        offset_reg = instr.offset

        def op_insert_var(st: _Frame) -> int:
            r = st.regs
            shift = 8 * int(r[offset_reg])
            merged = (int(r[word_reg]) & ~(mask << shift)) | (
                (int(r[value_reg]) & mask) << shift
            )
            r[dst] = merged & _U32
            st.eng._sc_inserts.count += 1
            return nxt

        return op_insert_var, 2 * self._cost.word_extract

    # ---------------------------------------------------------------- calls

    def _translate_call(self, instr: Call, nxt: int) -> Translated:
        dst = instr.dst
        args = tuple(instr.args)
        callee = self.program.functions.get(instr.callee)
        if callee is None:
            # Unknown callee: fail at execution time with the reference
            # engine's KeyError from program.function().
            def op_call_missing(st: _Frame, name=instr.callee) -> int:
                eng = st.eng
                value = eng._exec_function(
                    eng.program.function(name),
                    [st.regs[a] for a in args],
                    st.ctx,
                )
                if dst is not None:
                    st.regs[dst] = value
                return nxt

            return op_call_missing, None

        if dst is None:

            def op_call_void(st: _Frame) -> int:
                r = st.regs
                st.eng._exec_function(callee, [r[a] for a in args], st.ctx)
                return nxt

            return op_call_void, None

        def op_call(st: _Frame) -> int:
            r = st.regs
            r[dst] = st.eng._exec_function(
                callee, [r[a] for a in args], st.ctx
            )
            return nxt

        return op_call, None

    def _translate_icall(self, instr: ICall, nxt: int) -> Translated:
        dst = instr.dst
        args = tuple(instr.args)
        fid_reg = instr.func_id
        vtable_load = self._cost.vtable_load
        function_ids = self.program.function_ids

        def op_icall(st: _Frame) -> int:
            r = st.regs
            fid = int(r[fid_reg])
            name = function_ids.get(fid)
            if name is None:
                raise RuntimeTrap(
                    f"indirect call through bad function id {fid:#x}"
                )
            ctx = st.ctx
            ctx.now += vtable_load
            eng = st.eng
            value = eng._exec_function(
                eng.program.function(name), [r[a] for a in args], ctx
            )
            if dst is not None:
                r[dst] = value
            return nxt

        return op_icall, None

    # ------------------------------------------------------------ intrinsics

    def _translate_intrinsic(self, instr: Intrinsic, nxt: int) -> Translated:
        name = instr.name
        dst = instr.dst
        args = tuple(instr.args)
        alu = self._cost.alu

        if name in ("print_int", "print_float", "print_char"):
            a0 = args[0]
            conv = {
                "print_int": int,
                "print_float": float,
                "print_char": lambda v: chr(int(v) & 0xFF),
            }[name]

            def op_print(st: _Frame) -> int:
                ctx = st.ctx
                st.eng.output.append((ctx.name, conv(st.regs[a0])))
                if dst is not None:
                    st.regs[dst] = 0
                return nxt

            return op_print, alu

        if name == "sqrtf":
            a0 = args[0]

            def op_sqrtf(st: _Frame) -> int:
                value = float(st.regs[a0])
                result = math.sqrt(value) if value >= 0 else math.nan
                if dst is not None:
                    st.regs[dst] = result
                return nxt

            return op_sqrtf, 4 * alu

        if name == "fabsf":
            a0 = args[0]

            def op_fabsf(st: _Frame) -> int:
                result = abs(float(st.regs[a0]))
                if dst is not None:
                    st.regs[dst] = result
                return nxt

            return op_fabsf, alu

        if name == "iabs":
            a0 = args[0]

            def op_iabs(st: _Frame) -> int:
                result = ((abs(int(st.regs[a0])) + _BIAS) & _U32) - _BIAS
                if dst is not None:
                    st.regs[dst] = result
                return nxt

            return op_iabs, alu

        if name in ("imin", "imax"):
            a0, a1 = args
            pick = min if name == "imin" else max

            def op_iminmax(st: _Frame) -> int:
                r = st.regs
                result = pick(int(r[a0]), int(r[a1]))
                if dst is not None:
                    r[dst] = result
                return nxt

            return op_iminmax, alu

        if name in ("fminf", "fmaxf"):
            a0, a1 = args
            pick = min if name == "fminf" else max

            def op_fminmax(st: _Frame) -> int:
                r = st.regs
                result = pick(float(r[a0]), float(r[a1]))
                if dst is not None:
                    r[dst] = result
                return nxt

            return op_fminmax, alu

        # DMA / accessor intrinsics and anything else: the reference
        # implementation is the single source of truth (and charges the
        # clock itself).
        def op_intrinsic(st: _Frame, I=instr) -> int:
            value = st.eng._exec_intrinsic(I, st.regs, st.ctx)
            if dst is not None:
                st.regs[dst] = value
            return nxt

        return op_intrinsic, None


def clear_compiled_cache(function: IRFunction) -> None:
    """Drop the cached ops of ``function`` (after mutating its code)."""
    function.__dict__.pop("_cc_ops", None)
    function.__dict__.pop("_cc_cost", None)


def warm_translations(
    program: IRProgram,
    machine: Machine,
    options: Optional[RunOptions] = None,
    engine: str = "compiled",
    cache=None,
    digest: Optional[str] = None,
) -> int:
    """Translate every function of ``program`` ahead of execution.

    Serving workloads that load a cached artifact
    (:mod:`repro.compiler.cache`) and then field many requests against
    it can pay the IR -> translation cost at load time instead of on
    each function's first call.  The translations are cached on the
    program objects themselves (keyed by cost model), so every
    subsequent ``run_program`` of this program object on a machine with
    the same cost model reuses them.

    Args:
        engine: ``"compiled"`` warms the closure translations,
            ``"codegen"`` the generated module (loading cached code
            objects from ``cache`` / ``REPRO_COMPILE_CACHE`` when
            available, in which case neither codegen nor ``compile()``
            runs at all) and ``"all"`` warms both.
        cache: Optional :class:`repro.compiler.cache.CompileCache` the
            codegen warm-up should consult before translating.
        digest: Optional ``cache.artifact_digest(key)`` of the artifact
            ``program`` was just stored to or loaded from, unmodified;
            spares the codegen cache key a serialization of the program
            (:func:`repro.vm.codegen.codegen_cache_key`).

    Returns the number of functions that actually needed translating
    (0 when the program is already warm for this cost model — for the
    codegen engine that includes a module served from the compile cache).
    """
    if engine not in ("compiled", "codegen", "all"):
        raise ValueError(
            f"unknown warm_translations engine {engine!r};"
            " known: 'compiled', 'codegen', 'all'"
        )
    run_options = options or RunOptions()
    # No race checkers: these engine instances only translate, and must
    # not leave observers attached to the machine's DMA engines.
    warm_options = RunOptions(
        racecheck=None,
        check_dma_discipline=run_options.check_dma_discipline,
        max_instructions=run_options.max_instructions,
        engine="compiled",
    )
    translated = 0
    if engine in ("compiled", "all"):
        warm = CompiledInterpreter(program, machine, warm_options)
        for function in program.functions.values():
            fdict = function.__dict__
            if (
                fdict.get("_cc_ops") is None
                or fdict.get("_cc_cost") is not warm._cost
            ):
                warm._compile(function)
                translated += 1
    if engine in ("codegen", "all"):
        from repro.vm.codegen import CodegenInterpreter

        warm = CodegenInterpreter(program, machine, warm_options)
        warm._ensure_module(cache=cache, digest=digest)
        translated += warm.codegen_stats.translations
    return translated
