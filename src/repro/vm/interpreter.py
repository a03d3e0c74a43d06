"""The IR interpreter with the machine cost model.

Executes a compiled :class:`repro.ir.IRProgram` on a
:class:`repro.machine.Machine`.  Every instruction charges simulated
cycles to the executing thread; memory instructions route through the
right memory space (and, for cross-space outer accesses, through the
offload's transfer strategy).  Offload launches run the accelerator
thread to completion eagerly — one legal interleaving of the real
concurrency — while clock arithmetic models the overlap, so joins see
``max(host time, accelerator finish time)`` exactly as in Figure 2.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.diagnostics import Finding
from repro.errors import MachineError, MissingDuplicateError, RuntimeTrap
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
from repro.ir.module import DATA_BASE, IRFunction, IRProgram

# Generated modules, the ones in disk caches included, import
# ``_int_div`` / ``_int_rem`` from this module.
from repro.ir.ops import BINOPS, INTRINSICS, SCALARS, UNOPS, _int_div, _int_rem  # noqa: F401
from repro.machine.config import MachineConfig, resolve_target
from repro.machine.cores import AcceleratorCore
from repro.machine.dma import GET, NUM_TAGS, PUT, RACECHECK_MODES
from repro.machine.machine import Machine
from repro.obs.trace import (
    EV_CODE_UPLOAD,
    EV_ENTER,
    EV_EXIT,
    EV_FRAME,
    EV_OFFLOAD_BEGIN,
    EV_OFFLOAD_END,
    EV_OFFLOAD_JOIN,
    EV_OFFLOAD_LAUNCH,
)
from repro.runtime.dispatch import HIT_FIELDS
from repro.sched.scheduler import OffloadScheduler, SchedOptions, SchedStats
from repro.vm.context import RAW_TAG, FrameStack, ThreadContext, build_strategy

#: Default size of the host call stack carved out of main memory.
HOST_STACK_BYTES = 1 << 20

#: Offset applied to the host stack base so that stack addresses do not
#: systematically alias the low data segment in direct-mapped software
#: caches (the heap base is a large power of two, which would otherwise
#: pin every captured variable onto cache slot 0 alongside the vtables).
STACK_COLOR_OFFSET = 17 * 128

#: DMA tag used by accessor bulk transfers.
ACCESSOR_TAG = 28

_U32 = 0xFFFFFFFF

#: How each print intrinsic renders its argument.
PRINTS = {
    "print_int": int,
    "print_float": float,
    "print_char": lambda value: chr(int(value) & 0xFF),
}

#: Every execution engine ``make_interpreter`` knows how to build.
#: ``"reference"`` is the decode loop in this module and ``"codegen"``
#: the source-generating engine (:mod:`repro.vm.codegen`).  The two
#: are cycle- and counter-identical; only host wall-clock differs.
ENGINE_NAMES = ("codegen", "reference")

#: Execution engine used when :class:`RunOptions` does not name one.
#: Overridable for a whole process via ``REPRO_VM_ENGINE``.
DEFAULT_ENGINE = os.environ.get("REPRO_VM_ENGINE", "codegen")


def validate_engine(engine: str, source: str = "engine") -> str:
    """Reject unknown engine names with a list of the known ones.

    Shared by :class:`RunOptions`, the CLI tools and the
    ``REPRO_VM_ENGINE`` environment override so a typo fails at
    option-parse time instead of deep inside the VM.
    """
    if engine not in ENGINE_NAMES:
        known = ", ".join(repr(name) for name in ENGINE_NAMES)
        raise ValueError(
            f"unknown execution engine {engine!r} (from {source}); "
            f"known engines: {known}"
        )
    return engine


@dataclass
class RunOptions:
    """Execution knobs.

    Attributes:
        racecheck: The race-check mode of every accelerator's DMA
            engine for this run (:attr:`repro.machine.dma.DmaEngine.racecheck`):
            ``"raise"`` aborts on the first race, ``"record"`` collects
            them on the result, None disables checking.  Any other
            value is rejected at construction time.  Local-store reads
            that overlap a DMA get still in flight (read-before-wait
            bugs) trap in every mode.
        max_instructions: Runaway-program guard.  The reference engine
            checks it per instruction; the codegen engine at basic-block
            granularity (so a runaway program may execute up to one block
            past the budget before trapping).
        engine: ``"codegen"`` (generated Python source, the default)
            or ``"reference"`` (the decode loop).  None picks
            :data:`DEFAULT_ENGINE`.  Unknown names are rejected at
            construction time.
        sched: Explicit scheduling configuration
            (:class:`repro.sched.scheduler.SchedOptions`): placement
            policy, bounded ready queues, upload modelling and the
            ``sched.*`` trace lane.  ``None`` (the default) is compat
            mode — greedy placement with cycle- and trace-identical
            behaviour to the scheduler-less VM.
        target: Machine to build when :func:`run_program` is called
            without one — a registered target name
            (:func:`repro.machine.config.resolve_target`) or a
            :class:`~repro.machine.config.MachineConfig`.  Unknown
            names are rejected at construction time with the known-name
            list, like ``engine``.  ``None`` falls back to the
            program's own ``target_name``.  Ignored when the caller
            supplies a machine.
    """

    racecheck: Optional[str] = "raise"
    max_instructions: int = 200_000_000
    engine: Optional[str] = None
    sched: Optional[SchedOptions] = None
    target: "Optional[str | MachineConfig]" = None

    def __post_init__(self) -> None:
        if self.racecheck not in RACECHECK_MODES:
            raise ValueError(
                f"RunOptions.racecheck must be 'raise', 'record' or None, "
                f"got {self.racecheck!r}"
            )
        if self.engine is not None:
            validate_engine(self.engine, source="RunOptions.engine")
        if self.target is not None:
            resolve_target(self.target, source="RunOptions.target")


@dataclass
class Handle:
    """A launched offload thread."""

    offload_id: int
    accel_index: int
    finish_time: int
    joined: bool = False


@dataclass
class RunResult:
    """Outcome of one program execution."""

    return_value: object
    output: list[tuple[str, object]] = field(default_factory=list)
    cycles: int = 0
    host_cycles: int = 0
    machine: Optional[Machine] = None
    races: list = field(default_factory=list)
    #: Scheduler utilization accounting (collected in every mode).
    sched: Optional[SchedStats] = None
    #: Runtime diagnostics, e.g. ``W-offload-unjoined`` for handles
    #: that were never joined (:class:`repro.analysis.diagnostics.Finding`).
    diagnostics: list = field(default_factory=list)
    #: Simulated instructions retired (identical across engines; the
    #: codegen engine counts per executed block).
    instructions: int = 0

    @property
    def printed(self) -> list[object]:
        """Just the printed values, in order."""
        return [value for _, value in self.output]

    def perf(self) -> dict[str, int]:
        assert self.machine is not None
        return self.machine.perf.as_dict()


def static_image(program: IRProgram) -> tuple[int, bytes]:
    """``(base, bytes)`` of the program's static data region,
    ``[DATA_BASE, data_end)`` widened to cover every ``init_image``
    entry: the image written over zeros.  Built once per program
    object."""
    cached = program.__dict__.get("_static_image")
    if cached is None:
        image = program.init_image
        base = min([DATA_BASE, *(address for address, _ in image)])
        end = max([program.data_end, *(a + len(data) for a, data in image)])
        blob = bytearray(max(0, end - base))
        for address, data in image:
            blob[address - base:address - base + len(data)] = data
        cached = program._static_image = (base, bytes(blob))  # type: ignore[attr-defined]
    return cached


class Interpreter:
    """Executes one program on one machine."""

    def __init__(
        self,
        program: IRProgram,
        machine: Machine,
        options: Optional[RunOptions] = None,
    ):
        if program.target_name != machine.config.name:
            raise MachineError(
                f"program compiled for {program.target_name!r} cannot run "
                f"on machine {machine.config.name!r}"
            )
        self.program = program
        self.machine = machine
        self.options = options or RunOptions()
        #: Pre-bound event sink; attach a recorder to the machine
        #: (``Machine.attach_trace``) *before* building the engine.
        self._trace = machine.trace
        #: Pre-bound metrics sink (``Machine.attach_metrics``).
        self._metrics = machine.metrics
        self.output: list[tuple[str, object]] = []
        self.handles: list[Handle] = []
        self._instructions = 0
        #: Every offload launch routes through the scheduler; with
        #: ``options.sched`` unset it reproduces the legacy greedy
        #: behaviour exactly (no sched events, no upload costs).
        self._sched = OffloadScheduler(
            program, machine, self.options.sched, self._trace
        )
        #: Alias of the scheduler's per-accelerator availability list.
        self._accel_available = self._sched.available
        #: (accelerator index, function name) pairs whose code has been
        #: uploaded on demand; persists across offload launches because
        #: a loaded code image stays resident on the core.
        self._resident_code: set[tuple[int, str]] = set()
        #: Counter slots for the hot paths both engines share.
        perf = machine.perf
        self._sc_outer_loads = perf.slot("outer.loads")
        self._sc_outer_read = perf.slot("outer.bytes_read")
        self._sc_outer_stores = perf.slot("outer.stores")
        self._sc_outer_written = perf.slot("outer.bytes_written")
        self._sc_vcalls = perf.slot("dispatch.vcalls")
        self._sc_calls = perf.slot("vm.calls")
        self._sc_extracts = perf.slot("word.extracts")
        self._sc_inserts = perf.slot("word.inserts")
        #: Virtual-call hits generated code serves inline, and what it
        #: serves them from: per (offload id, duplicate id), host
        #: address -> (probe cycles, tally weight, generated callee).
        self._sc_vhits = perf.slot("dispatch.inline", HIT_FIELDS)
        self._vcall_hits: dict[tuple, dict] = {}
        #: Each accessor bulk intrinsic's (transfers, bytes) slots.
        slot = perf.slot
        self._sc_bulk = {
            "acc_bulk_get": (slot("accessor.bulk_gets"), slot("accessor.bytes_in")),
            "acc_bulk_put": (slot("accessor.bulk_puts"), slot("accessor.bytes_out")),
        }
        #: Domain-dispatch target name -> (callee, what runs it); filled
        #: on a target's first virtual call.
        self._vcall_callees: dict[object, tuple] = {}
        #: The accelerators' DMA engines, each checking races in this
        #: run's mode and recording only this run's races.
        self._dma_engines = [
            accelerator.dma
            for accelerator in machine.accelerators
            if accelerator.dma is not None
        ]
        for dma in self._dma_engines:
            dma.racecheck = self.options.racecheck
            dma.races = []

    # ----------------------------------------------------------- lifecycle

    def load_image(self) -> None:
        """Write the compiled program's static data region into main
        memory, zeros included, so every run starts from the program's
        initial values, also on a machine an earlier run used."""
        heap_base = self.machine.heap.base
        if self.program.data_end > heap_base:
            raise MachineError(
                f"program static data ({self.program.data_end} bytes) "
                f"overlaps the heap/stack region starting at "
                f"{heap_base:#x}; use a machine with more main memory "
                f"(MachineConfig.main_memory_size)"
            )
        base, blob = static_image(self.program)
        self.machine.main_memory.write_unchecked(base, blob)

    def run(self, entry: Optional[str] = None) -> RunResult:
        """Load the image and execute ``entry`` (default: main)."""
        self.load_image()
        host_ctx = self.make_host_context()
        entry_name = entry or self.program.entry
        value = self._exec_function(
            self.program.function(entry_name), [], host_ctx
        )
        return self.finalize(value, host_ctx)

    def make_host_context(self) -> ThreadContext:
        """The host thread context (stack in main memory)."""
        return ThreadContext(
            core=self.machine.host,
            main_memory=self.machine.main_memory,
            stack=self._main_stack(
                self.machine.host.name, HOST_STACK_BYTES, STACK_COLOR_OFFSET,
                "host",
            ),
            now=self.machine.host.clock.now,
        )

    def _main_stack(
        self, owner: str, size: int, offset: int, space_name: str
    ) -> FrameStack:
        """``owner``'s stack of ``size`` bytes in main memory, ``offset``
        bytes into the region carved out of the heap for it at its first
        use; later users get the same region, emptied and zeroed, so a
        reused machine runs out of no heap and every run or launch sees
        what it would on a fresh machine."""
        stacks = self.machine.stacks
        stack = stacks.get(owner)
        if stack is None:
            base = self.machine.heap.allocate(size + offset) + offset
            stack = stacks[owner] = FrameStack(base, base + size, space_name)
        else:
            stack.reset(self.machine.main_memory)
        return stack

    def finalize(self, value: object, host_ctx: ThreadContext) -> RunResult:
        """Sync the host clock, audit handles and build the result."""
        self.machine.host.clock.sync_to(host_ctx.now)
        races = [race for dma in self._dma_engines for race in dma.races]
        return RunResult(
            return_value=value,
            output=self.output,
            cycles=self.machine.total_cycles(),
            host_cycles=self.machine.host.clock.now,
            machine=self.machine,
            races=races,
            sched=self._sched.stats,
            diagnostics=self.audit_handles(),
            instructions=self._instructions,
        )

    def audit_handles(self) -> list[Finding]:
        """``W-offload-unjoined`` findings for handles never joined.

        Purely observational — never touches a clock or the trace — so
        compat-mode runs stay cycle- and trace-identical.
        """
        findings = []
        for index, handle in enumerate(self.handles):
            if handle.joined:
                continue
            findings.append(
                Finding(
                    code="W-offload-unjoined",
                    message=(
                        f"offload handle {index} (offload "
                        f"#{handle.offload_id} on accelerator "
                        f"{handle.accel_index}) was never joined; its "
                        f"completion is unsynchronized with the host"
                    ),
                    file="<run>",
                    function=self.program.offload_meta[
                        handle.offload_id
                    ].entry,
                    analysis="offload-audit",
                )
            )
        return findings

    # --------------------------------------------------------- memory ops

    def _memory_for(self, space: AccSpace, ctx: ThreadContext):
        if space is AccSpace.MAIN:
            return ctx.main_memory
        if space is AccSpace.LOCAL:
            local = ctx.local_store
            if local is None:
                raise RuntimeTrap(
                    f"local-store access on core {ctx.name} which has none"
                )
            return local
        raise AssertionError("OUTER is handled by the strategy")

    def _access_cost(self, space: AccSpace, ctx: ThreadContext) -> int:
        if space is AccSpace.LOCAL:
            return ctx.core.cost.local_access
        return ctx.core.cost.host_mem_access

    def _read_mem(
        self, space: AccSpace, address: int, size: int, ctx: ThreadContext
    ) -> bytes:
        if space is AccSpace.OUTER:
            data, ctx.now = self._load_outer(
                ctx.strategy, address, size, ctx.now
            )
            return data  # type: ignore[return-value]
        memory = self._memory_for(space, ctx)
        if space is AccSpace.LOCAL and ctx.core.dma._in_flight:  # type: ignore[attr-defined]
            self._check_pending_get(ctx, address, size)
        ctx.now += self._access_cost(space, ctx)
        return memory.read_unchecked(address, size)

    @staticmethod
    def _check_pending_get(ctx: ThreadContext, address: int, size: int) -> None:
        """Trap a local-store read that overlaps a DMA get still in
        flight: the read-before-wait bug.  The codegen engine's local
        loads call it too, when their core has a transfer in flight."""
        conflict = ctx.core.dma.pending_local_conflict(address, size)  # type: ignore[attr-defined]
        if conflict is not None:
            raise RuntimeTrap(
                f"local store read at {address:#x} overlaps in-flight "
                f"{conflict.describe()}; missing dma_wait"
            )

    def _write_mem(
        self, space: AccSpace, address: int, data: bytes, ctx: ThreadContext
    ) -> None:
        if space is AccSpace.OUTER:
            ctx.now = self._store_outer(ctx.strategy, address, data, ctx.now)
            return
        memory = self._memory_for(space, ctx)
        ctx.now += self._access_cost(space, ctx)
        memory.write_unchecked(address, data)

    def _load_outer(
        self, strategy, address: int, size: int, now: int, codec=None
    ) -> tuple[object, int]:
        """One outer-space load through the offload's strategy, on the
        value clock; shared by every engine (codegen's inline hit path
        aside).  Returns (bytes, time), or (value, time) with a
        :class:`struct.Struct` ``codec``."""
        assert strategy is not None
        data, now = strategy.load(address, size, now)
        self._sc_outer_loads.count += 1
        self._sc_outer_read.count += size
        if codec is not None:
            return codec.unpack(data)[0], now
        return data, now

    def _store_outer(
        self, strategy, address: int, data: object, now: int, codec=None
    ) -> int:
        """:meth:`_load_outer`'s store, of bytes, or of a value with a
        :class:`struct.Struct` ``codec``."""
        assert strategy is not None
        if codec is not None:
            data = codec.pack(data)
        now = strategy.store(address, data, now)
        self._sc_outer_stores.count += 1
        self._sc_outer_written.count += len(data)
        return now

    def _load_raw(
        self, strategy, address: int, size: int, now: int, codec
    ) -> tuple[object, int]:
        """:meth:`_load_outer` of one scalar on a
        :class:`~repro.vm.context.RawDmaStrategy`, for generated code:
        one :meth:`~repro.machine.dma.DmaEngine.transfer_and_wait`
        through the bounce buffer, decoded where it landed."""
        at = strategy.scratch_addr
        now = strategy.dma.transfer_and_wait(GET, RAW_TAG, at, address, size, now)
        strategy.loads.count += 1
        self._sc_outer_loads.count += 1
        self._sc_outer_read.count += size
        return codec.unpack_from(strategy.scratch, at)[0], now

    def _store_raw(
        self, strategy, address: int, value: object, now: int, codec
    ) -> int:
        """:meth:`_load_raw`'s store: encoded into the bounce buffer."""
        at = strategy.scratch_addr
        codec.pack_into(strategy.scratch, at, value)
        size = codec.size
        now = strategy.dma.transfer_and_wait(PUT, RAW_TAG, at, address, size, now)
        strategy.stores.count += 1
        self._sc_outer_stores.count += 1
        self._sc_outer_written.count += size
        return now

    @staticmethod
    def _decode(data: bytes, signed: bool, is_float: bool) -> object:
        if is_float:
            return SCALARS[len(data), signed, True].codec.unpack(data)[0]
        return int.from_bytes(data, "little", signed=signed)

    @staticmethod
    def _encode(value: object, size: int, is_float: bool) -> bytes:
        if is_float:
            return SCALARS[size, False, True].codec.pack(float(value))  # type: ignore[arg-type]
        mask = (1 << (8 * size)) - 1
        return (int(value) & mask).to_bytes(size, "little")  # type: ignore[arg-type]

    # -------------------------------------------------------------- calls

    def _exec_function(
        self, function: IRFunction, args: list[object], ctx: ThreadContext
    ) -> object:
        regs: list[object] = [0] * max(function.num_regs, len(args))
        regs[: len(args)] = args
        saved_sp = ctx.stack.sp
        frame_base = (
            ctx.stack.push(function.frame_size) if function.frame_size else ctx.stack.sp
        )
        ctx.now += ctx.core.cost.call
        self._sc_calls.count += 1
        trace = self._trace
        if trace.enabled:
            track = ctx.core.name
            trace.emit(ctx.now, track, EV_ENTER, (function.name,))
            marker = trace.frame_marker
            if marker is not None and function.name.endswith(marker):
                trace.emit(ctx.now, track, EV_FRAME, (function.name,))
        code = function.code
        labels = function.labels
        cost = ctx.core.cost
        pc = 0
        try:
            while pc < len(code):
                self._instructions += 1
                if self._instructions > self.options.max_instructions:
                    raise self._budget_trap()
                instr = code[pc]
                pc += 1
                if isinstance(instr, Const):
                    ctx.now += cost.alu
                    regs[instr.dst] = instr.value
                elif isinstance(instr, Move):
                    ctx.now += cost.alu
                    regs[instr.dst] = regs[instr.src]
                elif isinstance(instr, BinOp):
                    ctx.now += cost.alu
                    regs[instr.dst] = BINOPS[
                        instr.op, instr.float_op, instr.signed
                    ].fn(regs[instr.a], regs[instr.b])
                elif isinstance(instr, UnOp):
                    ctx.now += cost.alu
                    regs[instr.dst] = UNOPS[instr.op, instr.float_op].fn(
                        regs[instr.a]
                    )
                elif isinstance(instr, Load):
                    data = self._read_mem(
                        instr.space, int(regs[instr.addr]), instr.size, ctx  # type: ignore[arg-type]
                    )
                    regs[instr.dst] = self._decode(
                        data, instr.signed, instr.is_float
                    )
                elif isinstance(instr, Store):
                    data = self._encode(
                        regs[instr.src], instr.size, instr.is_float
                    )
                    self._write_mem(
                        instr.space, int(regs[instr.addr]), data, ctx  # type: ignore[arg-type]
                    )
                elif isinstance(instr, Copy):
                    self._exec_copy(instr, regs, ctx)
                elif isinstance(instr, Extract):
                    self._exec_extract(instr, regs, ctx)
                elif isinstance(instr, Insert):
                    self._exec_insert(instr, regs, ctx)
                elif isinstance(instr, FrameAddr):
                    ctx.now += cost.alu
                    regs[instr.dst] = frame_base + instr.offset
                elif isinstance(instr, GlobalAddr):
                    ctx.now += cost.alu
                    regs[instr.dst] = self.program.globals[instr.name].address
                elif isinstance(instr, Jump):
                    ctx.now += cost.branch
                    pc = labels[instr.label]
                elif isinstance(instr, CJump):
                    ctx.now += cost.branch
                    target = (
                        instr.then_label if regs[instr.cond] else instr.else_label
                    )
                    pc = labels[target]
                elif isinstance(instr, Call):
                    callee = self.program.function(instr.callee)
                    value = self._exec_function(
                        callee, [regs[a] for a in instr.args], ctx
                    )
                    if instr.dst is not None:
                        regs[instr.dst] = value
                elif isinstance(instr, ICall):
                    fid = int(regs[instr.func_id])  # type: ignore[arg-type]
                    name = self.program.function_ids.get(fid)
                    if name is None:
                        raise RuntimeTrap(
                            f"indirect call through bad function id {fid:#x}"
                        )
                    ctx.now += cost.vtable_load
                    callee = self.program.function(name)
                    value = self._exec_function(
                        callee, [regs[a] for a in instr.args], ctx
                    )
                    if instr.dst is not None:
                        regs[instr.dst] = value
                elif isinstance(instr, DomainCall):
                    value = self._domain_call_values(
                        instr.offload_id,
                        instr.duplicate_id,
                        int(regs[instr.func_id]),  # type: ignore[arg-type]
                        [regs[a] for a in instr.args],
                        ctx,
                    )
                    if instr.dst is not None:
                        regs[instr.dst] = value
                elif isinstance(instr, Intrinsic):
                    value = self._exec_intrinsic(instr, regs, ctx)
                    if instr.dst is not None:
                        regs[instr.dst] = value
                elif isinstance(instr, Ret):
                    ctx.now += cost.ret
                    if trace.enabled:
                        trace.emit(
                            ctx.now, ctx.core.name, EV_EXIT, (function.name,)
                        )
                    return regs[instr.src] if instr.src is not None else 0
                elif isinstance(instr, OffloadLaunch):
                    regs[instr.dst] = self._launch_offload(instr, regs, ctx)
                elif isinstance(instr, OffloadJoin):
                    self._join_offload(int(regs[instr.handle]), ctx)  # type: ignore[arg-type]
                elif isinstance(instr, Trap):
                    raise RuntimeTrap(instr.message)
                else:
                    raise AssertionError(f"unhandled instruction {instr!r}")
            if trace.enabled:
                trace.emit(ctx.now, ctx.core.name, EV_EXIT, (function.name,))
            return 0
        finally:
            ctx.stack.pop(saved_sp)

    def _budget_trap(self) -> RuntimeTrap:
        """The runaway-program trap; shared by every engine."""
        return RuntimeTrap(
            f"instruction budget exceeded ({self.options.max_instructions})"
        )

    # ------------------------------------------------------ complex instrs

    def _exec_copy(self, instr: Copy, regs: list[object], ctx: ThreadContext) -> None:
        size = (
            int(regs[instr.size_reg])  # type: ignore[arg-type]
            if instr.size_reg is not None
            else instr.size
        )
        self._copy_values(
            instr.src_space,
            instr.dst_space,
            int(regs[instr.src_addr]),  # type: ignore[arg-type]
            int(regs[instr.dst_addr]),  # type: ignore[arg-type]
            size,
            ctx,
        )

    def _copy_values(
        self,
        src_space: AccSpace,
        dst_space: AccSpace,
        src: int,
        dst: int,
        size: int,
        ctx: ThreadContext,
    ) -> None:
        """Bulk copy on resolved operand values; shared by every engine."""
        if size <= 0:
            return
        if src_space is AccSpace.OUTER:
            assert ctx.strategy is not None
            data, ctx.now = ctx.strategy.load(src, size, ctx.now)
        else:
            memory = self._memory_for(src_space, ctx)
            if src_space is AccSpace.LOCAL and ctx.core.dma._in_flight:  # type: ignore[attr-defined]
                self._check_pending_get(ctx, src, size)
            ctx.now += self._bulk_cost(src_space, size, ctx)
            data = memory.read_unchecked(src, size)
        if dst_space is AccSpace.OUTER:
            assert ctx.strategy is not None
            ctx.now = ctx.strategy.store(dst, data, ctx.now)
        else:
            memory = self._memory_for(dst_space, ctx)
            ctx.now += self._bulk_cost(dst_space, size, ctx)
            memory.write_unchecked(dst, data)

    def _bulk_cost(self, space: AccSpace, size: int, ctx: ThreadContext) -> int:
        per_line = self._access_cost(space, ctx)
        lines = -(-size // 16)
        return per_line * lines

    def _exec_extract(
        self, instr: Extract, regs: list[object], ctx: ThreadContext
    ) -> None:
        word = int(regs[instr.word])  # type: ignore[arg-type]
        if instr.const_offset is not None:
            offset = instr.const_offset
            ctx.now += ctx.core.cost.word_extract
        else:
            offset = int(regs[instr.offset])  # type: ignore[arg-type]
            ctx.now += 2 * ctx.core.cost.word_extract
        mask = (1 << (8 * instr.size)) - 1
        value = (word >> (8 * offset)) & mask
        if instr.signed and value >= 1 << (8 * instr.size - 1):
            value -= 1 << (8 * instr.size)
        regs[instr.dst] = value
        self._sc_extracts.count += 1

    def _exec_insert(
        self, instr: Insert, regs: list[object], ctx: ThreadContext
    ) -> None:
        word = int(regs[instr.word])  # type: ignore[arg-type]
        value = int(regs[instr.value])  # type: ignore[arg-type]
        if instr.const_offset is not None:
            offset = instr.const_offset
            ctx.now += ctx.core.cost.word_extract
        else:
            offset = int(regs[instr.offset])  # type: ignore[arg-type]
            ctx.now += 2 * ctx.core.cost.word_extract
        mask = (1 << (8 * instr.size)) - 1
        shifted_mask = mask << (8 * offset)
        merged = (word & ~shifted_mask) | ((value & mask) << (8 * offset))
        regs[instr.dst] = merged & _U32
        self._sc_inserts.count += 1

    def _domain_call_values(
        self,
        offload_id: int,
        duplicate_id: Optional[str],
        fid: int,
        arg_values: list[object],
        ctx: ThreadContext,
    ) -> object:
        """Domain dispatch on resolved operand values; shared by every
        engine."""
        meta = self.program.offload_meta[offload_id]
        self._sc_vcalls.count += 1
        start = ctx.now
        try:
            entry, ctx.now = meta.domain.lookup_entry(
                ctx.core, fid, duplicate_id, ctx.now
            )
        except MissingDuplicateError as exc:
            # Name the method the programmer must annotate: the program
            # knows which host function the failing id belongs to.  An
            # id it does not know is a bad pointer, not a missing
            # annotation: trap as a host indirect call does.
            name = self.program.function_ids.get(fid)
            if name is None:
                raise RuntimeTrap(
                    f"indirect call through bad function id {fid:#x}"
                ) from None
            if name not in exc.method_name:
                raise MissingDuplicateError(
                    name, exc.duplicate_id, exc.known
                ) from None
            raise
        resolved = self._vcall_callees.get(entry.target)
        if resolved is None:
            callee = self.program.function(str(entry.target))
            resolved = (callee, self._compiled_callee(callee))
            self._vcall_callees[entry.target] = resolved
        callee, run = resolved
        if entry.demand:
            self._ensure_code_resident(callee, ctx)
        if run is None:
            return self._exec_function(callee, arg_values, ctx)
        hits = self._vcall_hits.get((offload_id, duplicate_id))
        if hits is not None and not entry.demand and not self._trace.enabled:
            # A repeat of this lookup charges and counts the same probes:
            # generated code serves it from here.
            hits[fid] = (
                ctx.now - start,
                meta.domain.hit_weight(fid, duplicate_id),
                run,
            )
        return run(self, ctx, *arg_values)

    def _hit_table(self, offload_id: int, duplicate_id: Optional[str]) -> dict:
        """The virtual-call hits of one (offload, duplicate) pair that
        generated code may serve inline; :meth:`_domain_call_values`
        fills it with every successful lookup but ``demand`` entries
        and traced runs (which want each ``dispatch.hit`` event)."""
        key = offload_id, duplicate_id
        table = self._vcall_hits.get(key)
        if table is None:
            table = self._vcall_hits[key] = {}
        return table

    def _compiled_callee(self, function: IRFunction):
        """A callable ``(engine, ctx, *args)`` that runs ``function``
        without going through :meth:`_exec_function`, or None (this
        engine has none: it decodes)."""
        return None

    def _ensure_code_resident(self, callee: IRFunction, ctx: ThreadContext) -> None:
        """On-demand code loading: the first dispatch to a non-annotated
        duplicate on a given accelerator uploads its code image."""
        core = ctx.core
        if not isinstance(core, AcceleratorCore):
            return
        key = (core.index, callee.name)
        if key in self._resident_code:
            return
        self._resident_code.add(key)
        cost = core.cost
        code_bytes = self.machine.config.code_bytes_per_instr * len(callee.code)
        transfer = -(-code_bytes // cost.dma_bytes_per_cycle)
        start = ctx.now
        ctx.now += cost.dma_setup + cost.dma_latency + transfer
        core.perf.add("demand.code_loads")
        core.perf.add("demand.code_bytes", code_bytes)
        trace = self._trace
        if trace.enabled:
            trace.emit(
                start, core.name, EV_CODE_UPLOAD,
                (callee.name, code_bytes, ctx.now),
            )

    def _exec_intrinsic(
        self, instr: Intrinsic, regs: list[object], ctx: ThreadContext
    ) -> object:
        name = instr.name
        args = [regs[a] for a in instr.args]
        cost = ctx.core.cost
        if name in PRINTS:
            ctx.now += cost.alu
            self._print(ctx, name, args[0])
            return 0
        pure = INTRINSICS.get(name)
        if pure is not None:
            ctx.now += pure.weight * cost.alu
            return pure.fn(*args)
        if name in ("dma_get", "dma_put"):
            ctx.now = self._dma_transfer(name, ctx, *args, ctx.now)
        elif name == "dma_wait":
            ctx.now = self._dma_wait(name, ctx, args[0], ctx.now)
        elif name in self._sc_bulk:
            ctx.now = self._bulk_transfer(name, ctx, *args, ctx.now)
        else:
            raise AssertionError(f"unhandled intrinsic {name!r}")
        return 0

    # The helpers below are each impure intrinsic's one implementation:
    # both engines call them, on the value clock.

    def _print(self, ctx: ThreadContext, name: str, value: object) -> None:
        self.output.append((ctx.name, PRINTS[name](value)))

    def _dma_transfer(
        self, name: str, ctx: ThreadContext, local: object, outer: object,
        size: object, tag: object, now: int,
    ) -> int:
        """``dma_get`` / ``dma_put``: issue one tagged transfer."""
        dma = self._require_dma(ctx)
        local, outer, size, tag = int(local), int(outer), int(size), int(tag)  # type: ignore[call-overload]
        if size <= 0:
            raise RuntimeTrap(f"{name} with non-positive size {size}")
        self._check_dma_tag(name, tag)
        issue = dma.get if name == "dma_get" else dma.put
        return issue(tag, local, outer, size, now)

    def _dma_wait(
        self, name: str, ctx: ThreadContext, tag: object, now: int
    ) -> int:
        dma = self._require_dma(ctx)
        tag = int(tag)  # type: ignore[call-overload]
        self._check_dma_tag(name, tag)
        return dma.wait(tag, now)

    def _bulk_transfer(
        self, name: str, ctx: ThreadContext, local: object, outer: object,
        size: object, now: int,
    ) -> int:
        """``acc_bulk_get`` / ``acc_bulk_put``: one accessor transfer and
        its wait."""
        dma = self._require_dma(ctx)
        local, outer, size = int(local), int(outer), int(size)  # type: ignore[call-overload]
        kind = GET if name == "acc_bulk_get" else PUT
        now = dma.transfer_and_wait(kind, ACCESSOR_TAG, local, outer, size, now)
        transfers, moved = self._sc_bulk[name]
        transfers.count += 1
        moved.count += size
        return now

    def _require_dma(self, ctx: ThreadContext):
        core = ctx.core
        if not isinstance(core, AcceleratorCore) or core.dma is None:
            raise RuntimeTrap(
                f"DMA intrinsic on core {ctx.name} without a DMA engine"
            )
        return core.dma

    @staticmethod
    def _check_dma_tag(name: str, tag: int) -> None:
        """Out-of-range tags trap instead of silently aliasing.

        The engines used to mask ``tag & 31``, so tag 33 aliased tag 1
        and a ``dma_wait`` could observe the wrong transfer's
        completion.
        """
        if not 0 <= tag < NUM_TAGS:
            raise RuntimeTrap(
                f"{name} with out-of-range DMA tag {tag} "
                f"(valid tags are 0..{NUM_TAGS - 1})"
            )

    # ------------------------------------------------------------ offloads

    def _launch_offload(
        self, instr: OffloadLaunch, regs: list[object], ctx: ThreadContext
    ) -> int:
        return self._run_offload(
            instr.offload_id,
            instr.entry,
            [regs[a] for a in instr.args],
            ctx,
        )

    def _run_offload(
        self,
        offload_id: int,
        entry_name: str,
        arg_values: list[object],
        ctx: ThreadContext,
        affinity: Optional[int] = None,
    ) -> int:
        """Schedule and eagerly execute one offload job; returns the
        handle index.  IR launches and job-graph nodes share this path."""
        meta = self.program.offload_meta[offload_id]
        if not self.machine.accelerators:
            raise RuntimeTrap("offload launch on a machine with no accelerators")
        sched = self._sched
        job = len(self.handles)
        sched.submit(offload_id, job, ctx.now)
        accel_index = sched.admit(offload_id, ctx, affinity)
        accelerator = self.machine.accelerators[accel_index]
        start, body_start = sched.begin(offload_id, accel_index, ctx.now)
        if accelerator.local_store is not None:
            strategy, stack_limit = build_strategy(accelerator, meta.cache_kind)
            # One stack per local store, emptied and zeroed at each
            # launch like a main-memory stack: a launch reads the zeros
            # a fresh machine holds, whatever earlier launches left.
            stack = self.machine.stacks.get(accelerator.name)
            if stack is None:
                stack = self.machine.stacks[accelerator.name] = FrameStack(
                    0, stack_limit, f"{accelerator.name} local-store"
                )
            else:
                stack.reset(accelerator.local_store)
                stack.limit = stack_limit
        else:
            # Shared-memory accelerator: frames live in main memory.
            strategy = None
            stack = self._main_stack(
                accelerator.name, HOST_STACK_BYTES // 4, 0,
                f"{accelerator.name} stack",
            )
        accel_ctx = ThreadContext(
            core=accelerator,
            main_memory=self.machine.main_memory,
            stack=stack,
            now=body_start,
            strategy=strategy,
            offload_id=offload_id,
        )
        entry = self.program.function(entry_name)
        trace = self._trace
        if trace.enabled:
            trace.emit(
                body_start, accelerator.name, EV_OFFLOAD_BEGIN,
                (offload_id, entry_name),
            )
        self._exec_function(entry, arg_values, accel_ctx)
        if strategy is not None:
            accel_ctx.now = strategy.flush(accel_ctx.now)
        finish = accel_ctx.now
        accelerator.clock.sync_to(finish)
        sched.complete(offload_id, accel_index, start, body_start, finish)
        metrics = self._metrics
        if metrics.enabled:
            metrics.observe("offload.body_cycles", None, finish - body_start)
        ctx.now += ctx.core.cost.call  # host-side issue cost
        handle = Handle(
            offload_id=offload_id,
            accel_index=accel_index,
            finish_time=finish,
        )
        self.handles.append(handle)
        ctx.core.perf.add("offload.launches")
        if trace.enabled:
            trace.emit(
                finish, accelerator.name, EV_OFFLOAD_END,
                (offload_id, entry_name),
            )
            trace.emit(
                ctx.now, ctx.core.name, EV_OFFLOAD_LAUNCH,
                (offload_id, accel_index, len(self.handles) - 1),
            )
        sched.dispatched(job, accel_index, ctx.now)
        return len(self.handles) - 1

    def _join_offload(self, handle_id: int, ctx: ThreadContext) -> None:
        if not 0 <= handle_id < len(self.handles):
            raise RuntimeTrap(f"join on invalid offload handle {handle_id}")
        handle = self.handles[handle_id]
        ctx.now = max(
            ctx.now + ctx.core.cost.thread_join, handle.finish_time
        )
        handle.joined = True
        ctx.core.perf.add("offload.joins")
        trace = self._trace
        if trace.enabled:
            trace.emit(
                ctx.now, ctx.core.name, EV_OFFLOAD_JOIN,
                (handle_id, handle.finish_time),
            )


def make_interpreter(
    program: IRProgram,
    machine: Machine,
    options: Optional[RunOptions] = None,
) -> Interpreter:
    """Build the execution engine selected by ``options.engine``."""
    options = options or RunOptions()
    engine = options.engine
    if engine is None:
        engine = validate_engine(DEFAULT_ENGINE, source="REPRO_VM_ENGINE")
    else:
        validate_engine(engine, source="RunOptions.engine")
    if engine == "reference":
        return Interpreter(program, machine, options)
    from repro.vm.codegen import CodegenInterpreter

    return CodegenInterpreter(program, machine, options)


def run_program(
    program: IRProgram,
    machine: Optional[Machine] = None,
    options: Optional[RunOptions] = None,
    entry: Optional[str] = None,
) -> RunResult:
    """Convenience wrapper: execute ``program`` on ``machine``.

    Without a machine, one is built from the target registry:
    ``options.target`` when set, else the target the program was
    compiled for (``program.target_name``, which artifacts record and
    :func:`repro.machine.config.resolve_target` maps back to a config).
    """
    if machine is None:
        target = options.target if options is not None else None
        source = "RunOptions.target"
        if target is None:
            target = program.target_name or "cell"
            source = "program.target_name"
        machine = Machine(resolve_target(target, source=source))
    return make_interpreter(program, machine, options).run(entry)
