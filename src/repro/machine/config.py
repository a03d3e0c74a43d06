"""Machine configurations, cycle cost models, and the target registry.

Five presets mirror the architecture families the paper discusses plus
the two contrasting designs ROADMAP item 5 calls for:

* ``CELL_LIKE`` — a host core plus accelerator cores, each accelerator
  owning a private 256 KiB scratch-pad local store, with all traffic to
  main memory going through a tagged DMA engine (Cell BE / PlayStation 3).
* ``SMP_UNIFORM`` — a symmetric shared-memory multicore with a single flat
  address space (Xbox 360-style); offload blocks become ordinary threads
  and accessor classes degrade to direct access.
* ``DSP_WORD`` — a word-addressed unit (PlayStation 2 vector unit /
  TigerSHARC style) where addresses index 4-byte words and sub-word access
  requires explicit extract/insert sequences.
* ``APU_UNIFIED`` — a unified-memory APU (MI300A-style): one coherent
  memory behind a shared last-level cache, so outer access is cheap,
  offload means "run on more cores", accessor strategies collapse to
  direct access (the paper's Section 4.2 fallback) and what used to be
  DMA degenerates to a bulk-memcpy cost.
* ``MANYCORE_GRID`` — 24 small accelerators with 64 KiB local stores on
  a shared grid interconnect; the design point where the scheduler's
  placement, queue backpressure and cold code-upload accounting all
  measurably bind.

Costs are in simulated cycles.  They are chosen to preserve the *ratios*
the paper's narrative depends on (local access is cheap, an outer access
costs two orders of magnitude more, bulk DMA amortises setup cost), not to
model any specific silicon exactly.

The **target registry** makes "which machine am I simulating" a
first-class concept: :func:`resolve_target` maps a short name
(``"cell"``), a config display name (``"cell-like"``, as recorded in
program artifacts) or a :class:`MachineConfig` to the config object;
:func:`validate_target` rejects unknown names at option-parse time with
the list of known names (mirroring ``repro.vm.interpreter.validate_engine``);
:func:`register_target` adds project-specific machines that every CLI
tool and test harness then accepts.  ``REPRO_TARGET`` overrides the
default target for a whole process the way ``REPRO_VM_ENGINE`` does for
engines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class CostModel:
    """Per-operation cycle costs for the simulated machine.

    Attributes:
        alu: Simple register-to-register arithmetic/logic operation.
        branch: Taken or untaken branch.
        call: Direct call (frame setup included).
        ret: Function return.
        local_access: Load or store hitting an accelerator's local store.
        host_mem_access: Load or store issued by the *host* core against
            main memory (the host is assumed cached; this is an averaged
            cost).
        dma_setup: Fixed cost of issuing one DMA request (command queue
            occupancy on the issuing core).
        dma_latency: Latency from issue to first byte delivered.
        dma_bytes_per_cycle: Sustained DMA bandwidth.
        cache_probe: Software-cache lookup executed on the accelerator
            (hash + tag compare), charged on hit and miss alike.
        vtable_load: Loading a vtable slot (one dependent local access on
            top of the object header load).
        domain_probe: One comparison step while scanning the outer domain.
        inner_domain_probe: One (id, address) pair check in the inner
            domain.
        word_extract: Extracting/inserting a sub-word byte on a
            word-addressed machine (shift + mask).
        thread_spawn: Launching an offload thread on an accelerator.
        thread_join: Host-side cost of joining a finished offload thread.
    """

    alu: int = 1
    branch: int = 1
    call: int = 4
    ret: int = 2
    local_access: int = 2
    host_mem_access: int = 40
    dma_setup: int = 40
    dma_latency: int = 200
    dma_bytes_per_cycle: int = 8
    cache_probe: int = 10
    vtable_load: int = 2
    domain_probe: int = 2
    inner_domain_probe: int = 2
    word_extract: int = 2
    thread_spawn: int = 600
    thread_join: int = 100


@dataclass(frozen=True)
class MachineConfig:
    """Static description of one simulated machine.

    Attributes:
        name: Identifier used in reports and program artifacts
            (``IRProgram.target_name``).
        num_accelerators: Number of accelerator cores.
        local_store_size: Bytes of scratch-pad memory per accelerator
            (0 on shared-memory machines).
        main_memory_size: Bytes of main (host) memory.
        shared_memory: True when accelerators address main memory directly
            (SMP); offload blocks then need no data-movement code.
        shared_interconnect: True to serialise all DMA traffic through
            one machine-wide channel (EIB/SCC-style) instead of giving
            each accelerator a private channel.
        word_addressed: True when memory addresses index words rather than
            bytes (the Section 5 machines).
        word_size: Bytes per addressable word when ``word_addressed``.
        dma_align: Alignment (bytes) the DMA engine wants on transfer
            addresses.  Real engines degrade (or fault) on unaligned
            transfers; the static bounds checker (`repro.analysis.bounds`)
            warns when a transfer address is *provably* misaligned for
            this grain.  The default matches the layout engine's word
            grain (4) — every compiler-placed scalar and struct member
            is word-aligned, so only genuinely byte-offset transfers
            warn.  Irrelevant on shared-memory machines.
        code_bytes_per_instr: Simulated bytes per IR instruction in an
            uploaded code image — sizes both the scheduler's cold
            code-upload model and on-demand code loading.  Machines with
            compact encodings keep the default 4; the many-core grid
            ships uncompressed images (8) so uploads genuinely hurt.
        sched_queue_depth: Default per-accelerator ready-queue bound when
            explicit scheduling is on and ``SchedOptions.queue_depth`` is
            left unset (None).  0 means unbounded; small cores with tiny
            job slots (the many-core grid) bound it so host backpressure
            actually engages.
        cost: The cycle cost model.
    """

    name: str
    num_accelerators: int = 6
    local_store_size: int = 256 * 1024
    main_memory_size: int = 16 * 1024 * 1024
    shared_memory: bool = False
    shared_interconnect: bool = False
    word_addressed: bool = False
    word_size: int = 4
    dma_align: int = 4
    code_bytes_per_instr: int = 4
    sched_queue_depth: int = 0
    cost: CostModel = field(default_factory=CostModel)

    def with_(self, **overrides: object) -> "MachineConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    @property
    def heap_base(self) -> int:
        """First main-memory byte above the static data region; the heap
        and main-memory stacks live from here to the end."""
        return self.main_memory_size // 4

    def static_data_error(self, data_end: int) -> Optional[str]:
        """Why static data ending at ``data_end`` cannot be loaded on
        this machine, or None when it fits below :attr:`heap_base`."""
        if data_end <= self.heap_base:
            return None
        return (
            f"program static data ({data_end} bytes) overlaps the "
            f"heap/stack region starting at {self.heap_base:#x}; use a "
            f"machine with more main memory "
            f"(MachineConfig.main_memory_size)"
        )


CELL_LIKE = MachineConfig(
    name="cell-like",
    num_accelerators=6,
    local_store_size=256 * 1024,
    shared_memory=False,
)

SMP_UNIFORM = MachineConfig(
    name="smp-uniform",
    num_accelerators=5,
    local_store_size=0,
    shared_memory=True,
    cost=CostModel(
        host_mem_access=40,
        dma_setup=0,
        dma_latency=0,
        dma_bytes_per_cycle=16,
        thread_spawn=400,
        thread_join=80,
    ),
)

DSP_WORD = MachineConfig(
    name="dsp-word",
    num_accelerators=2,
    local_store_size=64 * 1024,
    word_addressed=True,
    word_size=4,
    cost=CostModel(
        local_access=1,
        word_extract=2,
        # Word-addressed units (PS2 VU, TigerSHARC) couple the cores to
        # fast single-cycle-class SRAM; the cost of sub-word access is
        # the extract/insert ALU work, not memory latency.
        host_mem_access=4,
    ),
)

APU_UNIFIED = MachineConfig(
    name="apu-unified",
    num_accelerators=8,
    local_store_size=0,
    shared_memory=True,
    cost=CostModel(
        # One coherent memory behind a shared LLC: the outer/local cost
        # cliff the Cell techniques exist to bridge is simply gone.
        host_mem_access=6,
        # "DMA" on a unified machine is a memcpy: negligible issue cost,
        # no wire latency, wide on-package bandwidth.  Bulk copies
        # (Copy / struct assignment) charge per touched line at the
        # cheap host_mem_access rate, so staging degenerates to the cost
        # of the copy itself.
        dma_setup=2,
        dma_latency=0,
        dma_bytes_per_cycle=32,
        # Launching work is queueing a kernel on another core of the
        # same chip, not booting a remote ISA.
        thread_spawn=200,
        thread_join=40,
    ),
)

MANYCORE_GRID = MachineConfig(
    name="manycore-grid",
    num_accelerators=24,
    local_store_size=64 * 1024,
    shared_interconnect=True,
    # Uncompressed code images + the narrow shared grid below make a
    # cold upload cost real money, so placement locality pays; tiny
    # per-core job slots bound the ready queue at 2, so a launch burst
    # exercises host backpressure by default.
    code_bytes_per_instr=8,
    sched_queue_depth=2,
    cost=CostModel(
        local_access=1,
        # Many small cores far from memory: each hop across the grid is
        # expensive and the per-core slice of bandwidth is narrow.
        host_mem_access=60,
        dma_setup=60,
        dma_latency=300,
        dma_bytes_per_cycle=4,
        # Small in-order cores start work quickly once it is placed.
        thread_spawn=150,
        thread_join=30,
    ),
)


#: Environment variable naming the process-wide default target.
TARGET_ENV_VAR = "REPRO_TARGET"

#: Short name -> config for every registered target, in registration
#: order.  Extend via :func:`register_target`, read via
#: :func:`target_names` / :func:`resolve_target`.
_REGISTRY: dict[str, MachineConfig] = {}

#: Alias (a config's display ``name``, as recorded in artifacts) ->
#: short registry name.
_ALIASES: dict[str, str] = {}

#: Registered short target names, in registration order.  Reassigned by
#: :func:`register_target`; prefer :func:`target_names` from code that
#: imports early.
TARGET_NAMES: tuple[str, ...] = ()


def register_target(
    name: str, config: MachineConfig, *, replace: bool = False
) -> MachineConfig:
    """Register ``config`` under the short name ``name``.

    The config's display ``name`` (what program artifacts record as
    ``target_name``) is indexed as an alias, so artifacts resolve back
    to their target through the same registry.  Re-registering an
    existing name requires ``replace=True``.
    """
    global TARGET_NAMES
    if not replace and name in _REGISTRY:
        raise ValueError(
            f"target {name!r} is already registered; pass replace=True "
            f"to override it"
        )
    _REGISTRY[name] = config
    if config.name != name:
        _ALIASES[config.name] = name
    TARGET_NAMES = tuple(_REGISTRY)
    return config


def target_names() -> tuple[str, ...]:
    """Short names of every registered target, in registration order."""
    return TARGET_NAMES


def validate_target(name: str, source: str = "target") -> str:
    """Reject unknown target names with a list of the known ones.

    Shared by the CLI tools, :class:`repro.vm.interpreter.RunOptions`
    and the ``REPRO_TARGET`` environment override so a typo fails at
    option-parse time instead of deep inside the simulator (the
    ``validate_engine`` contract, applied to machines).
    """
    if name not in _REGISTRY and name not in _ALIASES:
        known = ", ".join(repr(n) for n in _REGISTRY)
        raise ValueError(
            f"unknown target {name!r} (from {source}); "
            f"known targets: {known}"
        )
    return name


def resolve_target(
    target: "str | MachineConfig", source: str = "target"
) -> MachineConfig:
    """The :class:`MachineConfig` for a target name (or config).

    Accepts a short registry name (``"cell"``), a config display name
    as recorded in program artifacts (``"cell-like"``), or an existing
    :class:`MachineConfig` (returned unchanged, registered or not).
    Unknown names raise ``ValueError`` listing the known targets.
    """
    if isinstance(target, MachineConfig):
        return target
    validate_target(target, source)
    return _REGISTRY[_ALIASES.get(target, target)]


def default_target() -> str:
    """The short name tools default to: ``REPRO_TARGET`` or ``"cell"``.

    Validated on every call so a typo in the environment fails with the
    known-name list the moment any tool builds its option parser.
    """
    name = os.environ.get(TARGET_ENV_VAR, "").strip() or "cell"
    return validate_target(name, source=TARGET_ENV_VAR)


register_target("cell", CELL_LIKE)
register_target("smp", SMP_UNIFORM)
register_target("dsp", DSP_WORD)
register_target("apu", APU_UNIFIED)
register_target("manycore", MANYCORE_GRID)
