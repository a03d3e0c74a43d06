"""Simulated heterogeneous machine substrate.

This package stands in for the hardware the paper targets (the Cell BE in
the PlayStation 3, shared-memory consoles, and word-addressed DSP-style
units).  It provides byte- and word-addressed memory spaces, per-core
cycle clocks, a tagged DMA engine with a bandwidth/latency cost model and
its own race checks, and pre-built machine configurations.

The simulation is *deterministic*: cores carry logical clocks, parallel
execution is modelled by running threads to completion and combining
clocks with max() at synchronisation points.  All performance experiments
in ``benchmarks/`` measure these simulated cycles, so results are exactly
reproducible.
"""

from repro.machine.config import (
    APU_UNIFIED,
    CELL_LIKE,
    DSP_WORD,
    MANYCORE_GRID,
    SMP_UNIFORM,
    TARGET_NAMES,
    CostModel,
    MachineConfig,
    default_target,
    register_target,
    resolve_target,
    target_names,
    validate_target,
)
from repro.machine.clock import CoreClock
from repro.machine.dma import DmaEngine, DmaRequest
from repro.machine.memory import MemorySpace
from repro.machine.cores import AcceleratorCore, Core, HostCore
from repro.machine.machine import Machine
from repro.machine.perf import PerfCounters

__all__ = [
    "APU_UNIFIED",
    "AcceleratorCore",
    "CELL_LIKE",
    "Core",
    "CoreClock",
    "CostModel",
    "DSP_WORD",
    "DmaEngine",
    "DmaRequest",
    "HostCore",
    "MANYCORE_GRID",
    "Machine",
    "MachineConfig",
    "MemorySpace",
    "PerfCounters",
    "SMP_UNIFORM",
    "TARGET_NAMES",
    "default_target",
    "register_target",
    "resolve_target",
    "target_names",
    "validate_target",
]
