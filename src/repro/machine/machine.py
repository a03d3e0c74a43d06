"""The assembled simulated machine."""

from __future__ import annotations

from repro.errors import MachineError
from repro.machine.config import MachineConfig
from repro.machine.cores import AcceleratorCore, HostCore
from repro.machine.interconnect import Interconnect
from repro.machine.memory import BumpAllocator, MemorySpace
from repro.machine.perf import PerfCounters
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_RECORDER


class Machine:
    """One simulated system: main memory, a host core, accelerator cores.

    All components share a single :class:`PerfCounters` sink so that
    benchmarks can read machine-wide statistics with one call.

    Example::

        machine = Machine(CELL_LIKE)
        acc = machine.accelerator(0)
        t = acc.dma.get(tag=1, local_addr=0, outer_addr=0x1000,
                        size=128, now=acc.clock.now)
        acc.clock.sync_to(acc.dma.wait(1, t))
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        self.perf = PerfCounters()
        granularity = config.word_size if config.word_addressed else 1
        self.main_memory = MemorySpace("main", config.main_memory_size, granularity)
        self.host = HostCore(self.main_memory, config.cost, self.perf)
        self.interconnect = (
            Interconnect(config.cost.dma_bytes_per_cycle, self.perf)
            if config.shared_interconnect
            else None
        )
        self.accelerators = [
            AcceleratorCore(
                i, config, self.main_memory, self.perf, self.interconnect
            )
            for i in range(config.num_accelerators)
        ]
        # Reserve low main memory for globals; the rest is heap.
        self._heap = BumpAllocator(
            base=config.main_memory_size // 4, limit=config.main_memory_size
        )
        #: Per core name, the stack the execution engines keep for it:
        #: in its local store if it has one, else in main memory, carved
        #: out of the heap at its first use.
        self.stacks: dict[str, object] = {}
        #: Event sink shared by every component; the null recorder until
        #: :meth:`attach_trace` installs a real one.
        self.trace = NULL_RECORDER
        #: Metrics sink shared by every component; the null hub until
        #: :meth:`attach_metrics` installs a real one.
        self.metrics = NULL_METRICS

    def attach_trace(self, recorder) -> None:
        """Install ``recorder`` as the machine-wide event sink.

        Propagates the recorder to every core and DMA engine so each
        instrumentation site keeps its pre-bound reference (one
        attribute check per event when disabled).  Must be called
        before building an execution engine for the machine; pass
        :data:`repro.obs.trace.NULL_RECORDER` to detach.
        """
        self.trace = recorder
        self.host.trace = recorder
        for acc in self.accelerators:
            acc.trace = recorder
            if acc.dma is not None:
                acc.dma.trace = recorder

    def attach_metrics(self, hub) -> None:
        """Install ``hub`` as the machine-wide metrics sink.

        Mirrors :meth:`attach_trace`: the hub is propagated to every
        core and DMA engine so each instrumentation site keeps its
        pre-bound reference (one attribute check per observation when
        disabled).  Must be called before building an execution engine
        for the machine; pass :data:`repro.obs.metrics.NULL_METRICS`
        to detach.
        """
        self.metrics = hub
        self.host.metrics = hub
        for acc in self.accelerators:
            acc.metrics = hub
            if acc.dma is not None:
                acc.dma.metrics = hub

    def accelerator(self, index: int) -> AcceleratorCore:
        """The ``index``-th accelerator core."""
        if not 0 <= index < len(self.accelerators):
            raise MachineError(
                f"accelerator index {index} out of range "
                f"0..{len(self.accelerators) - 1}"
            )
        return self.accelerators[index]

    @property
    def heap(self) -> BumpAllocator:
        """Allocator over the main-memory heap region."""
        return self._heap

    def total_cycles(self) -> int:
        """The latest clock across all cores — wall-clock of the run."""
        latest = self.host.clock.now
        for acc in self.accelerators:
            latest = max(latest, acc.clock.now)
        return latest

    def __repr__(self) -> str:
        return (
            f"Machine(config={self.config.name!r}, "
            f"accelerators={len(self.accelerators)})"
        )
