"""The offload scheduler: placement, bounded queues, accounting.

Both VM engines route every offload launch through one
:class:`OffloadScheduler` owned by the interpreter.  The scheduler has
two operating modes:

* **compat** (``RunOptions.sched is None``) — placement is greedy,
  queues are unbounded, no code-upload cost is modelled and no
  ``sched.*`` trace events are emitted.  Runs are cycle-for-cycle and
  trace-identical to the scheduler-less VM; utilization statistics are
  still collected (they never touch the clocks).
* **explicit** (``RunOptions.sched = SchedOptions(...)``) — the
  configured :class:`repro.sched.policy.SchedulingPolicy` places each
  job, per-accelerator ready queues are bounded by
  :attr:`SchedOptions.queue_depth` with host-side backpressure (or a
  trap) when full, cold code-image uploads are charged before a block's
  first run on a given accelerator, and the run emits ``sched.submit``
  / ``sched.dispatch`` / ``sched.stall`` / ``sched.upload`` trace
  events on a dedicated scheduler lane.

The upload model is what makes locality-aware placement pay off: an
offload block's duplicated code image (sized from the
:mod:`repro.analysis.footprint` call-graph walk) must be DMA'd into an
accelerator's local store before its first run *on that accelerator*,
and stays resident afterwards.  Greedy placement rotates blocks across
cores and re-uploads every frame; ``locality`` reuses the warm core and
pays once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.errors import RuntimeTrap
from repro.ir.module import IRProgram
from repro.machine.machine import Machine
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import (
    EV_SCHED_DISPATCH,
    EV_SCHED_STALL,
    EV_SCHED_SUBMIT,
    EV_SCHED_UPLOAD,
    NULL_RECORDER,
)
from repro.sched.policy import (
    POLICY_NAMES,
    PlacementView,
    SchedulingPolicy,
    make_policy,
)

#: Track name of the scheduler lane in trace exports.
SCHED_TRACK = "sched"

#: Static body-duration estimate: cycles charged per reachable IR
#: instruction when no profile is available.  Deliberately coarse — the
#: estimate only has to *rank* jobs, not predict them.
ESTIMATE_CYCLES_PER_INSTR = 6


def offload_instructions(program: IRProgram, offload_id: int) -> int:
    """IR instructions in the functions one offload block can reach: its
    code image.  Counted once per program object, and again only when
    :meth:`~repro.runtime.dispatch.DomainTable.add` has grown the
    offload's domain table since."""
    meta = program.offload_meta[offload_id]
    counts = program.__dict__.setdefault("_offload_instructions", {})
    cached = counts.get(offload_id)
    if cached is None or cached[0] != meta.domain.generation:
        # Imported here: repro.analysis pulls in the vm package, whose
        # interpreter imports this module (a top-level import cycles).
        from repro.analysis.footprint import reachable_functions

        names = reachable_functions(program, meta)
        cached = counts[offload_id] = (meta.domain.generation, sum(
            len(program.functions[name].code)
            for name in names
            if name in program.functions
        ))
    return cached[1]


@dataclass(frozen=True)
class SchedOptions:
    """Explicit-scheduling knobs (absence means compat mode).

    Attributes:
        policy: One of :data:`repro.sched.policy.POLICY_NAMES`.
        queue_depth: Per-accelerator ready-queue bound; ``0`` means
            unbounded (no admission control).  ``None`` (the default)
            picks the target's own bound
            (:attr:`repro.machine.config.MachineConfig.sched_queue_depth`
            — 0 everywhere except the many-core grid, whose tiny job
            slots bound it at 2).
        admission: What a full queue does to the host: ``"stall"``
            blocks the host clock until a slot frees (backpressure),
            ``"trap"`` raises :class:`repro.errors.RuntimeTrap`.
        model_uploads: Charge cold code-image uploads.  On, this is
            what differentiates locality-aware policies; off, explicit
            greedy placement costs exactly what compat mode does.
        profile: Optional prior-run profile mapping ``offload_id`` to
            observed body cycles, e.g. ``SchedStats.profile`` from an
            earlier run; sharpens ``critical-path`` estimates.
    """

    policy: str = "greedy"
    queue_depth: Optional[int] = None
    admission: str = "stall"
    model_uploads: bool = True
    profile: Optional[Mapping[int, int]] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown scheduling policy {self.policy!r}; choose one "
                f"of {', '.join(POLICY_NAMES)}"
            )
        if self.queue_depth is not None and self.queue_depth < 0:
            raise ValueError(
                f"queue_depth must be >= 0, got {self.queue_depth}"
            )
        if self.admission not in ("stall", "trap"):
            raise ValueError(
                f"admission must be 'stall' or 'trap', "
                f"got {self.admission!r}"
            )


@dataclass
class AccelStats:
    """Utilization accounting for one accelerator."""

    jobs: int = 0
    busy_cycles: int = 0
    queue_wait_cycles: int = 0
    upload_cycles: int = 0
    queue_high_water: int = 0

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "busy_cycles": self.busy_cycles,
            "queue_wait_cycles": self.queue_wait_cycles,
            "upload_cycles": self.upload_cycles,
            "queue_high_water": self.queue_high_water,
        }


@dataclass
class SchedStats:
    """Whole-run scheduler accounting, attached to ``RunResult.sched``.

    Collected in both modes (it never advances a clock); stalls and
    uploads only occur in explicit mode.
    """

    policy: str
    queue_depth: int
    accels: list[AccelStats] = field(default_factory=list)
    jobs: int = 0
    stalls: int = 0
    stall_cycles: int = 0
    uploads: int = 0
    #: Last observed body duration per offload id — feed it back via
    #: :attr:`SchedOptions.profile` to sharpen critical-path estimates.
    profile: dict[int, int] = field(default_factory=dict)

    @property
    def busy_cycles(self) -> int:
        return sum(a.busy_cycles for a in self.accels)

    @property
    def queue_high_water(self) -> int:
        return max((a.queue_high_water for a in self.accels), default=0)

    def utilization(self, total_cycles: int) -> list[float]:
        """Per-accelerator busy share of the run's total cycles."""
        if total_cycles <= 0:
            return [0.0 for _ in self.accels]
        return [a.busy_cycles / total_cycles for a in self.accels]

    def as_dict(self, total_cycles: Optional[int] = None) -> dict:
        out = {
            "policy": self.policy,
            "queue_depth": self.queue_depth,
            "jobs": self.jobs,
            "stalls": self.stalls,
            "stall_cycles": self.stall_cycles,
            "uploads": self.uploads,
            "busy_cycles": self.busy_cycles,
            "queue_high_water": self.queue_high_water,
            "accelerators": [a.as_dict() for a in self.accels],
        }
        if total_cycles is not None:
            out["total_cycles"] = total_cycles
            out["utilization"] = [
                round(u, 4) for u in self.utilization(total_cycles)
            ]
        return out


class OffloadScheduler:
    """Places offload jobs on accelerators for one program run.

    The interpreter owns one instance and consults it in launch order:
    :meth:`submit` → :meth:`admit` → :meth:`begin` → (the engine runs
    the block body) → :meth:`complete` → :meth:`dispatched`.  All state
    the policies see derives from the deterministic simulation, so both
    VM engines make identical decisions.
    """

    def __init__(
        self,
        program: IRProgram,
        machine: Machine,
        options: Optional[SchedOptions],
        trace=NULL_RECORDER,
    ):
        self.program = program
        self.machine = machine
        self.options = options
        self.enabled = options is not None
        self.policy: SchedulingPolicy = make_policy(
            options.policy if options else "greedy"
        )
        count = len(machine.accelerators)
        #: Resolved ready-queue bound: an explicit
        #: ``SchedOptions.queue_depth`` wins, else the target's own
        #: ``sched_queue_depth``; always 0 (unbounded) in compat mode.
        self.queue_depth = 0
        if options is not None:
            self.queue_depth = (
                options.queue_depth
                if options.queue_depth is not None
                else machine.config.sched_queue_depth
            )
        #: Cycle at which each accelerator frees up.  The interpreter
        #: aliases this list as ``_accel_available``.
        self.available: list[int] = [0] * count
        self.stats = SchedStats(
            policy=self.policy.name,
            queue_depth=self.queue_depth,
            accels=[AccelStats() for _ in range(count)],
        )
        self._trace = trace
        #: Pre-bound metrics sink (the machine's hub; attach before
        #: building an engine, like the trace recorder).
        self._metrics = machine.metrics if machine is not None else NULL_METRICS
        #: (accel index, offload id) pairs whose code image is resident.
        self._resident: set[tuple[int, int]] = set()
        #: Per-accelerator start cycles of assigned-but-not-yet-started
        #: jobs (the simulated ready queues), pruned lazily.
        self._queued_starts: list[list[int]] = [[] for _ in range(count)]

    # ------------------------------------------------------------- modelling

    def code_bytes(self, offload_id: int) -> int:
        """Size of the offload's duplicated code image in bytes."""
        return self.machine.config.code_bytes_per_instr * offload_instructions(
            self.program, offload_id
        )

    def _image_cycles(self, offload_id: int) -> int:
        cost = self.machine.config.cost
        transfer = -(-self.code_bytes(offload_id) // cost.dma_bytes_per_cycle)
        return cost.dma_setup + cost.dma_latency + transfer

    def upload_cycles(self, offload_id: int, accel_index: int) -> int:
        """Cold-upload cost of the offload on one accelerator (0 when
        resident, when uploads aren't modelled, or on shared-memory
        cores that execute code straight from main memory)."""
        if not self.enabled or not self.options.model_uploads:
            return 0
        if self.machine.accelerators[accel_index].local_store is None:
            return 0
        if (accel_index, offload_id) in self._resident:
            return 0
        return self._image_cycles(offload_id)

    def estimate_cycles(self, offload_id: int) -> int:
        """Estimated body duration: this run's observations first, then
        the supplied prior-run profile, then a static instruction count."""
        observed = self.stats.profile.get(offload_id)
        if observed is not None:
            return observed
        if self.options is not None and self.options.profile is not None:
            prior = self.options.profile.get(offload_id)
            if prior is not None:
                return prior
        return ESTIMATE_CYCLES_PER_INSTR * offload_instructions(
            self.program, offload_id
        )

    # ------------------------------------------------------------ lifecycle

    def submit(self, offload_id: int, job: int, now: int) -> None:
        """Record one job entering the scheduler (host side)."""
        self.stats.jobs += 1
        if self.enabled and self._trace.enabled:
            self._trace.emit(
                now,
                SCHED_TRACK,
                EV_SCHED_SUBMIT,
                (job, offload_id, self.policy.name),
            )

    def admit(
        self,
        offload_id: int,
        ctx,
        affinity: Optional[int] = None,
    ) -> int:
        """Choose the accelerator and apply admission control.

        May advance ``ctx.now`` (host backpressure stall) or raise
        :class:`RuntimeTrap` under ``admission="trap"``.
        """
        count = len(self.available)
        if affinity is not None:
            if not 0 <= affinity < count:
                raise RuntimeTrap(
                    f"job affinity names accelerator {affinity} but the "
                    f"machine has {count}"
                )
            index = affinity
        else:
            view = PlacementView(
                now=ctx.now,
                available=self.available,
                busy=[a.busy_cycles for a in self.stats.accels],
                resident=lambda i: (i, offload_id) in self._resident,
                upload_cycles=lambda i: self.upload_cycles(offload_id, i),
                estimate=self.estimate_cycles(offload_id),
                spawn_cost=self.machine.config.cost.thread_spawn,
            )
            index = self.policy.choose(view)
        depth = self.queue_depth
        if depth > 0:
            queued = self._queued(index, ctx.now)
            if len(queued) >= depth:
                if self.options.admission == "trap":
                    raise RuntimeTrap(
                        f"accelerator {index} ready queue full "
                        f"(depth {depth}) at cycle {ctx.now}"
                    )
                # Backpressure: the host blocks until enough queued
                # jobs have started that one slot is free again.
                resume = sorted(queued)[len(queued) - depth]
                stall_start = ctx.now
                ctx.now = resume
                self.stats.stalls += 1
                self.stats.stall_cycles += resume - stall_start
                ctx.core.perf.add("sched.stalls")
                ctx.core.perf.add("sched.stall_cycles", resume - stall_start)
                metrics = self._metrics
                if metrics.enabled:
                    metrics.observe(
                        "sched.stall_cycles", None, resume - stall_start
                    )
                if self._trace.enabled:
                    self._trace.emit(
                        stall_start,
                        SCHED_TRACK,
                        EV_SCHED_STALL,
                        (index, resume),
                    )
        return index

    def begin(self, offload_id: int, accel_index: int, now: int) -> tuple[int, int]:
        """Start one job on its accelerator.

        Returns ``(start, body_start)``: ``start`` is when the core is
        seized (spawn complete), ``body_start`` is when the block body
        begins — later than ``start`` by the upload cost when the code
        image is cold.
        """
        accelerator = self.machine.accelerators[accel_index]
        accel_stats = self.stats.accels[accel_index]
        available = self.available[accel_index]
        accel_stats.queue_wait_cycles += max(0, available - now)
        start = max(now, available) + accelerator.cost.thread_spawn
        upload = self.upload_cycles(offload_id, accel_index)
        body_start = start + upload
        if upload:
            self.stats.uploads += 1
            accel_stats.upload_cycles += upload
            accelerator.perf.add("sched.uploads")
            accelerator.perf.add(
                "sched.upload_bytes", self.code_bytes(offload_id)
            )
            if self._trace.enabled:
                self._trace.emit(
                    start,
                    accelerator.name,
                    EV_SCHED_UPLOAD,
                    (offload_id, self.code_bytes(offload_id), body_start),
                )
        self._resident.add((accel_index, offload_id))
        # The job sits in the ready queue until `start`; record it for
        # occupancy accounting and the high-water mark.
        queue = self._queued_starts[accel_index]
        queue.append(start)
        occupancy = len([s for s in queue if s > now])
        if occupancy > accel_stats.queue_high_water:
            accel_stats.queue_high_water = occupancy
        metrics = self._metrics
        if metrics.enabled:
            metrics.observe("sched.queue_occupancy", None, occupancy)
        return start, body_start

    def complete(
        self, offload_id: int, accel_index: int,
        start: int, body_start: int, finish: int,
    ) -> None:
        """Record one job's completion and free the accelerator slot."""
        self.available[accel_index] = finish
        accel_stats = self.stats.accels[accel_index]
        accel_stats.jobs += 1
        accel_stats.busy_cycles += finish - start
        self.stats.profile[offload_id] = finish - body_start

    def dispatched(self, job: int, accel_index: int, now: int) -> None:
        """Emit the host-side placement record for one launched job."""
        if self.enabled and self._trace.enabled:
            queued = len(self._queued(accel_index, now))
            self._trace.emit(
                now,
                SCHED_TRACK,
                EV_SCHED_DISPATCH,
                (job, accel_index, queued),
            )

    # ------------------------------------------------------------ internals

    def _queued(self, accel_index: int, now: int) -> list[int]:
        """Start cycles of jobs still queued on an accelerator at
        ``now`` (prunes entries that have already started)."""
        queue = [s for s in self._queued_starts[accel_index] if s > now]
        self._queued_starts[accel_index] = queue
        return queue
