"""CFG construction and a generic worklist dataflow framework.

A per-basic-block abstract interpretation *resets at labels and
branches* — every loop or branching DMA idiom silently falls through to
the dynamic checker.  This module is the foundation that removes that
limitation: a control-flow graph over :class:`repro.ir.module.IRFunction`
and a forward worklist fixpoint engine with pluggable join/transfer
functions, in the spirit of the Scratch (TACAS 2010) static DMA analyser
the paper cites.

Three layers:

* :func:`build_cfg` — basic blocks, successor/predecessor edges,
  reverse postorder, dominators, back edges and natural loops.
* :class:`ForwardAnalysis` / :func:`solve_forward` — the fixpoint
  engine.  Analyses provide ``boundary`` (entry state), ``join`` and a
  per-block ``transfer``; the engine iterates in reverse-postorder until
  block-out states stop changing.  A ``widen`` hook is applied after a
  block has been revisited ``widen_after`` times, bounding loop-carried
  state growth.
* :func:`solve_call_graph` — the interprocedural driver: per-function
  summaries to a fixpoint over the call graph, re-solving a function
  only when something it reads changed, and keeping the solves.

The one abstract value domain every analysis reads register values
from is the interval solve of :mod:`repro.analysis.intervals`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.ir.instructions import Call, CJump, Jump, Ret, Trap
from repro.ir.module import IRFunction

#: Instructions that end a basic block.
_TERMINATORS = (Jump, CJump, Ret, Trap)


# ------------------------------------------------------------------- CFG


@dataclass
class BasicBlock:
    """A maximal straight-line instruction range ``[start, end)``."""

    index: int
    start: int
    end: int
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)
    #: Label names whose targets are ``start``.
    labels: tuple[str, ...] = ()

    def instructions(self, function: IRFunction):
        """Iterate ``(instr_index, instr)`` pairs of this block."""
        for index in range(self.start, self.end):
            yield index, function.code[index]


class ControlFlowGraph:
    """Basic blocks and edges of one IR function (entry is block 0)."""

    def __init__(self, function: IRFunction, blocks: list[BasicBlock]):
        self.function = function
        self.blocks = blocks
        self._block_of_index: dict[int, int] = {}
        for block in blocks:
            for index in range(block.start, block.end):
                self._block_of_index[index] = block.index
        self._rpo: Optional[list[int]] = None
        self._doms: Optional[list[set[int]]] = None

    @property
    def entry(self) -> int:
        return 0

    def block_at(self, instr_index: int) -> BasicBlock:
        """The block containing one instruction index."""
        return self.blocks[self._block_of_index[instr_index]]

    # -------------------------------------------------------------- orders

    def reverse_postorder(self) -> list[int]:
        """Block indices in reverse postorder from the entry.

        Unreachable blocks are excluded; analyses iterate this order so
        a block's predecessors are (loops aside) visited first.
        """
        if self._rpo is not None:
            return self._rpo
        if not self.blocks:
            self._rpo = []
            return self._rpo
        seen: set[int] = set()
        postorder: list[int] = []
        # Iterative DFS with an explicit successor cursor per frame.
        stack: list[tuple[int, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            node, cursor = stack.pop()
            succs = self.blocks[node].succs
            while cursor < len(succs) and succs[cursor] in seen:
                cursor += 1
            if cursor == len(succs):
                postorder.append(node)
                continue
            stack.append((node, cursor + 1))
            child = succs[cursor]
            seen.add(child)
            stack.append((child, 0))
        self._rpo = postorder[::-1]
        return self._rpo

    # ---------------------------------------------------------- dominators

    def dominators(self) -> list[set[int]]:
        """``doms[b]`` = blocks dominating ``b`` (iterative, small CFGs)."""
        if self._doms is not None:
            return self._doms
        rpo = self.reverse_postorder()
        all_reachable = set(rpo)
        doms: list[set[int]] = [set(all_reachable) for _ in self.blocks]
        if self.blocks:
            doms[self.entry] = {self.entry}
        changed = True
        while changed:
            changed = False
            for b in rpo:
                if b == self.entry:
                    continue
                preds = [p for p in self.blocks[b].preds if p in all_reachable]
                new = set(all_reachable)
                for p in preds:
                    new &= doms[p]
                new.add(b)
                if new != doms[b]:
                    doms[b] = new
                    changed = True
        self._doms = doms
        return doms

    def back_edges(self) -> list[tuple[int, int]]:
        """Edges ``u -> v`` where ``v`` dominates ``u`` (loop back edges)."""
        doms = self.dominators()
        edges = []
        for u in self.reverse_postorder():
            for v in self.blocks[u].succs:
                if v in doms[u]:
                    edges.append((u, v))
        return edges

    def natural_loops(self) -> list["Loop"]:
        """One :class:`Loop` per back edge, header-deduplicated (loops
        sharing a header are merged)."""
        bodies: dict[int, set[int]] = {}
        for u, header in self.back_edges():
            body = bodies.setdefault(header, {header})
            stack = [u]
            while stack:
                node = stack.pop()
                if node in body:
                    continue
                body.add(node)
                stack.extend(self.blocks[node].preds)
        return [
            Loop(header=header, body=frozenset(body))
            for header, body in sorted(bodies.items())
        ]


@dataclass(frozen=True)
class Loop:
    """A natural loop: its header block and every body block index."""

    header: int
    body: frozenset[int]


def build_cfg(function: IRFunction) -> ControlFlowGraph:
    """Partition a function into basic blocks and wire the edges."""
    code = function.code
    n = len(code)
    if n == 0:
        return ControlFlowGraph(function, [])
    leaders: set[int] = {0}
    targets_of_label = {name: idx for name, idx in function.labels.items()}
    labels_at: dict[int, list[str]] = {}
    for name, idx in sorted(targets_of_label.items()):
        if idx < n:
            leaders.add(idx)
            labels_at.setdefault(idx, []).append(name)
    for index, instr in enumerate(code):
        if isinstance(instr, _TERMINATORS) and index + 1 < n:
            leaders.add(index + 1)
    starts = sorted(leaders)
    blocks: list[BasicBlock] = []
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else n
        blocks.append(
            BasicBlock(
                index=bi,
                start=start,
                end=end,
                labels=tuple(labels_at.get(start, ())),
            )
        )
    block_of_start = {b.start: b.index for b in blocks}

    def target_block(label: str) -> Optional[int]:
        idx = targets_of_label[label]
        return block_of_start.get(idx)  # None: label at end of code = exit

    for block in blocks:
        last = code[block.end - 1]
        succs: list[int] = []
        if isinstance(last, Jump):
            t = target_block(last.label)
            if t is not None:
                succs.append(t)
        elif isinstance(last, CJump):
            for label in (last.then_label, last.else_label):
                t = target_block(label)
                if t is not None and t not in succs:
                    succs.append(t)
        elif isinstance(last, (Ret, Trap)):
            pass
        elif block.end < n:
            succs.append(block_of_start[block.end])
        block.succs = succs
    for block in blocks:
        for s in block.succs:
            blocks[s].preds.append(block.index)
    return ControlFlowGraph(function, blocks)


# -------------------------------------------------------- fixpoint engine


class ForwardAnalysis:
    """Interface a forward dataflow analysis implements.

    States are opaque immutable-ish values compared with ``==``.  The
    *bottom* element (no information yet / unreachable) is represented
    by ``None`` and never passed to ``join`` or ``transfer``.
    """

    def boundary(self):
        """The state on entry to the function."""
        raise NotImplementedError

    def join(self, a, b):
        """Least upper bound of two predecessor-out states."""
        raise NotImplementedError

    def transfer(self, block: BasicBlock, state):
        """The state after executing ``block`` from ``state``."""
        raise NotImplementedError

    def widen(self, old, new, visits: int):
        """Accelerate convergence once ``visits`` exceeds the engine's
        ``widen_after`` threshold.  Default: no widening."""
        return new

    def edge(self, pred: BasicBlock, succ_index: int, state):
        """Refine a predecessor-out state along the edge into block
        ``succ_index``.  Returning ``None`` marks the edge statically
        infeasible (its contribution is dropped).  The default is the
        identity — edge-insensitive analyses never notice the hook.

        This is what lets an analysis recover branch conditions: on the
        two out-edges of a ``cjump`` the condition register is known
        true/false, and an interval analysis can meet the compared
        operands with the implied bound (see
        :class:`repro.analysis.intervals.IntervalAnalysis`).
        """
        return state


@dataclass
class FixpointResult:
    """Solved dataflow: per-block entry/exit states and effort stats."""

    block_in: dict[int, object]
    block_out: dict[int, object]
    #: Number of block transfer applications until convergence.
    iterations: int
    converged: bool = True


def solve_forward(
    cfg: ControlFlowGraph,
    analysis: ForwardAnalysis,
    *,
    widen_after: int = 4,
    max_block_visits: int = 64,
) -> FixpointResult:
    """Run a forward analysis to fixpoint over one CFG.

    The worklist is prioritised by reverse-postorder position, so acyclic
    regions converge in one sweep and only loop bodies iterate.  After
    ``widen_after`` visits of the same block, :meth:`ForwardAnalysis.widen`
    is applied to its entry state — but only at *widening points*
    (targets of retreating edges, i.e. loop heads): widening a loop-body
    block would wipe out the precision an :meth:`ForwardAnalysis.edge`
    refinement just recovered on the body-entry edge, and every cycle
    passes through a retreating-edge target, so termination is
    unaffected.  ``max_block_visits`` is a hard safety valve (sets
    ``converged=False`` instead of looping forever on a non-monotone
    analysis bug).
    """
    rpo = cfg.reverse_postorder()
    if not rpo:
        return FixpointResult({}, {}, 0)
    rpo_pos = {b: i for i, b in enumerate(rpo)}
    widen_points = {
        b
        for b in rpo
        for p in cfg.blocks[b].preds
        if rpo_pos.get(p, -1) >= rpo_pos[b]
    }
    block_in: dict[int, object] = {}
    block_out: dict[int, object] = {}
    visits: dict[int, int] = {}
    iterations = 0
    converged = True
    heap: list[tuple[int, int]] = [(rpo_pos[b], b) for b in rpo]
    heapq.heapify(heap)
    queued = set(rpo)
    while heap:
        _, b = heapq.heappop(heap)
        if b not in queued:
            continue
        queued.discard(b)
        block = cfg.blocks[b]
        state = analysis.boundary() if b == cfg.entry else None
        for p in block.preds:
            out = block_out.get(p)
            if out is None:
                continue
            out = analysis.edge(cfg.blocks[p], b, out)
            if out is None:
                continue  # statically infeasible edge
            state = out if state is None else analysis.join(state, out)
        if state is None:
            continue  # not reachable yet
        count = visits.get(b, 0) + 1
        visits[b] = count
        if count > max_block_visits:
            converged = False
            continue
        if count > widen_after and b in widen_points and b in block_in:
            state = analysis.widen(block_in[b], state, count)
        block_in[b] = state
        new_out = analysis.transfer(block, state)
        iterations += 1
        if block_out.get(b) == new_out and b in block_out:
            continue
        block_out[b] = new_out
        for s in block.succs:
            if s not in queued:
                queued.add(s)
                heapq.heappush(heap, (rpo_pos[s], s))
    return FixpointResult(block_in, block_out, iterations, converged)


# ------------------------------------------------ call-graph fixpoint


def call_targets(function: IRFunction) -> tuple[str, ...]:
    """Names of the functions ``function`` calls directly, in code order."""
    return tuple(
        dict.fromkeys(i.callee for i in function.code if isinstance(i, Call))
    )


class Summaries(dict):
    """Function name → summary, plus ``solved[name]``: that function's
    dataflow solved against exactly these summaries, for consumers to
    read instead of solving again (empty unless ``converged``)."""

    def __init__(self, summaries: dict, solved: dict, converged: bool):
        super().__init__(summaries)
        self.solved = solved
        self.converged = converged


def solve_call_graph(
    functions: list[IRFunction],
    inputs: Callable[[IRFunction, dict], object],
    solve: Callable[[IRFunction, dict], tuple],
    *,
    max_rounds: int,
    end_round: Optional[Callable[[dict], bool]] = None,
) -> Summaries:
    """Round-robin fixpoint of per-function summaries over a call graph.

    ``solve(function, summaries)`` returns ``(solved, summary)``;
    ``inputs(function, summaries)`` is everything that solve reads from
    outside the function's own body.  A function is solved in the first
    round and afterwards only when its inputs differ from what its last
    solve saw.  ``end_round(solved)`` runs after each round and returns
    True when it changed something ``inputs`` reads.  Rounds stop when
    one changes nothing, or after ``max_rounds`` — the solves, made
    against partial summaries, are then dropped.
    """
    # A plain dict while solving: every solve keeps a reference to it, and
    # one to the object that holds the solves would be a reference cycle.
    summaries: dict = {}
    solved: dict = {}
    seen: dict = {}
    for _ in range(max_rounds):
        changed = False
        for function in functions:
            name = function.name
            key = inputs(function, summaries)
            if seen.get(name) == key:
                continue
            seen[name] = key
            solved[name], summary = solve(function, summaries)
            if summaries.get(name) != summary:
                summaries[name] = summary
                changed = True
        if end_round is not None and end_round(solved):
            changed = True
        if not changed:
            return Summaries(summaries, solved, True)
    return Summaries(summaries, {}, False)
