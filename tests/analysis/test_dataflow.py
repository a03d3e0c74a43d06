"""Direct unit tests for the CFG + dataflow framework."""

import pytest

from repro.analysis.dataflow import ForwardAnalysis, build_cfg, solve_forward
from repro.analysis.intervals import (
    TOP_INT,
    AbsAddr,
    AbsInt,
    AbsState,
    Interval,
    IntervalAnalysis,
    analyze_function,
    join_abs,
    widen_abs,
)
from repro.ir.instructions import (
    BinOp,
    CJump,
    Const,
    FrameAddr,
    GlobalAddr,
    Jump,
    Move,
    Ret,
)
from repro.ir.module import IRFunction


def loop_function() -> IRFunction:
    """for (r0 = 0; r0 < 10; r0++) {}  — one natural loop."""
    return IRFunction(
        name="loop",
        params=[],
        num_regs=4,
        code=[
            Const(dst=2, value=10),          # 0        block 0
            Const(dst=0, value=0),           # 1
            BinOp(op="<", dst=1, a=0, b=2),  # 2  head  block 1
            CJump(cond=1, then_label="body", else_label="exit"),  # 3
            Const(dst=3, value=1),           # 4  body  block 2
            BinOp(op="+", dst=0, a=0, b=3),  # 5
            Jump(label="head"),              # 6
            Ret(),                           # 7  exit  block 3
        ],
        labels={"head": 2, "body": 4, "exit": 7},
    )


def diamond_function() -> IRFunction:
    """if (r0) r1 = 1 else r1 = 2; join; ret — acyclic diamond."""
    return IRFunction(
        name="diamond",
        params=["c"],
        num_regs=2,
        code=[
            CJump(cond=0, then_label="then", else_label="else"),  # 0  b0
            Const(dst=1, value=1),   # 1  then  b1
            Jump(label="join"),      # 2
            Const(dst=1, value=2),   # 3  else  b2
            Jump(label="join"),      # 4
            Ret(src=1),              # 5  join  b3
        ],
        labels={"then": 1, "else": 3, "join": 5},
    )


class TestCfgConstruction:
    def test_blocks_partition_the_code(self):
        cfg = build_cfg(loop_function())
        spans = [(b.start, b.end) for b in cfg.blocks]
        assert spans == [(0, 2), (2, 4), (4, 7), (7, 8)]

    def test_edges(self):
        cfg = build_cfg(loop_function())
        assert cfg.blocks[0].succs == [1]
        assert sorted(cfg.blocks[1].succs) == [2, 3]
        assert cfg.blocks[2].succs == [1]  # back edge
        assert cfg.blocks[3].succs == []
        assert sorted(cfg.blocks[1].preds) == [0, 2]

    def test_block_at_maps_instruction_indices(self):
        cfg = build_cfg(loop_function())
        assert cfg.block_at(0).index == 0
        assert cfg.block_at(3).index == 1
        assert cfg.block_at(6).index == 2

    def test_label_names_attached_to_blocks(self):
        cfg = build_cfg(loop_function())
        assert cfg.blocks[1].labels == ("head",)

    def test_empty_function(self):
        cfg = build_cfg(IRFunction(name="empty", params=[], code=[]))
        assert cfg.blocks == []
        assert cfg.reverse_postorder() == []


class TestOrders:
    def test_rpo_starts_at_entry(self):
        assert build_cfg(loop_function()).reverse_postorder()[0] == 0

    def test_rpo_preds_before_succs_when_acyclic(self):
        cfg = build_cfg(diamond_function())
        rpo = cfg.reverse_postorder()
        position = {b: i for i, b in enumerate(rpo)}
        for block in cfg.blocks:
            for succ in block.succs:
                if succ == block.index:
                    continue
                # In an acyclic CFG every edge goes forward in RPO.
                assert position[block.index] < position[succ]

    def test_rpo_excludes_unreachable_blocks(self):
        fn = IRFunction(
            name="dead",
            params=[],
            code=[
                Jump(label="end"),   # 0  b0
                Const(dst=0, value=1),  # 1  b1 (unreachable)
                Ret(),               # 2  end b2
            ],
            labels={"end": 2},
        )
        rpo = build_cfg(fn).reverse_postorder()
        assert 1 not in rpo

    def test_dominators_and_back_edges(self):
        cfg = build_cfg(loop_function())
        doms = cfg.dominators()
        assert doms[3] == {0, 1, 3}  # exit dominated by entry + header
        assert cfg.back_edges() == [(2, 1)]

    def test_natural_loops(self):
        loops = build_cfg(loop_function()).natural_loops()
        assert len(loops) == 1
        assert loops[0].header == 1
        assert loops[0].body == frozenset({1, 2})

    def test_diamond_has_no_loops(self):
        assert build_cfg(diamond_function()).natural_loops() == []


def const(value):
    return AbsInt.const(value)


def addr(region, offset):
    return AbsAddr(region, const(offset))


class TestLattice:
    def test_join_equal_values(self):
        assert join_abs(const(7), const(7)) == const(7)
        frame16 = addr("frame", 16)
        assert join_abs(frame16, addr("frame", 16)) == frame16

    def test_join_same_region_widens_offset(self):
        joined = join_abs(addr("frame", 0), addr("frame", 8))
        assert joined.region == "frame"
        assert joined.offset.interval == Interval(0, 8)

    def test_join_different_regions_is_top(self):
        assert join_abs(addr("frame", 0), addr("global:g", 0)) is None
        assert join_abs(const(1), addr("frame", 0)) is None
        # Two integers join to their hull, not to top.
        assert join_abs(const(1), const(2)).interval == Interval(1, 2)

    def test_join_values_pointwise(self):
        a = {0: const(1), 1: addr("frame", 0), 2: const(5)}
        b = {0: const(1), 1: addr("frame", 4)}
        joined = IntervalAnalysis(diamond_function()).join(
            AbsState(a, {}, {}), AbsState(b, {}, {})
        )
        assert joined.regs == {0: const(1), 1: join_abs(a[1], b[1])}
        assert joined.regs[1].offset.interval == Interval(0, 4)

    def test_widened_offset_absorbs_shift(self):
        widened = AbsAddr("g", TOP_INT)
        assert widened.shifted(const(12)).offset.interval == TOP_INT.interval
        grown = widen_abs(addr("g", 4), addr("g", 8))
        assert grown.region == "g"
        assert grown.offset.interval == Interval(4, None)

    def test_eval_semantics(self):
        fn = IRFunction(
            name="values",
            params=[],
            num_regs=6,
            code=[
                Const(dst=0, value=8),
                FrameAddr(dst=1, offset=16),
                GlobalAddr(dst=2, name="g"),
                BinOp(op="+", dst=3, a=1, b=0),
                Move(dst=4, src=3),
                BinOp(op="+", dst=5, a=1, b=2),
                Ret(),
            ],
        )
        values = analyze_function(fn).values_before(6)
        assert values[3] == addr("frame", 24)
        assert values[4] == addr("frame", 24)
        assert values[2] == addr("global:g", 0)
        # The sum of two addresses is no address: top.
        assert 5 not in values


class TestFixpoint:
    def test_loop_converges_and_keeps_invariants(self):
        fn = loop_function()
        cfg = build_cfg(fn)
        result = solve_forward(cfg, IntervalAnalysis(fn))
        assert result.converged
        # The loop body runs more than once before the fixpoint.
        assert result.iterations > len(cfg.blocks)
        exit_in = result.block_in[3].regs
        assert exit_in[2] == const(10)  # loop-invariant constant survives
        # The induction variable is no constant; the exit edge bounds it.
        assert exit_in[0].const_value is None
        assert exit_in[0].interval.lo == 10

    def test_diamond_joins_disagreeing_constants(self):
        fn = diamond_function()
        result = solve_forward(build_cfg(fn), IntervalAnalysis(fn))
        join_in = result.block_in[3].regs
        assert join_in[1].interval == Interval(1, 2)  # r1 is 1 or 2

    def test_widen_hook_bounds_growing_chains(self):
        fn = loop_function()
        cfg = build_cfg(fn)

        class GrowingSets(ForwardAnalysis):
            """Deliberately non-converging without widening: collects
            every visit count into the state."""

            def __init__(self):
                self.widened = 0

            def boundary(self):
                return frozenset()

            def join(self, a, b):
                return a | b

            def transfer(self, block, state):
                if block.index == 2:  # loop body grows the set
                    return state | {len(state)}
                return state

            def widen(self, old, new, visits):
                self.widened += 1
                return frozenset({-1})  # jump straight to top

        analysis = GrowingSets()
        result = solve_forward(cfg, analysis, widen_after=3)
        assert result.converged
        assert analysis.widened >= 1
        assert result.block_in[3] == frozenset({-1})

    def test_max_block_visits_safety_valve(self):
        fn = loop_function()
        cfg = build_cfg(fn)

        class NeverStable(ForwardAnalysis):
            def boundary(self):
                return 0

            def join(self, a, b):
                return max(a, b)

            def transfer(self, block, state):
                return state + 1  # monotone and unbounded

        result = solve_forward(
            cfg, NeverStable(), widen_after=10_000, max_block_visits=8
        )
        assert not result.converged

    def test_boundary_reaches_entry_only(self):
        fn = diamond_function()
        cfg = build_cfg(fn)

        class Tag(ForwardAnalysis):
            def boundary(self):
                return frozenset({"entry"})

            def join(self, a, b):
                return a | b

            def transfer(self, block, state):
                return state | {block.index}

        result = solve_forward(cfg, Tag())
        assert "entry" in result.block_in[0]
        # The join block sees both arms.
        assert {1, 2} <= set(result.block_in[3])
