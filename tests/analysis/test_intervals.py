"""Unit tests for the interval × congruence abstract domain and the
whole-function interval analysis (loop refinement, summaries, trips)."""

import pytest

from repro.analysis.intervals import (
    AbsAddr,
    AbsInt,
    Congruence,
    Interval,
    TOP_INT,
    _arith,
    analyze_function,
    compute_summaries,
    loop_trips,
)
from repro.compiler.driver import compile_program
from repro.ir.instructions import Intrinsic
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.vm.interpreter import run_program


class TestInterval:
    def test_const_and_contains(self):
        five = Interval.const(5)
        assert five.is_const and five.bounded
        assert five.contains(5) and not five.contains(6)
        assert Interval(None, 10).contains(-(10**9))

    def test_join_and_meet(self):
        a, b = Interval(0, 5), Interval(3, 9)
        assert a.join(b) == Interval(0, 9)
        assert a.meet(b) == Interval(3, 5)
        assert Interval(0, 2).meet(Interval(5, 9)) is None  # empty

    def test_widen_blows_grown_endpoints(self):
        old, new = Interval(0, 10), Interval(0, 11)
        assert old.widen(new) == Interval(0, None)
        assert old.widen(Interval(-1, 10)) == Interval(None, 10)
        assert old.widen(Interval(2, 9)) == old  # shrink: stable

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 2)


class TestCongruence:
    def test_const_and_contains(self):
        c = Congruence.const(24)
        assert c.contains(24) and not c.contains(25)
        stride = Congruence(24, 8)
        assert stride.contains(8) and stride.contains(32)
        assert not stride.contains(9)

    def test_join_is_gcd(self):
        # {0 mod 8} ⊔ {4 mod 8} = {0 mod 4}
        assert Congruence(8, 0).join(Congruence(8, 4)) == Congruence(4, 0)
        # constants 6 and 10 -> 2 mod 4... gcd(0,0,4)=4, rem 6%4=2
        assert Congruence.const(6).join(Congruence.const(10)) == Congruence(4, 2)

    def test_granger_arithmetic(self):
        a = Congruence(8, 4)
        assert a.add(Congruence.const(4)) == Congruence(8, 0)
        assert a.mul(Congruence.const(3)) == Congruence(24, 12)
        assert a.sub(a).mod in (8, 0)  # still a sound over-approximation

    def test_aligned_to_three_valued(self):
        assert Congruence(8, 0).aligned_to(8) is True
        assert Congruence(8, 4).aligned_to(8) is False
        # stride 4 mixes 8-aligned and not: undecided
        assert Congruence(4, 0).aligned_to(8) is None
        assert Congruence.const(24).aligned_to(8) is True


class TestAbsInt:
    def test_const_carries_both_domains(self):
        v = AbsInt.const(24)
        assert v.const_value == 24
        assert v.contains(24) and not v.contains(23)

    def test_join_and_widen(self):
        a, b = AbsInt.const(0), AbsInt.const(24)
        j = a.join(b)
        assert j.interval == Interval(0, 24)
        assert j.cong == Congruence(24, 0)
        w = a.widen(b)
        assert w.interval.hi is None  # widened
        assert TOP_INT.join(a) == TOP_INT


class TestWrapSoundArithmetic:
    """A result that may leave the signed 32-bit range wraps in the VM:
    only the power-of-two part of its modulus survives."""

    def test_unbounded_product_keeps_only_the_power_of_two_part(self):
        grown = AbsInt(Interval(15, None), Congruence(3150, 225))
        squared = _arith("*", grown, grown)
        assert squared.interval == Interval(None, None)
        assert squared.cong == Congruence(2, 1)  # odd stays odd
        assert squared.contains(-1732076671)  # 15**8 wrapped

    def test_alignment_facts_survive_a_possible_wrap(self):
        index = AbsInt(Interval(0, None), Congruence(1, 0))
        offset = _arith("*", index, AbsInt.const(48))
        assert offset.cong == Congruence(16, 0)
        assert offset.cong.aligned_to(16) is True

    def test_overflowing_constant_wraps_to_its_machine_value(self):
        big = AbsInt.const(2**31 - 1)
        assert _arith("+", big, AbsInt.const(1)) == AbsInt.const(-(2**31))

    def test_in_range_results_keep_the_full_modulus(self):
        a = AbsInt(Interval(0, 100), Congruence(24, 8))
        assert _arith("*", a, AbsInt.const(3)).cong == Congruence(72, 24)


LOOP_DMA = """
int g_data[16];
void main() {
    __offload {
        int a[16];
        for (int i = 0; i < 20; i = i + 1) {
            dma_get(&a[0], &g_data[i], 16, 3);
            dma_wait(3);
        }
    };
}
"""


def _offload_entry(program):
    return next(
        f
        for f in program.accel_functions()
        if f.source_name.startswith("__offload_")
    )


def _dma_site(function, name="dma_get"):
    return next(
        i
        for i, instr in enumerate(function.code)
        if isinstance(instr, Intrinsic) and instr.name == name
    )


class TestRemainderTruncatesTowardZero:
    """``%`` is C's: the remainder takes the dividend's sign.  The
    transfer function used to answer ``[0, d-1]`` for any dividend, so
    the VM printed a value outside its predicted interval."""

    SOURCE = """
    void main() {
        __offload {
            int x = 0 - 7;
            int y = x % 4;
            print_int(y);
        };
    }
    """

    def test_printed_value_lies_in_the_predicted_interval(self):
        program = compile_program(self.SOURCE, CELL_LIKE)
        entry = _offload_entry(program)
        site = _dma_site(entry, "print_int")
        predicted = analyze_function(entry).values_before(site)[
            entry.code[site].args[0]
        ]
        ((_, printed),) = run_program(program, Machine(CELL_LIKE)).output
        assert printed == -3
        assert predicted.contains(printed)

    def test_the_sign_of_the_dividend_decides_the_range(self):
        four = AbsInt.const(4)
        spans_zero = AbsInt(Interval(-9, 9), Congruence(1, 0))
        assert _arith("%", spans_zero, four).interval == Interval(-3, 3)
        assert _arith(
            "%", AbsInt(Interval(0, 9), Congruence(1, 0)), four
        ).interval == Interval(0, 3)
        # |x| < d: the remainder is x itself, negative or not.
        small = AbsInt(Interval(-3, 2), Congruence(1, 0))
        assert _arith("%", small, four) is small
        # Unsigned, a negative remainder is masked to something huge.
        assert _arith("%", spans_zero, four, signed=False) == TOP_INT


class TestLoopAnalysis:
    def test_loop_body_offsets_are_clipped_and_strided(self):
        """The headline precision property: after widening at the loop
        head, the body-entry edge re-clips the counter to [0, 19], so
        the DMA's outer address is [0, 76] with stride 4."""
        program = compile_program(LOOP_DMA, CELL_LIKE)
        entry = _offload_entry(program)
        solved = analyze_function(entry)
        site = _dma_site(entry)
        regs = solved.values_before(site)
        instr = entry.code[site]
        outer = regs[instr.args[1]]
        assert isinstance(outer, AbsAddr)
        assert outer.region == "global:g_data"
        assert outer.offset.interval == Interval(0, 76)
        assert outer.offset.cong == Congruence(4, 0)
        size = regs[instr.args[2]]
        assert size.const_value == 16

    def test_trip_count_is_exact(self):
        program = compile_program(LOOP_DMA, CELL_LIKE)
        entry = _offload_entry(program)
        solved = analyze_function(entry)
        loops = solved.cfg.natural_loops()
        assert len(loops) == 1
        trips = loop_trips(solved, loops[0])
        assert trips.exact
        assert trips.max_trips == 20

    def test_data_dependent_bound_is_unbounded(self):
        source = """
        int g_n;
        void main() {
            __offload {
                int s = 0;
                for (int i = 0; i < g_n; i = i + 1) { s = s + 1; }
            };
        }
        """
        program = compile_program(source, CELL_LIKE)
        entry = _offload_entry(program)
        solved = analyze_function(entry)
        loops = solved.cfg.natural_loops()
        assert len(loops) == 1
        assert loop_trips(solved, loops[0]).max_trips is None


class TestSummaries:
    def test_callee_return_intervals_reach_the_dma_site(self):
        """Interprocedural flavour: the DMA offset is computed by a
        helper; its summary (param joins -> return interval) bounds the
        transfer address back at the offload's site."""
        source = """
        int g_data[16];
        int pick(int basis) { return basis + 8; }
        void main() {
            __offload {
                int a[8];
                dma_get(&a[0], &g_data[pick(0)], 16, 1);
                dma_wait(1);
                dma_get(&a[0], &g_data[pick(2)], 16, 1);
                dma_wait(1);
            };
        }
        """
        program = compile_program(source, CELL_LIKE)
        accel = sorted(program.accel_functions(), key=lambda f: f.name)
        summaries = compute_summaries(accel)
        helper = next(f for f in accel if f.source_name == "pick")
        ret = summaries[helper.name].ret
        assert isinstance(ret, AbsInt)
        assert ret.interval == Interval(8, 10)

        entry = _offload_entry(program)
        solved = analyze_function(entry, summaries)
        site = _dma_site(entry)
        instr = entry.code[site]
        outer = solved.values_before(site)[instr.args[1]]
        assert isinstance(outer, AbsAddr)
        assert outer.offset.interval.bounded
        # &g_data[8] with 4-byte ints: both call sites' offsets land in
        # [32, 40].
        assert outer.offset.interval.lo >= 32
        assert outer.offset.interval.hi <= 40
