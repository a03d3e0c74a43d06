"""Interprocedural interval × congruence abstract interpretation.

The PR 4 checkers reason about DMA *discipline* (which transfers are in
flight) but not DMA *values*: an out-of-bounds or misaligned transfer
size computed in a loop sails through ``repro.tools.check`` and only
dies — or silently corrupts a neighbouring buffer — at simulation time.
This module closes that gap with a classic abstract-interpretation
layer in the style of Cousot's interval domain crossed with Granger's
congruence (stride/alignment) domain, built directly on the PR 4
dataflow framework (:mod:`repro.analysis.dataflow`):

* :class:`Interval` — ``[lo, hi]`` with ``None`` endpoints for ±∞,
  widening to converge around loop back edges.
* :class:`Congruence` — ``value ≡ rem (mod mod)``; ``mod == 0`` pins an
  exact constant, ``mod == 1`` is ⊤.  This is what proves *alignment*:
  an address striding by 24 from an 8-aligned base stays 8-aligned.
* :class:`AbsAddr` — a region (the frame or a global) plus an abstract
  *offset*.  This is the one value domain of the checker: the DMA
  discipline, bounds, cost and outer-traffic analyses all read their
  register values from the solve, through
  :meth:`SolvedFunction.walk`.
* :class:`IntervalAnalysis` — the forward transfer function over
  register maps, with **branch-edge refinement**: on the edge out of a
  ``cjump`` whose condition is a tracked comparison, both operands (and
  every register copy-equivalent to them) are met with the implied
  bound.  This is what keeps loop bodies precise after widening — the
  header widens the induction variable to ``[0, +∞)`` but the
  body-entry edge re-clips it to ``[0, n-1]`` — exactly the precision
  a static DMA bounds proof needs.
* :func:`compute_summaries` — per-function summaries over the accel
  call graph, in the style of :mod:`repro.analysis.dmacheck`: return
  intervals and joined call-site argument intervals iterated to a
  global fixpoint, so a helper returning a computed transfer size still
  yields a bounded value at the caller's DMA site.
* :func:`loop_trips` — trip-count bounds for natural loops from the
  solved states (exact for canonical counted loops), the input the
  static cost model (:mod:`repro.analysis.cost`) multiplies block costs
  by.

Code generation relies on this soundness: :func:`operand_values` hands
:mod:`repro.vm.codegen` each operand's and each result's value, and
where a result is bounded the generated code skips the op's 32-bit
wrap.  That reading holds because an integer op's result is bounded
only where its exact result stayed in range (:func:`_clamp32`,
:func:`_wrap_sound`), save one computed from constants alone, which is
the wrapped constant.  A value outside its predicted interval would
there be a wrong simulation, not a missed finding, so the soundness
property (``tests/properties/test_interval_soundness.py``, which also
reads the values as codegen does) is load-bearing.

Soundness notes: integer arithmetic in the VM wraps to 32 bits, so any
abstract result leaving the signed 32-bit range widens to ⊤ rather than
pretending Python's bignums model the machine, and its congruence
keeps only the power-of-two part of the modulus (the part wrap-around
preserves — which is also all that alignment proofs consume).  Floats, loads and
unknown intrinsics are ⊤.  ``None`` in a register map means ⊤ (the
register may hold anything, including a float or address); an integer
op reads a ⊤ or address operand beside an integer one as some integer
(``x & 7`` lies in ``[0, 7]`` whatever ``x`` is).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from repro.analysis.dataflow import (
    BasicBlock,
    ControlFlowGraph,
    FixpointResult,
    ForwardAnalysis,
    Loop,
    Summaries,
    build_cfg,
    call_targets,
    solve_call_graph,
    solve_forward,
)
from repro.ir import ops
from repro.ir.instructions import (
    BinOp,
    Call,
    CJump,
    Const,
    FrameAddr,
    GlobalAddr,
    Load,
    Move,
    Ret,
    Store,
    UnOp,
)
from repro.ir.module import IRFunction

#: The VM wraps integer arithmetic to signed 32 bits; abstract results
#: outside this range widen to ⊤ instead of modelling the wrap.
INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


# ------------------------------------------------------------- intervals


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed integer interval; ``None`` endpoints mean ±∞."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    @property
    def is_const(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> Optional["Interval"]:
        """Intersection; ``None`` when empty (an infeasible path)."""
        lo = self.lo if other.lo is None else (
            other.lo if self.lo is None else max(self.lo, other.lo)
        )
        hi = self.hi if other.hi is None else (
            other.hi if self.hi is None else min(self.hi, other.hi)
        )
        if lo is not None and hi is not None and lo > hi:
            return None
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Classic interval widening: endpoints that grew jump to ∞."""
        lo = self.lo
        if lo is not None and (newer.lo is None or newer.lo < lo):
            lo = None
        hi = self.hi
        if hi is not None and (newer.hi is None or newer.hi > hi):
            hi = None
        return Interval(lo, hi)


TOP_INTERVAL = Interval(None, None)


def _clamp32(interval: Interval) -> Interval:
    """Widen to ⊤ when a result can leave the signed 32-bit range —
    modelling Python bignums would be unsound against the wrapping VM."""
    if interval.lo is None or interval.lo < INT32_MIN:
        return TOP_INTERVAL
    if interval.hi is None or interval.hi > INT32_MAX:
        return TOP_INTERVAL
    return interval


def _iv_add(a: Interval, b: Interval) -> Interval:
    if a.lo is None or b.lo is None or a.hi is None or b.hi is None:
        return TOP_INTERVAL
    lo, hi = a.lo + b.lo, a.hi + b.hi
    if lo < INT32_MIN or hi > INT32_MAX:
        return TOP_INTERVAL
    return Interval(lo, hi)


def _iv_neg(a: Interval) -> Interval:
    if a.lo is None or a.hi is None or -a.hi < INT32_MIN or -a.lo > INT32_MAX:
        return TOP_INTERVAL
    return Interval(-a.hi, -a.lo)


def _iv_sub(a: Interval, b: Interval) -> Interval:
    return _iv_add(a, _iv_neg(b))


def _iv_mul(a: Interval, b: Interval) -> Interval:
    if not (a.bounded and b.bounded):
        # Only the easy unbounded cases are refined: anything times a
        # possibly-negative or unbounded factor is ⊤.
        return TOP_INTERVAL
    products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    return _clamp32(Interval(min(products), max(products)))


# ----------------------------------------------------------- congruences


@dataclass(frozen=True, slots=True)
class Congruence:
    """``value ≡ rem (mod mod)``; ``mod == 0`` means exactly ``rem``,
    ``mod == 1`` is ⊤ (any integer)."""

    mod: int = 1
    rem: int = 0

    def __post_init__(self) -> None:
        if self.mod < 0:
            raise ValueError("modulus must be non-negative")
        if self.mod > 0:
            object.__setattr__(self, "rem", self.rem % self.mod)

    @staticmethod
    def const(value: int) -> "Congruence":
        return Congruence(0, value)

    def contains(self, value: int) -> bool:
        if self.mod == 0:
            return value == self.rem
        return value % self.mod == self.rem

    def join(self, other: "Congruence") -> "Congruence":
        if self == other:
            return self
        mod = math.gcd(self.mod, other.mod, abs(self.rem - other.rem))
        if mod == 0:
            return self  # identical constants (handled above), defensive
        return Congruence(mod, self.rem % mod)

    def add(self, other: "Congruence") -> "Congruence":
        mod = math.gcd(self.mod, other.mod)
        return TOP_CONGRUENCE if mod == 1 else Congruence(mod, self.rem + other.rem)

    def neg(self) -> "Congruence":
        return self if self.mod == 1 else Congruence(self.mod, -self.rem)

    def sub(self, other: "Congruence") -> "Congruence":
        return self.add(other.neg())

    def mul(self, other: "Congruence") -> "Congruence":
        # Granger's multiplication: gcd of the cross terms.
        mod = math.gcd(
            self.mod * other.mod, self.mod * other.rem, other.mod * self.rem
        )
        return TOP_CONGRUENCE if mod == 1 else Congruence(mod, self.rem * other.rem)

    def low_zero_bits(self) -> int:
        """How many low bits every value has zero (32 for 0: a 32-bit
        machine word's)."""
        mod, rem = self.mod, self.rem
        if mod:
            bits = min((mod & -mod).bit_length() - 1, 32)
            rem %= 1 << bits
            if not rem:
                return bits
        return min((rem & -rem).bit_length() - 1, 32) if rem else 32

    def aligned_to(self, align: int) -> Optional[bool]:
        """True/False when alignment to ``align`` is decided; None when
        the congruence can't tell (attainable values mix residues)."""
        if align <= 1:
            return True
        if self.mod == 0:
            return self.rem % align == 0
        if self.mod % align == 0:
            return self.rem % align == 0
        return None


TOP_CONGRUENCE = Congruence(1, 0)


# ------------------------------------------------------- abstract values


@dataclass(frozen=True, slots=True)
class AbsInt:
    """A machine integer: interval × congruence (reduced product-lite)."""

    interval: Interval = TOP_INTERVAL
    cong: Congruence = TOP_CONGRUENCE

    @staticmethod
    @functools.lru_cache(maxsize=4096)
    def const(value: int) -> "AbsInt":
        """The exact value (interned: values are immutable)."""
        return AbsInt(Interval.const(value), Congruence.const(value))

    @property
    def const_value(self) -> Optional[int]:
        return self.interval.lo if self.interval.is_const else None

    def contains(self, value: int) -> bool:
        return self.interval.contains(value) and self.cong.contains(value)

    def join(self, other: "AbsInt") -> "AbsInt":
        return AbsInt(
            self.interval.join(other.interval), self.cong.join(other.cong)
        )

    def widen(self, newer: "AbsInt") -> "AbsInt":
        # Congruences have no infinite ascending chains (divisor
        # lattice), so only the interval needs widening.
        return AbsInt(
            self.interval.widen(newer.interval),
            self.cong.join(newer.cong),
        )


TOP_INT = AbsInt()
_BOOL = AbsInt(Interval(0, 1), TOP_CONGRUENCE)
_ZERO = AbsInt.const(0)
_ONE = AbsInt.const(1)


def _wrap_sound(
    interval: Interval, cong: Congruence, signed: bool = True
) -> AbsInt:
    """Pair the interval and congruence of one ``+``/``-``/``*`` result.

    ``cong`` describes the exact (bignum) result.  When ``interval`` —
    already through :func:`_clamp32` — is unbounded, or dips below zero
    under an unsigned op (whose result is masked, not sign-wrapped), the
    machine value may be that result plus a multiple of 2**32, which
    preserves only the power-of-two part of the modulus; an exact
    constant just wraps, by the operator table's own wrap.
    """
    if interval.hi is not None and interval.lo is not None and (
        signed or interval.lo >= 0
    ):
        return AbsInt(interval, cong)
    if cong.mod == 0:
        return AbsInt.const(ops.WRAPS[signed].fn(cong.rem))
    return AbsInt(TOP_INTERVAL, Congruence(math.gcd(cong.mod, 2**32), cong.rem))


def _arith(op: str, a: AbsInt, b: AbsInt, signed: bool = True) -> AbsInt:
    if op in _EXACT and a.cong.mod == 0 == b.cong.mod and (
        a.interval.is_const and b.interval.is_const
    ):
        # Two exact constants: what the general rules below reach,
        # without building their interval and congruence.
        value = _EXACT[op](a.cong.rem, b.cong.rem)
        if INT32_MIN <= value <= INT32_MAX and (signed or value >= 0):
            return AbsInt.const(value)
        return AbsInt.const(ops.WRAPS[signed].fn(value))
    if op == "+":
        return _wrap_sound(
            _iv_add(a.interval, b.interval), a.cong.add(b.cong), signed
        )
    if op == "-":
        return _wrap_sound(
            _iv_sub(a.interval, b.interval), a.cong.sub(b.cong), signed
        )
    if op == "*":
        return _wrap_sound(
            _iv_mul(a.interval, b.interval), a.cong.mul(b.cong), signed
        )
    if op in ("/", "%"):
        # Both truncate toward zero like C, so the remainder of a
        # negative dividend lies in (-d, 0] — and unsigned, is masked
        # to something huge.  That, and ``/`` of one, is not refined.
        divisor = b.const_value
        lo, hi = a.interval.lo, a.interval.hi
        if divisor is None or divisor <= 0:
            return TOP_INT
        negative = lo is None or lo < 0
        if (negative and (op == "/" or not signed)) or hi is None:
            return TOP_INT
        if op == "/":
            result = Interval(lo // divisor, hi // divisor)
        elif lo is not None and -divisor < lo and hi < divisor and (
            not signed or _clamp32(a.interval) is a.interval
        ):
            return a  # |x| < d: already reduced
        else:
            result = Interval(1 - divisor if negative else 0, divisor - 1)
        # A signed result is sign-wrapped: out of range, it is anything.
        return AbsInt(_clamp32(result) if signed else result, TOP_CONGRUENCE)
    if op in _BITWISE:
        return _bitwise(op, a, b, signed)
    return TOP_INT


_BITWISE = frozenset(("&", "|", "^", "<<", ">>"))
_EXACT = {"+": int.__add__, "-": int.__sub__, "*": int.__mul__}


def _bitwise(op: str, a: AbsInt, b: AbsInt, signed: bool) -> AbsInt:
    """``&``, ``|``, ``^`` and the shifts, whose operator-table terms
    (:mod:`repro.ir.ops`) mask a shift count to ``[0, 31]`` and an
    unsigned ``>>``'s operand to 32 bits before shifting."""
    ia, ib = a.interval, b.interval
    cong = TOP_CONGRUENCE
    if op == "&":
        # Any integer & one in [0, c] lies in [0, c], and has the low
        # zero bits of either operand.
        cong = _aligned(max(a.cong.low_zero_bits(), b.cong.low_zero_bits()))
        caps = [i.hi for i in (ia, ib) if i.lo is not None and i.lo >= 0]
        cap = min((c for c in caps if c is not None), default=None)
        if cap is not None:
            return _wrap_sound(_clamp32(Interval(0, cap)), cong, signed)
        if not (ia.bounded and ib.bounded):
            return _wrap_sound(TOP_INTERVAL, cong, signed)
    if op == "<<" and ib.is_const:
        # A constant count scales the congruence whatever the operand.
        count = ib.lo & 31
        interval = TOP_INTERVAL
        if ia.bounded:
            interval = _clamp32(Interval(ia.lo << count, ia.hi << count))
        return _wrap_sound(interval, a.cong.mul(Congruence.const(1 << count)), signed)
    if not (ia.bounded and ib.bounded):
        return TOP_INT
    if op in ("<<", ">>"):
        counts = (ib.lo, ib.hi) if 0 <= ib.lo and ib.hi <= 31 else (0, 31)
        if op == ">>" and not signed and ia.lo < 0:
            return TOP_INT  # the term masks a negative operand first
        shift = int.__lshift__ if op == "<<" else int.__rshift__
        # Monotone in each operand: the corners bound the result.
        corners = [shift(x, s) for x in (ia.lo, ia.hi) for s in counts]
        return _wrap_sound(
            _clamp32(Interval(min(corners), max(corners))), TOP_CONGRUENCE, signed
        )
    # Integers in [-2**n, 2**n) combine bitwise to one there, and
    # non-negative ones to one in [0, 2**n).
    n = max(x.bit_length() for x in (ia.lo, ia.hi, ib.lo, ib.hi))
    lo = 0 if ia.lo >= 0 and ib.lo >= 0 else -(2**n)
    return _wrap_sound(_clamp32(Interval(lo, 2**n - 1)), cong, signed)


def _aligned(bits: int) -> Congruence:
    """The values with ``bits`` low zero bits."""
    return Congruence(1 << bits, 0) if bits else TOP_CONGRUENCE


@dataclass(frozen=True, slots=True)
class AbsAddr:
    """A symbolic address with an abstract offset: ``region`` is
    ``"frame"`` (this function's frame) or ``"global:<name>"``.  The
    DMA-discipline checker renames the region of an address indexed by
    an unknown value (:func:`repro.analysis.dmacheck._address`)."""

    region: str
    offset: AbsInt

    def shifted(self, delta: AbsInt, sign: int = 1) -> "AbsAddr":
        op = "+" if sign > 0 else "-"
        return AbsAddr(self.region, _arith(op, self.offset, delta))


@functools.lru_cache(maxsize=4096)
def _global_base(name: str) -> AbsAddr:
    """A global's own address (interned: values are immutable)."""
    return AbsAddr(f"global:{name}", _ZERO)


#: A register's abstract value: AbsInt, AbsAddr, or None (⊤ — the map
#: simply drops the register).
AbsVal = object


def join_abs(a: AbsVal, b: AbsVal) -> Optional[AbsVal]:
    if a is b or a == b:
        return a
    if isinstance(a, AbsInt) and isinstance(b, AbsInt):
        return a.join(b)
    if (
        isinstance(a, AbsAddr)
        and isinstance(b, AbsAddr)
        and a.region == b.region
    ):
        return AbsAddr(a.region, a.offset.join(b.offset))
    return None


def widen_abs(a: AbsVal, b: AbsVal) -> Optional[AbsVal]:
    if a is b or a == b:
        return a
    if isinstance(a, AbsInt) and isinstance(b, AbsInt):
        return a.widen(b)
    if (
        isinstance(a, AbsAddr)
        and isinstance(b, AbsAddr)
        and a.region == b.region
    ):
        return AbsAddr(a.region, a.offset.widen(b.offset))
    return None


# --------------------------------------------------------- machine state
#
# The per-point state is a frozen snapshot of three maps:
#   regs:   reg -> AbsVal           (absent = ⊤)
#   conds:  reg -> (op, a, b)       integer comparison feeding the reg
#   copies: reg -> root reg         copy-equivalence (Move chains)
#
# ``conds``/``copies`` exist purely to make branch-edge refinement and
# induction-variable recognition work on the lowered IR, which copies a
# loop counter into a fresh register before every compare.


class AbsState(NamedTuple):
    """One program point's three maps, never mutated once built: a
    transfer works on the copies :func:`_thaw` makes."""

    regs: dict
    conds: dict
    copies: dict


def _thaw(state: AbsState) -> tuple[dict, dict, dict]:
    return dict(state.regs), dict(state.conds), dict(state.copies)


def _kill_reg(reg: int, conds: dict, copies: dict) -> None:
    """A write to ``reg`` invalidates every fact mentioning it."""
    if conds:
        conds.pop(reg, None)
        # A fact is (op, a, b): a register never equals the op.
        for key in [k for k, fact in conds.items() if reg in fact]:
            del conds[key]
    if copies:
        copies.pop(reg, None)
        if reg in copies.values():  # rarely: ``reg`` roots a class
            for key in [k for k, root in copies.items() if root == reg]:
                del copies[key]


def _class_of(reg: int, copies: dict) -> set[int]:
    """Every register copy-equivalent to ``reg`` (including itself)."""
    root = copies.get(reg, reg)
    members = {root}
    members.update(k for k, r in copies.items() if r == root)
    return members


#: Negation of each comparison op, for the not-taken edge.
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def _refine_pair(
    op: str, a: AbsInt, b: AbsInt
) -> Optional[tuple[AbsInt, AbsInt]]:
    """Refine ``(a, b)`` assuming ``a op b`` holds; None = infeasible."""
    ia, ib = a.interval, b.interval
    if op == "==":
        met = ia.meet(ib)
        if met is None:
            return None
        joined_cong = a.cong if a.cong == b.cong else TOP_CONGRUENCE
        if a.cong.mod == 0:
            joined_cong = a.cong
        elif b.cong.mod == 0:
            joined_cong = b.cong
        refined = AbsInt(met, joined_cong)
        return refined, refined
    if op == "!=":
        new_a, new_b = ia, ib
        if ib.is_const:
            c = ib.lo
            if ia.lo == c and ia.hi == c:
                return None
            if ia.lo == c:
                new_a = Interval(c + 1, ia.hi)
            elif ia.hi == c:
                new_a = Interval(ia.lo, c - 1)
        if ia.is_const:
            c = ia.lo
            if ib.lo == c and ib.hi == c:
                return None
            if ib.lo == c:
                new_b = Interval(c + 1, ib.hi)
            elif ib.hi == c:
                new_b = Interval(ib.lo, c - 1)
        return AbsInt(new_a, a.cong), AbsInt(new_b, b.cong)
    if op in ("<", "<="):
        slack = 0 if op == "<=" else 1
        cap = None if ib.hi is None else ib.hi - slack
        floor = None if ia.lo is None else ia.lo + slack
        new_a = ia.meet(Interval(None, cap))
        new_b = ib.meet(Interval(floor, None))
        if new_a is None or new_b is None:
            return None
        return AbsInt(new_a, a.cong), AbsInt(new_b, b.cong)
    if op in (">", ">="):
        flipped = _refine_pair("<" if op == ">" else "<=", b, a)
        if flipped is None:
            return None
        rb, ra = flipped
        return ra, rb
    return a, b


# -------------------------------------------------------------- summaries


@dataclass(frozen=True)
class FunctionSummary:
    """What the interval analysis knows about one accel function.

    ``params`` — joined abstract values of every call-site argument
    (⊤ entries omitted); ``ret`` — the joined return value over all
    ``Ret`` sites.  Frame addresses cross a call as ⊤
    (:func:`_across_call`).  Entry functions (offload entries, domain-dispatch
    targets) keep ⊤ params: their arguments come from the runtime.
    """

    params: tuple = ()
    ret: Optional[AbsVal] = None


#: Sound default: nothing known (⊤ everywhere).
UNKNOWN_SUMMARY = FunctionSummary()


class IntervalAnalysis(ForwardAnalysis):
    """Register interval/congruence tracking for one function."""

    def __init__(
        self,
        function: IRFunction,
        summaries: Optional[dict[str, FunctionSummary]] = None,
        boundary_params: Optional[dict[int, AbsVal]] = None,
    ):
        self.function = function
        self.summaries = summaries or {}
        self.boundary_params = boundary_params or {}
        #: Call-site argument joins recorded during transfer, consumed
        #: by :func:`compute_summaries`.
        self.call_args: dict[str, list[Optional[AbsVal]]] = {}
        #: When a dict, each transfer records there, per instruction
        #: index, the values its operands held (:data:`_READS`) and the
        #: value it defined (None: ⊤ or nothing); after the solve it
        #: holds those of every block's final transfer.
        self.operands: Optional[dict[int, tuple]] = None
        self._plans: dict[int, list[tuple]] = {}
        self._entries: Optional[list] = None
        #: Per CFG edge, the last state refined along it and the result.
        self._edges: dict[tuple[int, int], tuple] = {}

    # ------------------------------------------------------------ lattice

    def boundary(self) -> AbsState:
        regs = {
            reg: val
            for reg, val in self.boundary_params.items()
            if val is not None
        }
        return AbsState(regs, {}, {})

    def join(self, a: AbsState, b: AbsState) -> AbsState:
        return self._merge(a, b, widen_abs=False)

    def widen(self, old: AbsState, new: AbsState, visits: int) -> AbsState:
        return self._merge(old, new, widen_abs=True)

    def _merge(self, a: AbsState, b: AbsState, *, widen_abs: bool) -> AbsState:
        if a is b:
            return a
        rb = b.regs
        regs: dict = {}
        combine = globals()["widen_abs"] if widen_abs else join_abs
        for reg, val in a.regs.items():
            other = rb.get(reg)
            if other is val:
                regs[reg] = val
            elif other is not None:
                merged = combine(val, other)
                if merged is not None:
                    regs[reg] = merged
        cb, pb = b.conds, b.copies
        conds = {k: v for k, v in a.conds.items() if cb.get(k) == v}
        copies = {k: v for k, v in a.copies.items() if pb.get(k) == v}
        return AbsState(regs, conds, copies)

    # ----------------------------------------------------------- transfer

    def transfer(self, block: BasicBlock, state: AbsState) -> AbsState:
        regs, conds, copies = _thaw(state)
        plan = self._plans.get(block.index)
        if plan is None:
            plan = self._plans[block.index] = self._plan(block)
        operands = self.operands
        for index, instr, step, read, kill, dst in plan:
            if read is not None:
                values = read(instr, regs)
            if kill is not None:
                _kill_reg(kill, conds, copies)
            if step is not None:
                step(self, instr, regs, conds, copies)
            if read is not None:
                operands[index] = values, regs.get(dst)
        return AbsState(regs, conds, copies)

    def _plan(self, block: BasicBlock) -> list[tuple]:
        """(index, instruction, its transfer, its recorded reads, the
        register whose facts it kills, the register it defines) for the
        instructions of ``block`` that do anything."""
        if self._entries is None:
            self._entries = _plan_function(self.function, self.operands is not None)
        return [e for e in self._entries[block.start:block.end] if e is not None]

    def _step(self, instr, regs: dict, conds: dict, copies: dict) -> None:
        """One instruction's transfer, on maps the caller owns."""
        dst = getattr(instr, "dst", None)
        if isinstance(dst, int) and not (type(instr) is Move and dst == instr.src):
            _kill_reg(dst, conds, copies)
        _STEPS.get(type(instr), IntervalAnalysis._other)(
            self, instr, regs, conds, copies
        )

    def _const(self, instr: Const, regs: dict, conds: dict, copies: dict) -> None:
        value = instr.value
        if type(value) is int:
            regs[instr.dst] = AbsInt.const(value)
        else:
            regs.pop(instr.dst, None)

    def _move(self, instr: Move, regs: dict, conds: dict, copies: dict) -> None:
        dst, src = instr.dst, instr.src
        if dst == src:
            return
        value = regs.get(src)
        if value is None:
            regs.pop(dst, None)
        else:
            regs[dst] = value
        copies[dst] = copies.get(src, src)

    def _frame_addr(self, instr: FrameAddr, regs: dict, conds: dict, copies: dict) -> None:
        regs[instr.dst] = AbsAddr("frame", AbsInt.const(instr.offset))

    def _global_addr(self, instr: GlobalAddr, regs: dict, conds: dict, copies: dict) -> None:
        regs[instr.dst] = _global_base(instr.name)

    def _binop(self, instr: BinOp, regs: dict, conds: dict, copies: dict) -> None:
        dst = instr.dst
        a = regs.get(instr.a)
        b = regs.get(instr.b)
        if instr.is_compare:
            # Integer comparison facts feed the branch refinement; the
            # operands are read before the dst write invalidates them.
            if not instr.float_op and dst != instr.a and dst != instr.b:
                conds[dst] = (instr.op, instr.a, instr.b)
            regs[dst] = _BOOL
            return
        regs.pop(dst, None)
        if instr.float_op:
            return
        value = self._binop_value(instr, a, b)
        if value is not None:
            regs[dst] = value

    def _unop(self, instr: UnOp, regs: dict, conds: dict, copies: dict) -> None:
        a = regs.get(instr.a)
        regs.pop(instr.dst, None)
        if type(a) is AbsInt and not instr.float_op and instr.op in ("-", "~"):
            value = _wrap_sound(_iv_neg(a.interval), a.cong.neg())
            if instr.op == "~":  # -a - 1
                value = _arith("-", value, _ONE)
            regs[instr.dst] = value
        elif instr.op == "!":
            regs[instr.dst] = _BOOL

    def _call(self, instr: Call, regs: dict, conds: dict, copies: dict) -> None:
        for position, arg in enumerate(instr.args):
            slots = self.call_args.setdefault(instr.callee, [])
            while len(slots) <= position:
                slots.append("unset")
            held = slots[position]
            value = regs.get(arg)
            if held == "unset":
                slots[position] = value
            elif held is not None:
                slots[position] = (
                    join_abs(held, value) if value is not None else None
                )
        if instr.dst is not None:
            regs.pop(instr.dst, None)
            summary = self.summaries.get(instr.callee)
            if summary is not None and summary.ret is not None:
                regs[instr.dst] = summary.ret

    def _other(self, instr, regs: dict, conds: dict, copies: dict) -> None:
        """Anything else that defines a register defines it as ⊤."""
        dst = getattr(instr, "dst", None)
        if isinstance(dst, int):
            regs.pop(dst, None)

    def _binop_value(
        self, instr: BinOp, a: AbsVal, b: AbsVal
    ) -> Optional[AbsVal]:
        kind_a, kind_b = type(a), type(b)
        op = instr.op
        if kind_a is AbsInt and kind_b is AbsInt:
            return _arith(op, a, b, instr.signed)
        if kind_a is AbsAddr and kind_b is AbsInt and op in ("+", "-"):
            return a.shifted(b, 1 if op == "+" else -1)
        if kind_a is AbsInt and kind_b is AbsAddr and op == "+":
            return b.shifted(a)
        if kind_a is AbsAddr and kind_b is AbsAddr:
            if op == "-" and a.region == b.region:
                return _wrap_sound(
                    _iv_sub(a.offset.interval, b.offset.interval),
                    a.offset.cong.sub(b.offset.cong),
                    instr.signed,
                )
            return None
        if kind_a is AbsInt or kind_b is AbsInt:
            # Anything else beside an integer is read as some integer:
            # ``x & 7`` of a loaded ``x``, an address masked down.
            return _arith(
                op, a if kind_a is AbsInt else TOP_INT,
                b if kind_b is AbsInt else TOP_INT, instr.signed,
            )
        return None

    # ------------------------------------------------------- branch edges

    def edge(
        self, pred: BasicBlock, succ_index: int, state: AbsState
    ) -> Optional[AbsState]:
        """Refine the state along one CFG edge (None = infeasible)."""
        last = self.function.code[pred.end - 1]
        if not isinstance(last, CJump):
            return state
        if len(pred.succs) < 2:
            return state  # then/else collapse to one target: no info
        fact = state.conds.get(last.cond)
        if fact is None:
            return state
        key = pred.index, succ_index
        held = self._edges.get(key)
        if held is not None and held[0] is state:
            return held[1]  # the same state down the same edge
        refined = self._refine_edge(fact, succ_index != pred.succs[0], state)
        self._edges[key] = state, refined
        return refined

    def _refine_edge(
        self, fact: tuple, negate: bool, state: AbsState
    ) -> Optional[AbsState]:
        op, ra, rb = fact
        if negate:  # the not-taken edge
            op = _NEGATE[op]
        regs = state.regs
        a = regs.get(ra, TOP_INT)
        b = regs.get(rb, TOP_INT)
        if not isinstance(a, AbsInt) or not isinstance(b, AbsInt):
            return state  # addresses/floats: no arithmetic refinement
        refined = _refine_pair(op, a, b)
        if refined is None:
            return None
        new_a, new_b = refined
        regs = dict(regs)
        copies = state.copies
        for reg in _class_of(ra, copies):
            held = regs.get(reg)
            if reg == ra or held is a or held is not None and held == a:
                regs[reg] = new_a
        for reg in _class_of(rb, copies):
            held = regs.get(reg)
            if reg == rb or held is b or held is not None and held == b:
                regs[reg] = new_b
        return AbsState(regs, state.conds, copies)


_STEPS = {
    Const: IntervalAnalysis._const,
    Move: IntervalAnalysis._move,
    FrameAddr: IntervalAnalysis._frame_addr,
    GlobalAddr: IntervalAnalysis._global_addr,
    BinOp: IntervalAnalysis._binop,
    UnOp: IntervalAnalysis._unop,
    Call: IntervalAnalysis._call,
}

#: The operand values a recording transfer keeps, per instruction class.
_READS = {
    BinOp: lambda instr, regs: (regs.get(instr.a), regs.get(instr.b)),
    UnOp: lambda instr, regs: (regs.get(instr.a),),
    Load: lambda instr, regs: (regs.get(instr.addr),),
    Store: lambda instr, regs: (regs.get(instr.addr), regs.get(instr.src)),
}


def _plan_function(function: IRFunction, record: bool) -> list:
    """Per instruction of ``function``, its :meth:`IntervalAnalysis._plan`
    entry, or None where it does nothing (defines no register and reads
    nothing recorded, or copies a register to itself).  Only registers
    some integer compare or copy names can have facts to kill."""
    code = function.code
    named: set[int] = set()
    for instr in code:
        kind = type(instr)
        if kind is Move:
            named.add(instr.src)
            named.add(instr.dst)
        elif kind is BinOp and instr.is_compare and not instr.float_op:
            named.update((instr.a, instr.b, instr.dst))
    reads = _READS if record else {}
    steps, other = _STEPS, IntervalAnalysis._other
    entries: list = []
    append = entries.append
    for index, instr in enumerate(code):
        kind = type(instr)
        dst = getattr(instr, "dst", None)
        if type(dst) is int:
            if kind is Move and dst == instr.src:
                append(None)
            else:
                kill = dst if dst in named else None
                append((index, instr, steps.get(kind, other), reads.get(kind), kill, dst))
        elif kind is Call or kind in reads:
            append((index, instr, steps.get(kind), reads.get(kind), None, None))
        else:
            append(None)
    return entries


# -------------------------------------------------- whole-function solve


@dataclass
class SolvedFunction:
    """One function's solved interval dataflow, ready for consumers."""

    function: IRFunction
    cfg: ControlFlowGraph
    result: FixpointResult
    analysis: IntervalAnalysis

    def walk(self, block: BasicBlock) -> Iterator[tuple[int, object, dict, dict]]:
        """``(index, instr, regs, copies)`` per instruction of one block
        the solve reached (none for another): the register map and the
        copy classes just before it.  The maps move on with the walk, so
        read them before taking the next item."""
        state = self.result.block_in.get(block.index)
        if state is None:
            return
        regs, conds, copies = _thaw(state)
        step = self.analysis._step
        for index, instr in block.instructions(self.function):
            yield index, instr, regs, copies
            step(instr, regs, conds, copies)

    def values_before(self, instr_index: int) -> dict[int, AbsVal]:
        """The register map immediately before one instruction."""
        for index, _, regs, _ in self.walk(self.cfg.block_at(instr_index)):
            if index == instr_index:
                return regs
        return {}


#: Loop heads widen at their second visit: soundness does not depend on
#: when, a counter's bound comes back on the edge into the body either
#: way, and a solve makes a third fewer transfers than widening after
#: four.
WIDEN_AFTER = 1


def analyze_function(
    function: IRFunction,
    summaries: Optional[dict[str, FunctionSummary]] = None,
    boundary_params: Optional[dict[int, AbsVal]] = None,
) -> SolvedFunction:
    """Solve the interval analysis for one function.

    When ``boundary_params`` is omitted but the function's own summary
    carries call-site argument joins (:attr:`FunctionSummary.params`),
    those seed the entry state — consumers re-solving a callee after
    :func:`compute_summaries` get the interprocedural argument bounds
    without re-running the global fixpoint.
    """
    if boundary_params is None and summaries:
        summary = summaries.get(function.name)
        if summary is not None and summary.params:
            boundary_params = dict(summary.params)
    cfg = build_cfg(function)
    analysis = IntervalAnalysis(function, summaries, boundary_params)
    result = solve_forward(cfg, analysis, widen_after=WIDEN_AFTER)
    return SolvedFunction(function, cfg, result, analysis)


def operand_values(function: IRFunction) -> dict[int, tuple]:
    """Per BinOp, UnOp, Load and Store of ``function``, by instruction
    index: the values its operands held (:data:`_READS`) and the value it
    defined (None: ⊤ or nothing), from one solve of the function alone:
    ⊤ parameters and no call summaries, so the result depends on nothing
    but ``function``.  Kept as the solve's final transfers leave them, so
    no block is replayed; instructions in unreachable blocks are absent,
    and everything is when the solve did not converge.  Code generation
    reads these values (:mod:`repro.vm.codegen`)."""
    analysis = IntervalAnalysis(function)
    analysis.operands = {}
    result = solve_forward(build_cfg(function), analysis, widen_after=WIDEN_AFTER)
    return analysis.operands if result.converged else {}


def _return_value(solved: SolvedFunction) -> Optional[AbsVal]:
    """Joined abstract value over every ``Ret r`` site (None = ⊤)."""
    function = solved.function
    ret: Optional[AbsVal] = "unset"  # sentinel: no Ret seen yet
    for block in solved.cfg.blocks:
        if block.index not in solved.result.block_in:
            continue
        last = function.code[block.end - 1]
        if not isinstance(last, Ret) or last.src is None:
            if isinstance(last, Ret):
                return None  # bare ret returns 0/⊤; keep it simple
            continue
        regs = solved.values_before(block.end - 1)
        value = regs.get(last.src)
        if value is None:
            return None
        ret = value if ret == "unset" else join_abs(ret, value)
        if ret is None:
            return None
    return None if ret == "unset" else ret


def _across_call(value: Optional[AbsVal]) -> Optional[AbsVal]:
    """A value as the other side of a call sees it: a frame address
    names the frame of the function that computed it, not the frame of
    the one it is passed to or returned to, so it crosses as ⊤."""
    if type(value) is AbsAddr and value.region == "frame":
        return None
    return value


def solved_function(
    function: IRFunction, summaries: Optional[dict[str, FunctionSummary]]
) -> SolvedFunction:
    """``function`` solved against ``summaries``: the solve
    :func:`compute_summaries` kept for it, or a fresh one (``summaries``
    a plain dict, the function outside the analysed set)."""
    held = getattr(summaries, "solved", {}).get(function.name)
    if held is not None and held.function is function:
        return held
    return analyze_function(function, summaries)


def compute_summaries(
    functions: list[IRFunction],
    *,
    entry_names: Optional[frozenset] = None,
    max_rounds: int = 8,
) -> Summaries:
    """Global fixpoint of interval summaries over the accel call graph.

    ``entry_names`` — functions whose arguments come from outside the
    analysed world (offload entries, domain-dispatch targets); they keep
    ⊤ parameters.  Everything else gets the join of the argument values
    at every analysed call site.  When the final round still changed
    (pathological graphs), parameter knowledge is discarded — ⊤ params
    are always sound.  The result keeps the converged solves for
    :func:`solved_function`.
    """
    if entry_names is None:
        entry_names = frozenset(
            f.name
            for f in functions
            if f.source_name.startswith("__offload_")
        )
    names = frozenset(f.name for f in functions)
    callees = {f.name: call_targets(f) for f in functions}
    boundaries: dict[str, dict[int, AbsVal]] = {}

    def inputs(function: IRFunction, summaries: dict) -> tuple:
        boundary = boundaries.get(function.name)
        own = summaries.get(function.name)
        # With no boundary of its own this round, analyze_function falls
        # back to the parameters of the previous round's summary.
        stale = own.params if boundary is None and own is not None else ()
        rets = [
            getattr(summaries.get(callee), "ret", None)
            for callee in callees[function.name]
        ]
        return boundary, stale, rets

    def solve(function: IRFunction, summaries: dict) -> tuple:
        boundary = boundaries.get(function.name)
        solved = analyze_function(function, summaries, boundary)
        params = tuple(sorted((boundary or {}).items()))
        ret = _across_call(_return_value(solved))
        return solved, FunctionSummary(params, ret)

    def rejoin_boundaries(solved: dict[str, SolvedFunction]) -> bool:
        nonlocal boundaries
        call_joins: dict[str, list[Optional[AbsVal]]] = {}
        for function in functions:
            call_args = solved[function.name].analysis.call_args
            for callee, args in call_args.items():
                if callee not in names:
                    continue
                held = call_joins.setdefault(callee, list(args))
                for position, value in enumerate(args):
                    if position >= len(held):
                        held.append(value)
                    elif held[position] == "unset":
                        held[position] = value
                    elif value == "unset":
                        pass
                    elif held[position] is None or value is None:
                        held[position] = None
                    else:
                        held[position] = join_abs(held[position], value)
        new_boundaries: dict[str, dict[int, AbsVal]] = {}
        for name, args in call_joins.items():
            if name in entry_names:
                continue
            params = {
                position: value
                for position, value in enumerate(args)
                if value != "unset" and _across_call(value) is not None
            }
            if params:
                new_boundaries[name] = params
        changed = new_boundaries != boundaries
        boundaries = new_boundaries
        return changed

    result = solve_call_graph(
        functions, inputs, solve,
        max_rounds=max_rounds, end_round=rejoin_boundaries,
    )
    if not result.converged:
        # Start over without parameter knowledge: unconditionally sound.
        boundaries = {}
        result = solve_call_graph(functions, inputs, solve, max_rounds=1)
    return result


# ------------------------------------------------------------ trip counts


@dataclass(frozen=True)
class TripCount:
    """Trip-count bounds of one natural loop.

    ``min_trips``/``max_trips`` bound how many times the loop *body*
    executes per entry; ``exact`` is True when they coincide and the
    bound is provably attained (const init, const bound, const step).
    ``max_trips is None`` means statically unbounded.
    """

    loop: Loop
    min_trips: int = 0
    max_trips: Optional[int] = None

    @property
    def exact(self) -> bool:
        return self.max_trips is not None and self.min_trips == self.max_trips


def _step_of(
    solved: SolvedFunction, loop: Loop, var_class: set[int]
) -> Optional[int]:
    """The constant increment of the induction variable, or None.

    Matches the lowered ``for`` shape: inside the loop body the counter
    register is reassigned exactly once, by a Move whose source chains
    back (within the same block) to ``counter + const``.
    """
    function = solved.function
    writes: list[tuple[int, object]] = []
    body_blocks = [solved.cfg.blocks[bi] for bi in sorted(loop.body)]
    for block in body_blocks:
        for index, instr in block.instructions(function):
            dst = getattr(instr, "dst", None)
            if isinstance(dst, int) and dst in var_class:
                writes.append((index, instr))
    candidates = [w for w in writes if w[1].__class__ is Move]
    other = [w for w in writes if w[1].__class__ is not Move]
    if other:
        return None
    steps: set[int] = set()
    for index, move in candidates:
        block = solved.cfg.block_at(index)
        # Walk the defining chain backwards within the block.
        local: dict[int, object] = {}
        for i, instr in block.instructions(function):
            if i >= index:
                break
            local[getattr(instr, "dst", -1)] = instr
        src = move.src
        seen: set[int] = set()
        while True:
            if src in var_class:
                steps.add(0)
                break
            if src in seen:
                return None
            seen.add(src)
            define = local.get(src)
            if define is None:
                return None
            if isinstance(define, Move):
                src = define.src
                continue
            if (
                isinstance(define, BinOp)
                and define.op == "+"
                and not define.float_op
            ):
                const_side = None
                var_side = None
                for operand in (define.a, define.b):
                    const_def = local.get(operand)
                    if (
                        isinstance(const_def, Const)
                        and isinstance(const_def.value, int)
                    ):
                        const_side = const_def.value
                    else:
                        var_side = operand
                if const_side is None or var_side is None:
                    return None
                chains_back = var_side in var_class or (
                    isinstance(local.get(var_side), Move)
                    and local[var_side].src in var_class
                )
                if not chains_back:
                    return None
                steps.add(const_side)
                break
            return None
    steps.discard(0)
    if len(steps) != 1:
        return None
    return steps.pop()


def loop_trips(solved: SolvedFunction, loop: Loop) -> TripCount:
    """Bound one natural loop's trip count from the solved dataflow.

    Recognises the canonical counted loop the lowering emits — header
    compares (a copy of) the counter against a bound, the body
    increments it by a constant — and derives trips from the counter's
    interval on the loop-entry edges, the bound's interval at the
    header, and the step.  Anything else is unbounded (``max_trips
    None``) — the static cost model then reports ``W-cost-unbounded``.
    """
    cfg = solved.cfg
    function = solved.function
    header = cfg.blocks[loop.header]
    last = function.code[header.end - 1]
    state = solved.result.block_in.get(loop.header)
    if not isinstance(last, CJump) or state is None:
        return TripCount(loop)
    # Exactly one successor inside the loop, one outside, or it's not a
    # guarded counted loop we can bound.
    inside = [s for s in header.succs if s in loop.body]
    if len(header.succs) != 2 or len(inside) != 1:
        return TripCount(loop)
    taken = inside[0] == header.succs[0]
    regs, conds, copies = _thaw(state)
    # Evaluate the header block up to the CJump so the compare fact and
    # the operand values reflect the branch point.
    for index, instr in header.instructions(function):
        if index == header.end - 1:
            break
        solved.analysis._step(instr, regs, conds, copies)
    fact = conds.get(last.cond)
    if fact is None:
        return TripCount(loop)
    op, ra, rb = fact
    if not taken:
        op = _NEGATE[op]
    # Identify the induction side: operand whose copy class is written
    # in the body.  Normalise to  var OP bound.  Const writes are
    # loop-invariant by definition (the header re-materialises the
    # bound each iteration), and a Move from inside the same class just
    # renames the value — neither makes a register loop-variant.
    def written_in_body(reg: int) -> bool:
        var_class = _class_of(reg, copies)
        for bi in loop.body:
            for _, instr in cfg.blocks[bi].instructions(function):
                dst = getattr(instr, "dst", None)
                if not (isinstance(dst, int) and dst in var_class):
                    continue
                if isinstance(instr, Const):
                    continue
                if isinstance(instr, Move) and instr.src in var_class:
                    continue
                return True
        return False

    a_var = written_in_body(ra)
    b_var = written_in_body(rb)
    if a_var == b_var:
        return TripCount(loop)
    if b_var:
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
        op, ra, rb = flip[op], rb, ra
    var_class = _class_of(ra, copies)
    bound = regs.get(rb, TOP_INT)
    if not isinstance(bound, AbsInt):
        return TripCount(loop)
    step = _step_of(solved, loop, var_class)
    if step is None or step <= 0 or op not in ("<", "<=", "!="):
        return TripCount(loop)
    # Initial counter value: join of the counter's value flowing in on
    # the loop-entry edges (predecessors outside the body).
    init: Optional[AbsInt] = None
    for p in header.preds:
        if p in loop.body:
            continue
        out = solved.result.block_out.get(p)
        if out is None:
            continue
        pregs, _, _ = _thaw(out)
        value = pregs.get(min(var_class))
        if value is None:
            for member in sorted(var_class):
                value = pregs.get(member)
                if value is not None:
                    break
        if not isinstance(value, AbsInt):
            return TripCount(loop)
        init = value if init is None else init.join(value)
    if init is None:
        return TripCount(loop)
    iv_init, iv_bound = init.interval, bound.interval
    slack = 1 if op == "<=" else 0
    if op == "!=":
        # i != n with positive step only terminates when n is reachable
        # exactly; require const init/bound and step | (n - init).
        if not (init.const_value is not None and bound.const_value is not None):
            return TripCount(loop)
        span = bound.const_value - init.const_value
        if span < 0 or span % step != 0:
            return TripCount(loop)
        trips = span // step
        return TripCount(loop, trips, trips)
    if iv_bound.hi is None or iv_init.lo is None:
        return TripCount(loop)
    max_span = iv_bound.hi + slack - iv_init.lo
    max_trips = max(0, -(-max_span // step)) if max_span > 0 else 0
    min_trips = 0
    if iv_bound.lo is not None and iv_init.hi is not None:
        min_span = iv_bound.lo + slack - iv_init.hi
        min_trips = max(0, -(-min_span // step)) if min_span > 0 else 0
    return TripCount(loop, min_trips, max_trips)
