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
* :class:`AbsAddr` — the interval generalisation of the shared
  :class:`repro.analysis.dataflow.SymAddr` domain: a region (frame,
  global, opaque) plus an abstract *offset*, so buffer extents are
  shared with every existing analysis.
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

Soundness notes: integer arithmetic in the VM wraps to 32 bits, so any
abstract result leaving the signed 32-bit range widens to ⊤ rather than
pretending Python's bignums model the machine, and its congruence
keeps only the power-of-two part of the modulus (the part wrap-around
preserves — which is also all that alignment proofs consume).  Floats, loads and
unknown intrinsics are ⊤.  ``None`` in a register map means ⊤ (the
register may hold anything, including a float or address).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
    DomainCall,
    FrameAddr,
    GlobalAddr,
    ICall,
    Intrinsic,
    Move,
    Ret,
    UnOp,
)
from repro.ir.module import IRFunction

#: The VM wraps integer arithmetic to signed 32 bits; abstract results
#: outside this range widen to ⊤ instead of modelling the wrap.
INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


# ------------------------------------------------------------- intervals


@dataclass(frozen=True)
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
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return _clamp32(Interval(lo, hi))


def _iv_neg(a: Interval) -> Interval:
    lo = None if a.hi is None else -a.hi
    hi = None if a.lo is None else -a.lo
    return _clamp32(Interval(lo, hi))


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


@dataclass(frozen=True)
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
        rem = self.rem + other.rem
        return Congruence(mod, rem if mod else rem)

    def neg(self) -> "Congruence":
        return Congruence(self.mod, -self.rem if self.mod else -self.rem)

    def sub(self, other: "Congruence") -> "Congruence":
        return self.add(other.neg())

    def mul(self, other: "Congruence") -> "Congruence":
        # Granger's multiplication: gcd of the cross terms.
        mod = math.gcd(
            self.mod * other.mod, self.mod * other.rem, other.mod * self.rem
        )
        rem = self.rem * other.rem
        return Congruence(mod, rem if mod else rem)

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


@dataclass(frozen=True)
class AbsInt:
    """A machine integer: interval × congruence (reduced product-lite)."""

    interval: Interval = TOP_INTERVAL
    cong: Congruence = TOP_CONGRUENCE

    @staticmethod
    def const(value: int) -> "AbsInt":
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
    if interval.bounded and (signed or interval.lo >= 0):
        return AbsInt(interval, cong)
    if cong.mod == 0:
        return AbsInt.const(ops.WRAPS[signed].fn(cong.rem))
    return AbsInt(TOP_INTERVAL, Congruence(math.gcd(cong.mod, 2**32), cong.rem))


def _arith(op: str, a: AbsInt, b: AbsInt, signed: bool = True) -> AbsInt:
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
    return TOP_INT


@dataclass(frozen=True)
class AbsAddr:
    """A symbolic address with an abstract offset.

    The interval generalisation of :class:`~repro.analysis.dataflow.SymAddr`
    over the same region vocabulary: ``"frame"``, ``"global:<name>"``,
    and ``"u:<instr>"`` opaque pointer sources.
    """

    region: str
    offset: AbsInt

    def shifted(self, delta: AbsInt, sign: int = 1) -> "AbsAddr":
        op = "+" if sign > 0 else "-"
        return AbsAddr(self.region, _arith(op, self.offset, delta))


#: A register's abstract value: AbsInt, AbsAddr, or None (⊤ — the map
#: simply drops the register).
AbsVal = object


def join_abs(a: AbsVal, b: AbsVal) -> Optional[AbsVal]:
    if a == b:
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
    if a == b:
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


@dataclass(frozen=True)
class AbsState:
    regs: tuple
    conds: tuple
    copies: tuple


EMPTY_ABS_STATE = AbsState(regs=(), conds=(), copies=())


def _freeze(regs: dict, conds: dict, copies: dict) -> AbsState:
    return AbsState(
        regs=tuple(sorted(regs.items())),
        conds=tuple(sorted(conds.items())),
        copies=tuple(sorted(copies.items())),
    )


def _thaw(state: AbsState) -> tuple[dict, dict, dict]:
    return dict(state.regs), dict(state.conds), dict(state.copies)


def _kill_reg(reg: int, conds: dict, copies: dict) -> None:
    """A write to ``reg`` invalidates every fact mentioning it."""
    conds.pop(reg, None)
    for key in [k for k, (_, a, b) in conds.items() if reg in (a, b)]:
        conds.pop(key, None)
    copies.pop(reg, None)
    for key in [k for k, root in copies.items() if root == reg]:
        copies.pop(key, None)


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
    ``Ret`` sites.  Entry functions (offload entries, domain-dispatch
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

    # ------------------------------------------------------------ lattice

    def boundary(self) -> AbsState:
        regs = {
            reg: val
            for reg, val in self.boundary_params.items()
            if val is not None
        }
        return _freeze(regs, {}, {})

    def join(self, a: AbsState, b: AbsState) -> AbsState:
        return self._merge(a, b, widen_abs=False)

    def widen(self, old: AbsState, new: AbsState, visits: int) -> AbsState:
        return self._merge(old, new, widen_abs=True)

    def _merge(self, a: AbsState, b: AbsState, *, widen_abs: bool) -> AbsState:
        ra, ca, pa = _thaw(a)
        rb, cb, pb = _thaw(b)
        regs: dict = {}
        combine = globals()["widen_abs"] if widen_abs else join_abs
        for reg, val in ra.items():
            other = rb.get(reg)
            if other is None:
                continue
            merged = combine(val, other)
            if merged is not None:
                regs[reg] = merged
        conds = {k: v for k, v in ca.items() if cb.get(k) == v}
        copies = {k: v for k, v in pa.items() if pb.get(k) == v}
        return _freeze(regs, conds, copies)

    # ----------------------------------------------------------- transfer

    def transfer(self, block: BasicBlock, state: AbsState) -> AbsState:
        regs, conds, copies = _thaw(state)
        for index, instr in block.instructions(self.function):
            self._step(instr, regs, conds, copies)
        return _freeze(regs, conds, copies)

    def _step(self, instr, regs: dict, conds: dict, copies: dict) -> None:
        if isinstance(instr, Const):
            _kill_reg(instr.dst, conds, copies)
            if isinstance(instr.value, int) and not isinstance(
                instr.value, bool
            ):
                regs[instr.dst] = AbsInt.const(instr.value)
            else:
                regs.pop(instr.dst, None)
        elif isinstance(instr, Move):
            if instr.dst == instr.src:
                return
            _kill_reg(instr.dst, conds, copies)
            src = regs.get(instr.src)
            if src is None:
                regs.pop(instr.dst, None)
            else:
                regs[instr.dst] = src
            copies[instr.dst] = copies.get(instr.src, instr.src)
        elif isinstance(instr, FrameAddr):
            _kill_reg(instr.dst, conds, copies)
            regs[instr.dst] = AbsAddr("frame", AbsInt.const(instr.offset))
        elif isinstance(instr, GlobalAddr):
            _kill_reg(instr.dst, conds, copies)
            regs[instr.dst] = AbsAddr(
                f"global:{instr.name}", AbsInt.const(0)
            )
        elif isinstance(instr, BinOp):
            a = regs.get(instr.a)
            b = regs.get(instr.b)
            # Record integer comparison facts for the branch refinement,
            # before the dst write invalidates anything.
            is_cond = instr.is_compare and not instr.float_op
            cond_fact = (instr.op, instr.a, instr.b) if is_cond else None
            _kill_reg(instr.dst, conds, copies)
            if cond_fact is not None and instr.dst not in (instr.a, instr.b):
                conds[instr.dst] = cond_fact
            regs.pop(instr.dst, None)
            if instr.is_compare:
                regs[instr.dst] = AbsInt(Interval(0, 1), TOP_CONGRUENCE)
                return
            if instr.float_op:
                return
            value = self._binop_value(instr, a, b)
            if value is not None:
                regs[instr.dst] = value
        elif isinstance(instr, UnOp):
            a = regs.get(instr.a)
            _kill_reg(instr.dst, conds, copies)
            regs.pop(instr.dst, None)
            if instr.op == "-" and isinstance(a, AbsInt) and not instr.float_op:
                regs[instr.dst] = _wrap_sound(
                    _iv_neg(a.interval), a.cong.neg()
                )
            elif instr.op == "!":
                regs[instr.dst] = AbsInt(Interval(0, 1), TOP_CONGRUENCE)
        elif isinstance(instr, Call):
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
                _kill_reg(instr.dst, conds, copies)
                regs.pop(instr.dst, None)
                summary = self.summaries.get(instr.callee)
                if summary is not None and summary.ret is not None:
                    regs[instr.dst] = summary.ret
        elif isinstance(instr, (ICall, DomainCall, Intrinsic)):
            dst = getattr(instr, "dst", None)
            if dst is not None:
                _kill_reg(dst, conds, copies)
                regs.pop(dst, None)
        else:
            dst = getattr(instr, "dst", None)
            if isinstance(dst, int):
                _kill_reg(dst, conds, copies)
                regs.pop(dst, None)

    def _binop_value(
        self, instr: BinOp, a: AbsVal, b: AbsVal
    ) -> Optional[AbsVal]:
        if isinstance(a, AbsAddr) and isinstance(b, AbsInt):
            if instr.op in ("+", "-"):
                return a.shifted(b, 1 if instr.op == "+" else -1)
            return None
        if isinstance(a, AbsInt) and isinstance(b, AbsAddr):
            if instr.op == "+":
                return b.shifted(a)
            return None
        if isinstance(a, AbsAddr) and isinstance(b, AbsAddr):
            if instr.op == "-" and a.region == b.region:
                return _wrap_sound(
                    _iv_sub(a.offset.interval, b.offset.interval),
                    a.offset.cong.sub(b.offset.cong),
                    instr.signed,
                )
            return None
        if isinstance(a, AbsInt) and isinstance(b, AbsInt):
            return _arith(instr.op, a, b, instr.signed)
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
        taken = succ_index == pred.succs[0]
        regs, conds, copies = _thaw(state)
        fact = conds.get(last.cond)
        if fact is None:
            return state
        op, ra, rb = fact
        if not taken:
            op = _NEGATE[op]
        a = regs.get(ra, TOP_INT)
        b = regs.get(rb, TOP_INT)
        if not isinstance(a, AbsInt) or not isinstance(b, AbsInt):
            return state  # addresses/floats: no arithmetic refinement
        refined = _refine_pair(op, a, b)
        if refined is None:
            return None
        new_a, new_b = refined
        for reg in _class_of(ra, copies):
            if regs.get(reg) == a or reg == ra:
                regs[reg] = new_a
        for reg in _class_of(rb, copies):
            if regs.get(reg) == b or reg == rb:
                regs[reg] = new_b
        return _freeze(regs, conds, copies)


# -------------------------------------------------- whole-function solve


@dataclass
class SolvedFunction:
    """One function's solved interval dataflow, ready for consumers."""

    function: IRFunction
    cfg: ControlFlowGraph
    result: FixpointResult
    analysis: IntervalAnalysis

    def values_before(self, instr_index: int) -> dict[int, AbsVal]:
        """The register map immediately before one instruction."""
        block = self.cfg.block_at(instr_index)
        state = self.result.block_in.get(block.index)
        if state is None:
            return {}
        regs, conds, copies = _thaw(state)
        for index, instr in block.instructions(self.function):
            if index == instr_index:
                break
            self.analysis._step(instr, regs, conds, copies)
        return regs


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
    result = solve_forward(cfg, analysis)
    return SolvedFunction(function, cfg, result, analysis)


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
        return solved, FunctionSummary(params, _return_value(solved))

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
                if value is not None and value != "unset"
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
