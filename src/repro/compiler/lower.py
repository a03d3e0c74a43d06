"""AST -> IR lowering, including the memory-space type system.

Each source function may be lowered several times:

* once as a **host** instance (always), and
* once per **(offload block, memory-space signature)** pair it is
  reachable under — the paper's automatic call-graph duplication.  The
  signature is one letter per pointer-typed parameter (``this`` first
  for methods): ``O`` for outer (host memory), ``L`` for local store.

Because spaces are concrete during lowering, the cross-space checks the
paper attributes to Offload C++'s type system are performed here:

* assigning a pointer of one space to a variable of another is
  ``E-space-assign``;
* a local-store pointer escaping into host-visible memory is
  ``E-space-escape``;
* DMA intrinsics require a local first operand and an outer second
  operand (``E-dma-space``);
* on word-addressed targets the Section 5 rules fire here
  (``E-word-arith``, ``E-word-assign``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.errors import CompileError, SourceSpan
from repro.lang import ast
from repro.lang.symbols import Symbol, SymbolKind
from repro.lang.types import (
    BOOL,
    FLOAT,
    INT,
    UINT,
    AccessorType,
    AddrUnit,
    ArrayType,
    ClassType,
    HandleType,
    MemSpace,
    MethodInfo,
    PointerType,
    ScalarType,
    Type,
    VoidType,
    common_arithmetic_type,
)
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
    Instr,
    Intrinsic,
    Jump,
    Load,
    Move,
    OffloadJoin,
    OffloadLaunch,
    Ret,
    Store,
    UnOp,
)
from repro.ir.module import IRFunction
from repro.compiler import wordaddr
from repro.compiler.wordaddr import DYNAMIC, WORD, AddrKind

if TYPE_CHECKING:
    from repro.compiler.driver import Compiler


# ---------------------------------------------------------------------------
# Value and storage descriptors
# ---------------------------------------------------------------------------


@dataclass
class EValue:
    """A lowered expression: register + static type + space metadata.

    ``space`` is meaningful for pointer-typed values (which memory the
    pointee lives in); None means "null/polymorphic".  ``addr_kind`` is
    the Section 5 address-kind on word-addressed targets.
    """

    reg: int
    type: Type
    space: Optional[MemSpace] = None
    addr_kind: AddrKind = WORD


@dataclass
class LValue:
    """A lowered assignable location.

    ``kind`` is ``"reg"`` (register-resident variable; ``reg`` is the
    variable's home register, ``symbol`` its symbol) or ``"mem"``
    (``reg`` holds a byte address into ``space``).
    """

    kind: str
    reg: int
    type: Type
    space: AccSpace = AccSpace.MAIN
    symbol: Optional[Symbol] = None
    addr_kind: AddrKind = WORD


@dataclass
class RegVar:
    reg: int


@dataclass
class FrameVar:
    offset: int


@dataclass
class CaptureVar:
    """A captured enclosing-function variable; ``reg`` holds its host
    address (passed to the offload entry as a parameter)."""

    reg: int


@dataclass
class AccessorVar:
    """An ``Array<T, N>`` accessor's compile-time state."""

    mode: str  # "staged" (local copy) or "direct" (shared memory)
    frame_offset: int
    base_reg: int
    element: Type = field(default_factory=lambda: INT)
    count: int = 0


VarSlot = object  # RegVar | FrameVar | CaptureVar | AccessorVar


_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}


class FunctionLowerer:
    """Lowers one function instance (one space signature) to IR."""

    def __init__(
        self,
        compiler: "Compiler",
        decl: ast.FuncDecl,
        owner: Optional[ClassType],
        space: str,
        sig: str,
        offload: Optional[ast.OffloadExpr],
        mangled: str,
    ):
        self.compiler = compiler
        self.decl = decl
        self.owner = owner
        self.space = space  # "host" | "accel"
        self.sig = sig
        self.offload = offload
        self.mangled = mangled
        config = compiler.config
        self.cross_space = space == "accel" and not config.shared_memory
        self.word_target = config.word_addressed
        self.word_size = config.word_size
        self.emulate_bytes = (
            compiler.options.wordaddr_mode == "emulate" and self.word_target
        )
        self.code: list[Instr] = []
        self.labels: dict[str, int] = {}
        self._next_reg = 0
        self._next_label = 0
        self._frame_top = 0
        self.env: dict[Symbol, VarSlot] = {}
        self.ptr_space: dict[Symbol, MemSpace] = {}
        self.this_symbol: Optional[Symbol] = None
        self._break_labels: list[str] = []
        self._continue_labels: list[str] = []

    # ----------------------------------------------------------- plumbing

    def fail(self, code: str, message: str, span: Optional[SourceSpan]) -> None:
        raise CompileError.single(code, f"[{self.mangled}] {message}", span)

    def reg(self) -> int:
        self._next_reg += 1
        return self._next_reg - 1

    def emit(self, instr: Instr) -> Instr:
        self.code.append(instr)
        return instr

    def label(self, hint: str) -> str:
        self._next_label += 1
        return f".{hint}{self._next_label}"

    def place(self, label: str) -> None:
        self.labels[label] = len(self.code)

    def frame_alloc(self, size: int, alignment: int = 8) -> int:
        if self.word_target:
            alignment = max(alignment, self.word_size)
        self._frame_top = (
            (self._frame_top + alignment - 1) // alignment * alignment
        )
        offset = self._frame_top
        self._frame_top += size
        return offset

    # ------------------------------------------------------ space helpers

    @property
    def frame_acc_space(self) -> AccSpace:
        """Which memory a frame slot access touches."""
        return AccSpace.LOCAL if self.cross_space else AccSpace.MAIN

    @property
    def data_acc_space(self) -> AccSpace:
        """Which memory an access to main-memory data touches."""
        return AccSpace.OUTER if self.cross_space else AccSpace.MAIN

    def pointee_acc_space(self, ptr_space: Optional[MemSpace]) -> AccSpace:
        """Access space for dereferencing a pointer of the given space."""
        if ptr_space is MemSpace.LOCAL:
            if not self.cross_space:
                raise AssertionError("LOCAL pointer outside accelerator code")
            return AccSpace.LOCAL
        return self.data_acc_space

    def mem_space_of(self, acc: AccSpace) -> MemSpace:
        """The pointer space produced by taking an address in ``acc``."""
        return MemSpace.LOCAL if acc is AccSpace.LOCAL else MemSpace.HOST

    # ----------------------------------------------------------- prologue

    def compile(self) -> IRFunction:
        """Lower the whole function body."""
        param_names: list[str] = []
        param_syms: list[Symbol] = []
        if self.owner is not None:
            # Reuse sema's symbol so capture lists resolve by identity.
            self.this_symbol = self.decl.this_symbol  # type: ignore[attr-defined]
            assert self.this_symbol is not None
            param_names.append("this")
            param_syms.append(self.this_symbol)
        for param in self.decl.params:
            assert param.symbol is not None
            param_names.append(param.name)
            param_syms.append(param.symbol)
        # Parameters arrive in registers 0..n-1.
        self._next_reg = len(param_syms)
        # Assign spaces to pointer params from the signature.
        ptr_syms = [s for s in param_syms if isinstance(s.type, PointerType)]
        if self.space == "accel" and self.cross_space:
            if len(self.sig) != len(ptr_syms):
                raise AssertionError(
                    f"{self.mangled}: signature {self.sig!r} does not cover "
                    f"{len(ptr_syms)} pointer parameters"
                )
            for code, symbol in zip(self.sig, ptr_syms):
                self.ptr_space[symbol] = (
                    MemSpace.LOCAL if code == "L" else MemSpace.HOST
                )
        else:
            for symbol in ptr_syms:
                self.ptr_space[symbol] = MemSpace.HOST
        # Home each parameter: register by default, frame slot if its
        # address is taken or it is captured by an offload block.
        for index, symbol in enumerate(param_syms):
            needs_memory = symbol.address_taken or symbol.is_captured
            if needs_memory:
                offset = self.frame_alloc(
                    max(symbol.type.size(), 4), max(symbol.type.align(), 4)
                )
                addr = self.reg()
                self.emit(FrameAddr(dst=addr, offset=offset, comment=symbol.name))
                self._emit_store_scalar(
                    addr, index, symbol.type, self.frame_acc_space
                )
                self.env[symbol] = FrameVar(offset)
            else:
                self.env[symbol] = RegVar(index)
        assert self.decl.body is not None
        self.lower_block(self.decl.body)
        self.emit(Ret(src=None))
        function = IRFunction(
            name=self.mangled,
            params=param_names,
            space=self.space,
            source_name=self.decl.qualified_name,
            duplicate_id=self.sig,
            num_regs=self._next_reg,
            frame_size=self._frame_top,
            code=self.code,
            labels=self.labels,
        )
        return function

    # --------------------------------------------------------- statements

    def lower_block(self, block: ast.BlockStmt) -> None:
        for stmt in block.statements:
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.BlockStmt):
            self.lower_block(stmt)
        elif isinstance(stmt, ast.VarDeclStmt):
            self.lower_var_decl(stmt)
        elif isinstance(stmt, ast.AssignStmt):
            self.lower_assign(stmt)
        elif isinstance(stmt, ast.IncDecStmt):
            self.lower_incdec(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, ast.OffloadExpr):
                handle = self.lower_offload_launch(stmt.expr)
                self.emit(OffloadJoin(handle=handle.reg))
            else:
                self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self.lower_while(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self.lower_for(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self.lower_return(stmt)
        elif isinstance(stmt, ast.BreakStmt):
            self.emit(Jump(label=self._break_labels[-1]))
        elif isinstance(stmt, ast.ContinueStmt):
            self.emit(Jump(label=self._continue_labels[-1]))
        elif isinstance(stmt, ast.JoinStmt):
            handle = self.lower_expr(stmt.handle)
            self.emit(OffloadJoin(handle=handle.reg))
        else:
            raise AssertionError(f"unhandled statement {stmt!r}")

    def lower_var_decl(self, stmt: ast.VarDeclStmt) -> None:
        symbol = stmt.symbol
        assert symbol is not None
        var_type = symbol.type
        if isinstance(var_type, AccessorType):
            self.lower_accessor_decl(stmt, symbol, var_type)
            return
        if isinstance(var_type, HandleType):
            assert isinstance(stmt.init, ast.OffloadExpr)
            handle = self.lower_offload_launch(stmt.init)
            self.env[symbol] = RegVar(handle.reg)
            return
        needs_memory = (
            symbol.address_taken
            or symbol.is_captured
            or isinstance(var_type, (ArrayType, ClassType))
        )
        init_value: Optional[EValue] = None
        if stmt.init is not None:
            init_value = self.lower_expr(stmt.init)
        if isinstance(var_type, PointerType):
            self._fix_pointer_space(symbol, var_type, init_value, stmt.span)
        if needs_memory:
            offset = self.frame_alloc(
                max(var_type.size(), 1), max(var_type.align(), 4)
            )
            self.env[symbol] = FrameVar(offset)
            self._init_frame_object(offset, var_type)
            if init_value is not None:
                addr = self.reg()
                self.emit(FrameAddr(dst=addr, offset=offset, comment=symbol.name))
                if isinstance(var_type, ClassType):
                    self.emit(
                        Copy(
                            dst_addr=addr,
                            src_addr=init_value.reg,
                            size=var_type.size(),
                            dst_space=self.frame_acc_space,
                            src_space=self._class_value_space(init_value),
                        )
                    )
                else:
                    coerced = self.coerce(init_value, var_type, stmt.span)
                    self._emit_store_scalar(
                        addr, coerced.reg, var_type, self.frame_acc_space
                    )
        else:
            home = self.reg()
            if init_value is not None:
                coerced = self.coerce(init_value, var_type, stmt.span)
                self.emit(Move(dst=home, src=coerced.reg, comment=symbol.name))
            else:
                self.emit(Const(dst=home, value=0, comment=symbol.name))
            self.env[symbol] = RegVar(home)

    def _class_value_space(self, value: EValue) -> AccSpace:
        """A class-typed EValue carries the object's address; map its
        pointer space to an access space."""
        return self.pointee_acc_space(value.space)

    def _init_frame_object(self, offset: int, var_type: Type) -> None:
        """Write vptrs for polymorphic objects freshly created in the
        frame (the constructor's job in real C++)."""
        if isinstance(var_type, ClassType) and var_type.has_vptr:
            vtable_addr = self.compiler.layout.vtables[var_type.name]
            value = self.reg()
            self.emit(Const(dst=value, value=vtable_addr, comment="vptr"))
            addr = self.reg()
            self.emit(FrameAddr(dst=addr, offset=offset))
            self.emit(
                Store(addr=addr, src=value, size=4, space=self.frame_acc_space)
            )
        elif isinstance(var_type, ArrayType):
            element = var_type.element
            if isinstance(element, ClassType) and element.has_vptr:
                for index in range(var_type.count):
                    self._init_frame_object(
                        offset + index * element.size(), element
                    )

    def _fix_pointer_space(
        self,
        symbol: Symbol,
        declared: PointerType,
        init: Optional[EValue],
        span: Optional[SourceSpan],
    ) -> None:
        """Bind the variable's space: explicit __outer wins, otherwise
        inferred from the initialiser (the paper's automatic
        qualification), defaulting to HOST."""
        if declared.space is MemSpace.HOST:
            space = MemSpace.HOST
            if init is not None and init.space is MemSpace.LOCAL:
                self.fail(
                    "E-space-assign",
                    f"cannot initialise __outer pointer {symbol.name!r} "
                    f"with a local-store address",
                    span,
                )
        elif init is not None and init.space is not None:
            space = init.space
        else:
            space = MemSpace.HOST
        self.ptr_space[symbol] = space
        if self.word_target and not self.emulate_bytes and init is not None:
            wordaddr.check_pointer_flow(
                declared,
                init.addr_kind,
                True,
                span,
                f"initialise {symbol.name!r}",
            )

    def lower_accessor_decl(
        self, stmt: ast.VarDeclStmt, symbol: Symbol, acc_type: AccessorType
    ) -> None:
        assert stmt.init is not None
        base = self.lower_expr(stmt.init)
        base = self.decay(base)
        if base.space is MemSpace.LOCAL:
            self.fail(
                "E-accessor-space",
                "Array<T, N> stages *outer* data; the bound array is "
                "already in local store",
                stmt.span,
            )
        element_size = acc_type.element.size()
        total = element_size * acc_type.count
        if self.cross_space:
            offset = self.frame_alloc(total, max(acc_type.element.align(), 16))
            local = self.reg()
            self.emit(FrameAddr(dst=local, offset=offset, comment=symbol.name))
            size_reg = self.reg()
            self.emit(Const(dst=size_reg, value=total))
            self.emit(
                Intrinsic(
                    dst=None,
                    name="acc_bulk_get",
                    args=[local, base.reg, size_reg],
                )
            )
            self.env[symbol] = AccessorVar(
                mode="staged",
                frame_offset=offset,
                base_reg=base.reg,
                element=acc_type.element,
                count=acc_type.count,
            )
        else:
            self.env[symbol] = AccessorVar(
                mode="direct",
                frame_offset=0,
                base_reg=base.reg,
                element=acc_type.element,
                count=acc_type.count,
            )

    def lower_assign(self, stmt: ast.AssignStmt) -> None:
        target = self.lower_lvalue(stmt.target)
        value = self.lower_expr(stmt.value)
        if stmt.op:
            current = self._read_lvalue(target)
            value = self._binary_values(
                stmt.op, current, value, stmt.target.type, stmt.span
            )
        self._write_lvalue(target, value, stmt.span)

    def lower_incdec(self, stmt: ast.IncDecStmt) -> None:
        target = self.lower_lvalue(stmt.target)
        current = self._read_lvalue(target)
        one = ast.IntLit(1)
        one.type = INT
        delta = EValue(self.reg(), INT)
        self.emit(Const(dst=delta.reg, value=1))
        op = "+" if stmt.delta > 0 else "-"
        result = self._binary_values(
            op, current, delta, stmt.target.type, stmt.span, index_expr=one
        )
        self._write_lvalue(target, result, stmt.span)

    def lower_if(self, stmt: ast.IfStmt) -> None:
        then_label = self.label("then")
        else_label = self.label("else")
        end_label = self.label("endif")
        self.lower_condition(stmt.condition, then_label, else_label)
        self.place(then_label)
        self.lower_stmt(stmt.then_body)
        self.emit(Jump(label=end_label))
        self.place(else_label)
        if stmt.else_body is not None:
            self.lower_stmt(stmt.else_body)
        self.place(end_label)

    def lower_while(self, stmt: ast.WhileStmt) -> None:
        cond_label = self.label("while")
        body_label = self.label("body")
        end_label = self.label("endwhile")
        self.place(cond_label)
        self.lower_condition(stmt.condition, body_label, end_label)
        self.place(body_label)
        self._break_labels.append(end_label)
        self._continue_labels.append(cond_label)
        self.lower_stmt(stmt.body)
        self._break_labels.pop()
        self._continue_labels.pop()
        self.emit(Jump(label=cond_label))
        self.place(end_label)

    def lower_for(self, stmt: ast.ForStmt) -> None:
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        cond_label = self.label("for")
        body_label = self.label("body")
        step_label = self.label("step")
        end_label = self.label("endfor")
        self.place(cond_label)
        if stmt.condition is not None:
            self.lower_condition(stmt.condition, body_label, end_label)
        else:
            self.emit(Jump(label=body_label))
        self.place(body_label)
        self._break_labels.append(end_label)
        self._continue_labels.append(step_label)
        self.lower_stmt(stmt.body)
        self._break_labels.pop()
        self._continue_labels.pop()
        self.place(step_label)
        if stmt.step is not None:
            self.lower_stmt(stmt.step)
        self.emit(Jump(label=cond_label))
        self.place(end_label)

    def lower_return(self, stmt: ast.ReturnStmt) -> None:
        if stmt.value is None:
            self.emit(Ret(src=None))
            return
        value = self.lower_expr(stmt.value)
        expected = self.decl.resolved_return_type  # type: ignore[attr-defined]
        value = self.coerce(value, expected, stmt.span)
        if (
            isinstance(expected, PointerType)
            and value.space is MemSpace.LOCAL
        ):
            self.fail(
                "E-space-return",
                "returning a local-store pointer from an offloaded function "
                "would dangle once the frame is released",
                stmt.span,
            )
        self.emit(Ret(src=value.reg))

    # -------------------------------------------------------- conditions

    def lower_condition(
        self, expr: ast.Expr, true_label: str, false_label: str
    ) -> None:
        if isinstance(expr, ast.BinaryExpr) and expr.op == "&&":
            mid = self.label("and")
            self.lower_condition(expr.lhs, mid, false_label)
            self.place(mid)
            self.lower_condition(expr.rhs, true_label, false_label)
            return
        if isinstance(expr, ast.BinaryExpr) and expr.op == "||":
            mid = self.label("or")
            self.lower_condition(expr.lhs, true_label, mid)
            self.place(mid)
            self.lower_condition(expr.rhs, true_label, false_label)
            return
        if isinstance(expr, ast.UnaryExpr) and expr.op == "!":
            self.lower_condition(expr.operand, false_label, true_label)
            return
        value = self.lower_expr(expr)
        self.emit(
            CJump(cond=value.reg, then_label=true_label, else_label=false_label)
        )

    # ------------------------------------------------------- expressions

    def decay(self, value: EValue) -> EValue:
        """Array-to-pointer decay (the register already holds the
        array's address, so only the type changes)."""
        if isinstance(value.type, ArrayType):
            return EValue(
                value.reg,
                PointerType(value.type.element, value.space or MemSpace.HOST),
                value.space,
                value.addr_kind,
            )
        return value

    def lower_expr(self, expr: ast.Expr) -> EValue:
        if isinstance(expr, ast.IntLit):
            reg = self.reg()
            self.emit(Const(dst=reg, value=expr.value))
            assert expr.type is not None
            return EValue(reg, expr.type)
        if isinstance(expr, ast.FloatLit):
            reg = self.reg()
            self.emit(Const(dst=reg, value=float(expr.value)))
            return EValue(reg, FLOAT)
        if isinstance(expr, ast.BoolLit):
            reg = self.reg()
            self.emit(Const(dst=reg, value=1 if expr.value else 0))
            return EValue(reg, BOOL)
        if isinstance(expr, ast.NullLit):
            reg = self.reg()
            self.emit(Const(dst=reg, value=0))
            assert expr.type is not None
            return EValue(reg, expr.type, None)
        if isinstance(expr, ast.SizeofExpr):
            reg = self.reg()
            self.emit(Const(dst=reg, value=expr.folded_size))  # type: ignore[attr-defined]
            return EValue(reg, INT)
        if isinstance(expr, ast.NameExpr):
            return self.lower_name(expr)
        if isinstance(expr, ast.ThisExpr):
            return self.lower_this(expr)
        if isinstance(expr, ast.UnaryExpr):
            return self.lower_unary(expr)
        if isinstance(expr, ast.BinaryExpr):
            return self.lower_binary(expr)
        if isinstance(expr, (ast.IndexExpr, ast.MemberExpr)):
            lvalue = self.lower_lvalue(expr)
            return self._read_lvalue(lvalue)
        if isinstance(expr, ast.CallExpr):
            return self.lower_call(expr)
        if isinstance(expr, ast.CastExpr):
            return self.lower_cast(expr)
        if isinstance(expr, ast.OffloadExpr):
            return self.lower_offload_launch(expr)
        raise AssertionError(f"unhandled expression {expr!r}")

    def lower_name(self, expr: ast.NameExpr) -> EValue:
        symbol = expr.symbol
        assert symbol is not None
        if symbol.kind is SymbolKind.FIELD:
            return self._read_lvalue(self._field_lvalue_via_this(expr))
        slot = self.env.get(symbol)
        if slot is None:
            if symbol.kind is SymbolKind.GLOBAL:
                return self._read_lvalue(self._global_lvalue(symbol))
            raise AssertionError(f"no slot for {symbol!r} in {self.mangled}")
        if isinstance(slot, RegVar):
            reg = self.reg()
            self.emit(Move(dst=reg, src=slot.reg, comment=symbol.name))
            return EValue(
                reg,
                symbol.type,
                self.ptr_space.get(symbol),
                self._var_addr_kind(symbol),
            )
        if isinstance(slot, (FrameVar, CaptureVar)):
            return self._read_lvalue(self._var_lvalue(symbol, slot))
        if isinstance(slot, AccessorVar):
            self.fail(
                "E-accessor-use",
                f"accessor {symbol.name!r} can only be indexed or put_back",
                expr.span,
            )
        raise AssertionError

    def _var_addr_kind(self, symbol: Symbol) -> AddrKind:
        if isinstance(symbol.type, PointerType):
            return wordaddr.initial_kind(symbol.type, self.word_target)
        return WORD

    def lower_this(self, expr: ast.Expr) -> EValue:
        symbol = self.this_symbol
        assert symbol is not None, "'this' outside a method"
        slot = self.env[symbol]
        if isinstance(slot, RegVar):
            reg = self.reg()
            self.emit(Move(dst=reg, src=slot.reg, comment="this"))
            return EValue(reg, symbol.type, self.ptr_space.get(symbol))
        assert isinstance(slot, (FrameVar, CaptureVar))
        return self._read_lvalue(self._var_lvalue(symbol, slot))

    # Variable lvalues -----------------------------------------------------

    def _global_lvalue(self, symbol: Symbol) -> LValue:
        reg = self.reg()
        self.emit(GlobalAddr(dst=reg, name=symbol.name))
        return LValue(
            kind="mem",
            reg=reg,
            type=symbol.type,
            space=self.data_acc_space,
            symbol=symbol,
            addr_kind=WORD,
        )

    def _var_lvalue(self, symbol: Symbol, slot: VarSlot) -> LValue:
        if isinstance(slot, RegVar):
            return LValue(kind="reg", reg=slot.reg, type=symbol.type, symbol=symbol)
        if isinstance(slot, FrameVar):
            reg = self.reg()
            self.emit(FrameAddr(dst=reg, offset=slot.offset, comment=symbol.name))
            return LValue(
                kind="mem",
                reg=reg,
                type=symbol.type,
                space=self.frame_acc_space,
                symbol=symbol,
                addr_kind=WORD,
            )
        if isinstance(slot, CaptureVar):
            return LValue(
                kind="mem",
                reg=slot.reg,
                type=symbol.type,
                space=self.data_acc_space,
                symbol=symbol,
                addr_kind=WORD,
            )
        raise AssertionError(f"{symbol!r} is not a plain variable")

    def _field_lvalue_via_this(self, expr: ast.NameExpr) -> LValue:
        this_value = self.lower_this(expr)
        field_info = expr.symbol.decl if expr.symbol is not None else None
        from repro.lang.types import FieldInfo

        assert isinstance(field_info, FieldInfo)
        return self._member_lvalue_from(
            this_value, field_info, arrow=True, span=expr.span
        )

    # L-values -------------------------------------------------------------

    def lower_lvalue(self, expr: ast.Expr) -> LValue:
        if isinstance(expr, ast.NameExpr):
            symbol = expr.symbol
            assert symbol is not None
            if symbol.kind is SymbolKind.FIELD:
                return self._field_lvalue_via_this(expr)
            if symbol.kind is SymbolKind.GLOBAL:
                return self._global_lvalue(symbol)
            slot = self.env[symbol]
            if isinstance(slot, AccessorVar):
                self.fail(
                    "E-accessor-use",
                    f"accessor {symbol.name!r} is not assignable",
                    expr.span,
                )
            return self._var_lvalue(symbol, slot)
        if isinstance(expr, ast.UnaryExpr) and expr.op == "*":
            pointer = self.decay(self.lower_expr(expr.operand))
            assert isinstance(pointer.type, PointerType)
            return LValue(
                kind="mem",
                reg=pointer.reg,
                type=pointer.type.pointee,
                space=self.pointee_acc_space(pointer.space),
                addr_kind=pointer.addr_kind,
            )
        if isinstance(expr, ast.IndexExpr):
            return self.lower_index_lvalue(expr)
        if isinstance(expr, ast.MemberExpr):
            return self.lower_member_lvalue(expr)
        self.fail("E-lvalue", "expression is not assignable", expr.span)
        raise AssertionError

    def lower_index_lvalue(self, expr: ast.IndexExpr) -> LValue:
        base_type = expr.base.type
        index = self.lower_expr(expr.index)
        if isinstance(base_type, AccessorType):
            return self._accessor_index_lvalue(expr, index)
        if isinstance(base_type, ArrayType):
            base_lvalue = self.lower_lvalue(expr.base)
            assert base_lvalue.kind == "mem"
            element = base_type.element
            addr, kind = self._pointer_offset(
                base_lvalue.reg,
                base_lvalue.addr_kind,
                element,
                index,
                expr.index,
                expr.span,
            )
            return LValue(
                kind="mem",
                reg=addr,
                type=element,
                space=base_lvalue.space,
                addr_kind=kind,
            )
        pointer = self.decay(self.lower_expr(expr.base))
        assert isinstance(pointer.type, PointerType)
        element = pointer.type.pointee
        addr, kind = self._pointer_offset(
            pointer.reg, pointer.addr_kind, element, index, expr.index, expr.span
        )
        return LValue(
            kind="mem",
            reg=addr,
            type=element,
            space=self.pointee_acc_space(pointer.space),
            addr_kind=kind,
        )

    def _accessor_index_lvalue(
        self, expr: ast.IndexExpr, index: EValue
    ) -> LValue:
        assert isinstance(expr.base, ast.NameExpr)
        symbol = expr.base.symbol
        assert symbol is not None
        slot = self.env[symbol]
        assert isinstance(slot, AccessorVar)
        element_size = max(1, slot.element.size())
        scaled = self.reg()
        size_reg = self.reg()
        self.emit(Const(dst=size_reg, value=element_size))
        self.emit(
            BinOp(op="*", dst=scaled, a=index.reg, b=size_reg, signed=False)
        )
        addr = self.reg()
        if slot.mode == "staged":
            base = self.reg()
            self.emit(FrameAddr(dst=base, offset=slot.frame_offset))
            self.emit(BinOp(op="+", dst=addr, a=base, b=scaled, signed=False))
            space = AccSpace.LOCAL
        else:
            self.emit(
                BinOp(op="+", dst=addr, a=slot.base_reg, b=scaled, signed=False)
            )
            space = self.data_acc_space
        return LValue(kind="mem", reg=addr, type=slot.element, space=space)

    def lower_member_lvalue(self, expr: ast.MemberExpr) -> LValue:
        assert expr.field is not None, "member lvalue must be a field"
        if expr.arrow:
            base = self.decay(self.lower_expr(expr.base))
            return self._member_lvalue_from(base, expr.field, True, expr.span)
        base_lvalue = self.lower_lvalue(expr.base)
        assert base_lvalue.kind == "mem"
        field_info = expr.field
        addr = self.reg()
        offset_reg = self.reg()
        self.emit(Const(dst=offset_reg, value=field_info.offset))
        self.emit(
            BinOp(op="+", dst=addr, a=base_lvalue.reg, b=offset_reg, signed=False)
        )
        kind = base_lvalue.addr_kind
        if self.word_target:
            kind = wordaddr.add_offset(
                base_lvalue.addr_kind,
                field_info.offset,
                self.word_size,
                expr.span,
                f"field {field_info.name!r}",
            )
        return LValue(
            kind="mem",
            reg=addr,
            type=field_info.type,
            space=base_lvalue.space,
            addr_kind=kind,
        )

    def _member_lvalue_from(
        self, base: EValue, field_info: object, arrow: bool, span
    ) -> LValue:
        from repro.lang.types import FieldInfo

        assert isinstance(field_info, FieldInfo)
        assert isinstance(base.type, PointerType)
        addr = self.reg()
        offset_reg = self.reg()
        self.emit(Const(dst=offset_reg, value=field_info.offset))
        self.emit(BinOp(op="+", dst=addr, a=base.reg, b=offset_reg, signed=False))
        kind = base.addr_kind
        if self.word_target:
            kind = wordaddr.add_offset(
                base.addr_kind,
                field_info.offset,
                self.word_size,
                span,
                f"field {field_info.name!r}",
            )
        return LValue(
            kind="mem",
            reg=addr,
            type=field_info.type,
            space=self.pointee_acc_space(base.space),
            addr_kind=kind,
        )

    # Reads and writes ------------------------------------------------------

    def _read_lvalue(self, lvalue: LValue) -> EValue:
        if lvalue.kind == "reg":
            reg = self.reg()
            self.emit(Move(dst=reg, src=lvalue.reg))
            space = (
                self.ptr_space.get(lvalue.symbol)
                if lvalue.symbol is not None
                else None
            )
            kind = (
                self._var_addr_kind(lvalue.symbol)
                if lvalue.symbol is not None
                else WORD
            )
            return EValue(reg, lvalue.type, space, kind)
        value_type = lvalue.type
        if isinstance(value_type, (ClassType, ArrayType)):
            # Composite reads yield the address (used by Copy / decay).
            space = self.mem_space_of(lvalue.space)
            return EValue(lvalue.reg, value_type, space, lvalue.addr_kind)
        reg = self.reg()
        self._emit_load_scalar(reg, lvalue)
        space: Optional[MemSpace] = None
        kind: AddrKind = WORD
        if isinstance(value_type, PointerType):
            if lvalue.symbol is not None and lvalue.symbol in self.ptr_space:
                space = self.ptr_space[lvalue.symbol]
            else:
                space = MemSpace.HOST  # pointers at rest are host pointers
            kind = wordaddr.initial_kind(value_type, self.word_target)
        return EValue(reg, value_type, space, kind)

    def _write_lvalue(
        self, lvalue: LValue, value: EValue, span: Optional[SourceSpan]
    ) -> None:
        value = self.coerce(value, lvalue.type, span)
        if isinstance(lvalue.type, PointerType):
            self._check_pointer_write(lvalue, value, span)
        if lvalue.kind == "reg":
            self.emit(Move(dst=lvalue.reg, src=value.reg))
            return
        if isinstance(lvalue.type, ClassType):
            self.emit(
                Copy(
                    dst_addr=lvalue.reg,
                    src_addr=value.reg,
                    size=lvalue.type.size(),
                    dst_space=lvalue.space,
                    src_space=self._class_value_space(value),
                )
            )
            return
        self._emit_store_scalar_lv(lvalue, value.reg)

    def _check_pointer_write(
        self, lvalue: LValue, value: EValue, span: Optional[SourceSpan]
    ) -> None:
        declared = lvalue.type
        assert isinstance(declared, PointerType)
        if lvalue.symbol is not None and lvalue.symbol in self.ptr_space:
            expected = self.ptr_space[lvalue.symbol]
            if value.space is not None and value.space is not expected:
                self.fail(
                    "E-space-assign",
                    f"cannot assign a {value.space.value} pointer to "
                    f"{lvalue.symbol.name!r}, which points into "
                    f"{expected.value} memory (pointers never change "
                    f"memory space)",
                    span,
                )
        else:
            # Storing through arbitrary memory: local pointers must not
            # escape to host-visible storage.
            if value.space is MemSpace.LOCAL:
                self.fail(
                    "E-space-escape",
                    "a local-store pointer cannot be stored into memory "
                    "visible to other cores (it is meaningless outside "
                    "this accelerator)",
                    span,
                )
        if self.word_target and not self.emulate_bytes:
            wordaddr.check_pointer_flow(
                declared, value.addr_kind, True, span, "assign"
            )

    # Scalar load/store with word-addressing lowering ------------------------

    def _emit_load_scalar(self, dst: int, lvalue: LValue) -> None:
        value_type = lvalue.type
        size = max(1, value_type.size())
        signed = isinstance(value_type, ScalarType) and value_type.signed
        is_float = isinstance(value_type, ScalarType) and value_type.is_float_type
        if not self.word_target:
            self.emit(
                Load(
                    dst=dst,
                    addr=lvalue.reg,
                    size=size,
                    space=lvalue.space,
                    signed=signed,
                    is_float=is_float,
                )
            )
            return
        plan = self._word_plan(lvalue.addr_kind, size)
        if plan == "direct":
            addr = lvalue.reg
            if self.emulate_bytes:
                # Byte-pointer emulation converts the pointer on every
                # dereference (byte address -> word address): two ALU
                # operations the hybrid scheme avoids.
                addr = self._aligned_addr_reg(lvalue)
            self.emit(
                Load(
                    dst=dst,
                    addr=addr,
                    size=size,
                    space=lvalue.space,
                    signed=signed,
                    is_float=is_float,
                )
            )
            return
        word_reg, offset_info = self._load_containing_word(lvalue)
        const_offset, offset_reg = offset_info
        self.emit(
            Extract(
                dst=dst,
                word=word_reg,
                size=size,
                const_offset=const_offset,
                offset=offset_reg,
                signed=signed,
            )
        )

    def _emit_store_scalar_lv(self, lvalue: LValue, src: int) -> None:
        value_type = lvalue.type
        size = max(1, value_type.size())
        is_float = isinstance(value_type, ScalarType) and value_type.is_float_type
        if not self.word_target:
            self.emit(
                Store(
                    addr=lvalue.reg,
                    src=src,
                    size=size,
                    space=lvalue.space,
                    is_float=is_float,
                )
            )
            return
        plan = self._word_plan(lvalue.addr_kind, size)
        if plan == "direct":
            addr = lvalue.reg
            if self.emulate_bytes:
                addr = self._aligned_addr_reg(lvalue)
            self.emit(
                Store(
                    addr=addr,
                    src=src,
                    size=size,
                    space=lvalue.space,
                    is_float=is_float,
                )
            )
            return
        # Read-modify-write of the containing word.
        word_reg, (const_offset, offset_reg) = self._load_containing_word(lvalue)
        merged = self.reg()
        self.emit(
            Insert(
                dst=merged,
                word=word_reg,
                value=src,
                size=size,
                const_offset=const_offset,
                offset=offset_reg,
            )
        )
        aligned = self._aligned_addr_reg(lvalue)
        self.emit(
            Store(
                addr=aligned,
                src=merged,
                size=self.word_size,
                space=lvalue.space,
                is_float=False,
            )
        )

    def _word_plan(self, kind: AddrKind, size: int) -> str:
        if self.emulate_bytes:
            # All pointers are byte pointers; every access converts.
            return "dynamic-extract" if size < self.word_size else "direct"
        return wordaddr.deref_plan(kind, size, self.word_size)

    def _aligned_addr_reg(self, lvalue: LValue) -> int:
        """Register holding the word-aligned base of the access."""
        mask_reg = self.reg()
        self.emit(Const(dst=mask_reg, value=~(self.word_size - 1)))
        aligned = self.reg()
        self.emit(
            BinOp(op="&", dst=aligned, a=lvalue.reg, b=mask_reg, signed=False)
        )
        return aligned

    def _load_containing_word(
        self, lvalue: LValue
    ) -> tuple[int, tuple[Optional[int], int]]:
        """Load the word containing the byte access; returns the word
        register and (const_offset, offset_reg) for Extract/Insert."""
        aligned = self._aligned_addr_reg(lvalue)
        word_reg = self.reg()
        self.emit(
            Load(
                dst=word_reg,
                addr=aligned,
                size=self.word_size,
                space=lvalue.space,
                signed=False,
            )
        )
        if isinstance(lvalue.addr_kind, int) and not self.emulate_bytes:
            return word_reg, (lvalue.addr_kind % self.word_size, 0)
        if lvalue.addr_kind == WORD and not self.emulate_bytes:
            return word_reg, (0, 0)
        low_mask = self.reg()
        self.emit(Const(dst=low_mask, value=self.word_size - 1))
        offset_reg = self.reg()
        self.emit(
            BinOp(op="&", dst=offset_reg, a=lvalue.reg, b=low_mask, signed=False)
        )
        return word_reg, (None, offset_reg)

    def _emit_store_scalar(
        self, addr: int, src: int, value_type: Type, space: AccSpace
    ) -> None:
        """Store helper for internally generated, word-aligned addresses."""
        size = max(1, value_type.size())
        is_float = isinstance(value_type, ScalarType) and value_type.is_float_type
        if self.word_target and size < self.word_size:
            lvalue = LValue(
                kind="mem", reg=addr, type=value_type, space=space, addr_kind=WORD
            )
            self._emit_store_scalar_lv(lvalue, src)
            return
        self.emit(
            Store(addr=addr, src=src, size=size, space=space, is_float=is_float)
        )

    # Arithmetic -------------------------------------------------------------

    def lower_unary(self, expr: ast.UnaryExpr) -> EValue:
        if expr.op == "*":
            lvalue = self.lower_lvalue(expr)
            return self._read_lvalue(lvalue)
        if expr.op == "&" and hasattr(expr, "func_target"):
            # &free_function: the value is the host function id.
            decl = expr.func_target  # type: ignore[attr-defined]
            fid = self.compiler.layout.fid_by_name[decl.qualified_name]
            reg = self.reg()
            self.emit(Const(dst=reg, value=fid, comment=f"&{decl.name}"))
            assert expr.type is not None
            return EValue(reg, expr.type)
        if expr.op == "&":
            inner = self.lower_lvalue(expr.operand)
            if inner.kind != "mem":
                self.fail(
                    "E-lvalue",
                    "cannot take the address of a register variable "
                    "(compiler bug: sema should have forced frame storage)",
                    expr.span,
                )
            assert expr.type is not None
            return EValue(
                inner.reg,
                expr.type,
                self.mem_space_of(inner.space),
                inner.addr_kind,
            )
        operand = self.lower_expr(expr.operand)
        reg = self.reg()
        is_float = operand.type == FLOAT
        self.emit(UnOp(op=expr.op, dst=reg, a=operand.reg, float_op=is_float))
        assert expr.type is not None
        return EValue(reg, expr.type)

    def lower_binary(self, expr: ast.BinaryExpr) -> EValue:
        if expr.op in ("&&", "||"):
            return self._lower_logical_value(expr)
        lhs = self.lower_expr(expr.lhs)
        rhs = self.lower_expr(expr.rhs)
        assert expr.type is not None
        return self._binary_values(
            expr.op, lhs, rhs, expr.type, expr.span, index_expr=expr.rhs
        )

    def _lower_logical_value(self, expr: ast.BinaryExpr) -> EValue:
        result = self.reg()
        true_label = self.label("true")
        false_label = self.label("false")
        end_label = self.label("endlogic")
        self.lower_condition(expr, true_label, false_label)
        self.place(true_label)
        self.emit(Const(dst=result, value=1))
        self.emit(Jump(label=end_label))
        self.place(false_label)
        self.emit(Const(dst=result, value=0))
        self.place(end_label)
        return EValue(result, BOOL)

    def _binary_values(
        self,
        op: str,
        lhs: EValue,
        rhs: EValue,
        result_type: Optional[Type],
        span: Optional[SourceSpan],
        index_expr: Optional[ast.Expr] = None,
    ) -> EValue:
        lhs = self.decay(lhs)
        rhs = self.decay(rhs)
        # Pointer arithmetic.
        if isinstance(lhs.type, PointerType) and not isinstance(
            rhs.type, PointerType
        ):
            return self._pointer_add(lhs, rhs, op, index_expr, span)
        if (
            op == "+"
            and isinstance(rhs.type, PointerType)
            and not isinstance(lhs.type, PointerType)
        ):
            return self._pointer_add(rhs, lhs, op, index_expr, span)
        if isinstance(lhs.type, PointerType) and isinstance(rhs.type, PointerType):
            if op in _CMP_OPS:
                reg = self.reg()
                self.emit(
                    BinOp(op=op, dst=reg, a=lhs.reg, b=rhs.reg, signed=False)
                )
                return EValue(reg, BOOL)
            assert op == "-"
            diff = self.reg()
            self.emit(BinOp(op="-", dst=diff, a=lhs.reg, b=rhs.reg, signed=True))
            size_reg = self.reg()
            element_size = max(1, lhs.type.pointee.size())
            self.emit(Const(dst=size_reg, value=element_size))
            reg = self.reg()
            self.emit(BinOp(op="/", dst=reg, a=diff, b=size_reg, signed=True))
            return EValue(reg, INT)
        # Arithmetic / comparison with numeric promotion.
        common = common_arithmetic_type(
            self._decayed_scalar(lhs.type), self._decayed_scalar(rhs.type)
        )
        if common is None:
            common = INT
        lhs = self.coerce(lhs, common, span)
        rhs = self.coerce(rhs, common, span)
        is_float = common == FLOAT
        signed = not (common == UINT)
        reg = self.reg()
        self.emit(
            BinOp(op=op, dst=reg, a=lhs.reg, b=rhs.reg, float_op=is_float, signed=signed)
        )
        if op in _CMP_OPS:
            return EValue(reg, BOOL)
        return EValue(reg, result_type if result_type is not None else common)

    def _decayed_scalar(self, t: Type) -> Type:
        return t if isinstance(t, ScalarType) else INT

    def _pointer_offset(
        self,
        base_reg: int,
        base_kind: AddrKind,
        element: Type,
        index: EValue,
        index_expr: Optional[ast.Expr],
        span: Optional[SourceSpan],
    ) -> tuple[int, AddrKind]:
        """addr = base + index * sizeof(element); returns (reg, kind)."""
        element_size = max(1, element.size())
        kind: AddrKind = base_kind
        if self.word_target and not self.emulate_bytes:
            const_index = self._const_index_of(index_expr)
            delta = wordaddr.scaled_delta(
                element_size, const_index, self.word_size
            )
            if base_kind == DYNAMIC:
                kind = DYNAMIC
            else:
                kind = wordaddr.add_offset(
                    base_kind, delta, self.word_size, span, "pointer arithmetic"
                )
        elif self.emulate_bytes:
            kind = DYNAMIC
        size_reg = self.reg()
        self.emit(Const(dst=size_reg, value=element_size))
        scaled = self.reg()
        self.emit(
            BinOp(op="*", dst=scaled, a=index.reg, b=size_reg, signed=True)
        )
        addr = self.reg()
        self.emit(BinOp(op="+", dst=addr, a=base_reg, b=scaled, signed=False))
        return addr, kind

    def _const_index_of(self, expr: Optional[ast.Expr]) -> Optional[int]:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if (
            isinstance(expr, ast.UnaryExpr)
            and expr.op == "-"
            and isinstance(expr.operand, ast.IntLit)
        ):
            return -expr.operand.value
        return None

    def _pointer_add(
        self,
        pointer: EValue,
        index: EValue,
        op: str,
        index_expr: Optional[ast.Expr],
        span: Optional[SourceSpan],
    ) -> EValue:
        assert isinstance(pointer.type, PointerType)
        if op == "-":
            negated = self.reg()
            self.emit(UnOp(op="-", dst=negated, a=index.reg))
            index = EValue(negated, index.type)
            # A constant index is negated for the word-addressing check.
            if isinstance(index_expr, ast.IntLit):
                negative = ast.IntLit(-index_expr.value)
                negative.type = INT
                index_expr = negative
        addr, kind = self._pointer_offset(
            pointer.reg,
            pointer.addr_kind,
            pointer.type.pointee,
            index,
            index_expr,
            span,
        )
        return EValue(addr, pointer.type, pointer.space, kind)

    # Casts ------------------------------------------------------------------

    def lower_cast(self, expr: ast.CastExpr) -> EValue:
        target = expr.resolved_target  # type: ignore[attr-defined]
        operand = self.decay(self.lower_expr(expr.operand))
        if isinstance(target, PointerType):
            space = operand.space
            if target.space is MemSpace.HOST:
                space = MemSpace.HOST
            kind: AddrKind = operand.addr_kind
            if self.word_target:
                unit = wordaddr.declared_unit(target, True)
                if unit is not AddrUnit.BYTE:
                    # An explicit cast back to a word pointer is the
                    # programmer's assertion of alignment.
                    kind = WORD
            return EValue(operand.reg, target, space, kind)
        if isinstance(target, ScalarType):
            if target.is_float_type and operand.type != FLOAT:
                reg = self.reg()
                self.emit(UnOp(op="itof", dst=reg, a=operand.reg))
                return EValue(reg, target)
            if not target.is_float_type and operand.type == FLOAT:
                reg = self.reg()
                self.emit(UnOp(op="ftoi", dst=reg, a=operand.reg))
                return self._narrow(EValue(reg, INT), target)
            return self._narrow(
                EValue(operand.reg, operand.type), target
            )
        raise AssertionError(f"unhandled cast target {target}")

    def _narrow(self, value: EValue, target: ScalarType) -> EValue:
        if target.byte_size >= 4 or target.is_float_type:
            return EValue(value.reg, target)
        reg = self.reg()
        if target == BOOL:
            # bool conversion is truthiness, not bit truncation.
            zero = self.reg()
            self.emit(Const(dst=zero, value=0))
            self.emit(BinOp(op="!=", dst=reg, a=value.reg, b=zero))
            return EValue(reg, target)
        op = ("sext" if target.signed else "zext") + str(target.byte_size * 8)
        self.emit(UnOp(op=op, dst=reg, a=value.reg))
        return EValue(reg, target)

    def coerce(
        self, value: EValue, dest: Type, span: Optional[SourceSpan]
    ) -> EValue:
        """Implicit conversion of a lowered value to ``dest``."""
        value = self.decay(value)
        if isinstance(dest, ScalarType):
            if dest.is_float_type and value.type != FLOAT:
                reg = self.reg()
                self.emit(UnOp(op="itof", dst=reg, a=value.reg))
                return EValue(reg, dest)
            if not dest.is_float_type and value.type == FLOAT:
                self.fail(
                    "E-type-mismatch",
                    "float to integer conversion requires an explicit cast",
                    span,
                )
            if (
                not dest.is_float_type
                and dest.byte_size < 4
                and isinstance(value.type, ScalarType)
                and (
                    value.type.byte_size > dest.byte_size
                    or (dest == BOOL and value.type != BOOL)
                )
            ):
                return self._narrow(value, dest)
            return EValue(value.reg, dest, value.space, value.addr_kind)
        return EValue(value.reg, dest, value.space, value.addr_kind)

    # Calls -------------------------------------------------------------------

    def lower_call(self, expr: ast.CallExpr) -> EValue:
        target = expr.target
        if isinstance(target, str):
            if target == "accessor.put_back":
                return self.lower_put_back(expr)
            if target == "indirect":
                return self.lower_indirect_call(expr)
            return self.lower_intrinsic(expr, target)
        if isinstance(target, MethodInfo):
            return self.lower_method_call(expr, target)
        if isinstance(target, ast.FuncDecl):
            return self.lower_free_call(expr, target)
        raise AssertionError(f"unhandled call target {target!r}")

    def lower_intrinsic(self, expr: ast.CallExpr, name: str) -> EValue:
        args = [self.decay(self.lower_expr(a)) for a in expr.args]
        if name in ("dma_get", "dma_put"):
            return self.lower_dma_transfer(expr, name, args)
        if name == "dma_wait":
            if self.cross_space:
                self.emit(Intrinsic(dst=None, name="dma_wait", args=[args[0].reg]))
            return EValue(self._void_reg(), VoidType())
        dst = self.reg()
        self.emit(Intrinsic(dst=dst, name=name, args=[a.reg for a in args]))
        assert expr.type is not None
        return EValue(dst, expr.type)

    def _void_reg(self) -> int:
        reg = self.reg()
        self.emit(Const(dst=reg, value=0))
        return reg

    def lower_dma_transfer(
        self, expr: ast.CallExpr, name: str, args: list[EValue]
    ) -> EValue:
        local, outer, size, tag = args
        if self.cross_space:
            if local.space is not MemSpace.LOCAL:
                self.fail(
                    "E-dma-space",
                    f"{name}: the first operand must be a local-store "
                    f"address (got a {self._space_name(local.space)} pointer)",
                    expr.span,
                )
            if outer.space is MemSpace.LOCAL:
                self.fail(
                    "E-dma-space",
                    f"{name}: the second operand must be an outer (host "
                    f"memory) address",
                    expr.span,
                )
            self.emit(
                Intrinsic(
                    dst=None,
                    name=name,
                    args=[local.reg, outer.reg, size.reg, tag.reg],
                )
            )
        else:
            # Shared memory: DMA degrades to a plain copy (portability).
            dst, src = (
                (local, outer) if name == "dma_get" else (outer, local)
            )
            self.emit(
                Copy(
                    dst_addr=dst.reg,
                    src_addr=src.reg,
                    size=0,
                    dst_space=AccSpace.MAIN,
                    src_space=AccSpace.MAIN,
                    size_reg=size.reg,
                    comment=f"{name}(shared)",
                )
            )
        return EValue(self._void_reg(), VoidType())

    def _space_name(self, space: Optional[MemSpace]) -> str:
        return space.value if space is not None else "null"

    def lower_put_back(self, expr: ast.CallExpr) -> EValue:
        callee = expr.callee
        assert isinstance(callee, ast.MemberExpr)
        assert isinstance(callee.base, ast.NameExpr)
        symbol = callee.base.symbol
        assert symbol is not None
        slot = self.env[symbol]
        assert isinstance(slot, AccessorVar)
        if slot.mode == "staged":
            local = self.reg()
            self.emit(FrameAddr(dst=local, offset=slot.frame_offset))
            size_reg = self.reg()
            self.emit(
                Const(dst=size_reg, value=slot.element.size() * slot.count)
            )
            self.emit(
                Intrinsic(
                    dst=None,
                    name="acc_bulk_put",
                    args=[local, slot.base_reg, size_reg],
                )
            )
        return EValue(self._void_reg(), VoidType())

    def lower_indirect_call(self, expr: ast.CallExpr) -> EValue:
        """A call through a function-pointer variable: ICall on the
        host, domain dispatch on a cross-space accelerator."""
        from repro.lang.types import FuncPtrType

        callee = expr.callee
        assert isinstance(callee, ast.NameExpr)
        pointer = self.lower_expr(callee)
        func_type = expr.funcptr_type  # type: ignore[attr-defined]
        assert isinstance(func_type, FuncPtrType)
        args: list[EValue] = []
        for arg, param_type in zip(expr.args, func_type.param_types):
            value = self.decay(self.lower_expr(arg))
            args.append(self.coerce(value, param_type, arg.span))
        arg_regs = [a.reg for a in args]
        returns_value = not isinstance(expr.type, VoidType)
        dst = self.reg() if returns_value else None
        if self.cross_space:
            codes = [
                "L" if a.space is MemSpace.LOCAL else "O"
                for a in args
                if isinstance(a.type, PointerType)
            ]
            assert self.offload is not None
            self.emit(
                DomainCall(
                    dst=dst,
                    func_id=pointer.reg,
                    duplicate_id="".join(codes),
                    offload_id=self.offload.offload_id,
                    args=arg_regs,
                )
            )
        else:
            self.emit(ICall(dst=dst, func_id=pointer.reg, args=arg_regs))
        if dst is None:
            return EValue(self._void_reg(), VoidType())
        assert expr.type is not None
        space = MemSpace.HOST if isinstance(expr.type, PointerType) else None
        return EValue(dst, expr.type, space)

    def lower_free_call(self, expr: ast.CallExpr, decl: ast.FuncDecl) -> EValue:
        args: list[EValue] = []
        for arg, param in zip(expr.args, decl.params):
            assert param.symbol is not None
            value = self.decay(self.lower_expr(arg))
            value = self.coerce(value, param.symbol.type, arg.span)
            args.append(value)
        callee = self._static_callee(decl, None, args)
        return self._emit_call(callee, [a.reg for a in args], expr)

    def lower_method_call(self, expr: ast.CallExpr, method: MethodInfo) -> EValue:
        decl = method.decl
        assert isinstance(decl, ast.FuncDecl)
        # Evaluate the receiver.
        if getattr(expr, "implicit_this", False):
            receiver = self.lower_this(expr)
        else:
            callee = expr.callee
            assert isinstance(callee, ast.MemberExpr)
            if callee.arrow:
                receiver = self.decay(self.lower_expr(callee.base))
            else:
                base_lvalue = self.lower_lvalue(callee.base)
                assert base_lvalue.kind == "mem"
                receiver = EValue(
                    base_lvalue.reg,
                    PointerType(
                        base_lvalue.type, self.mem_space_of(base_lvalue.space)
                    ),
                    self.mem_space_of(base_lvalue.space),
                )
        args: list[EValue] = [receiver]
        for arg, param in zip(expr.args, decl.params):
            assert param.symbol is not None
            value = self.decay(self.lower_expr(arg))
            value = self.coerce(value, param.symbol.type, arg.span)
            args.append(value)
        arg_regs = [a.reg for a in args]
        if expr.is_virtual:
            return self._emit_virtual_call(expr, method, args)
        owner = self.compiler.info.classes[decl.owner]  # type: ignore[index]
        callee = self._static_callee(decl, owner, args)
        return self._emit_call(callee, arg_regs, expr)

    def _duplicate_sig(
        self, decl: ast.FuncDecl, args: list[EValue], has_this: bool
    ) -> str:
        """Signature letters for the pointer arguments of a call."""
        codes: list[str] = []
        index = 0
        if has_this:
            codes.append("L" if args[0].space is MemSpace.LOCAL else "O")
            index = 1
        for value in args[index:]:
            if isinstance(value.type, PointerType):
                codes.append("L" if value.space is MemSpace.LOCAL else "O")
        return "".join(codes)

    def _static_callee(
        self,
        decl: ast.FuncDecl,
        owner: Optional[ClassType],
        args: list[EValue],
    ) -> str:
        if not self.cross_space:
            return decl.qualified_name
        sig = self._duplicate_sig(decl, args, owner is not None)
        assert self.offload is not None
        return self.compiler.request_duplicate(decl, owner, sig, self.offload)

    def _emit_call(
        self, callee: str, arg_regs: list[int], expr: ast.CallExpr
    ) -> EValue:
        returns_value = not isinstance(expr.type, VoidType)
        dst = self.reg() if returns_value else None
        self.emit(Call(dst=dst, callee=callee, args=arg_regs))
        if dst is None:
            return EValue(self._void_reg(), VoidType())
        assert expr.type is not None
        space = MemSpace.HOST if isinstance(expr.type, PointerType) else None
        return EValue(dst, expr.type, space)

    def _emit_virtual_call(
        self,
        expr: ast.CallExpr,
        method: MethodInfo,
        args: list[EValue],
    ) -> EValue:
        assert method.vtable_index is not None
        receiver = args[0]
        arg_regs = [a.reg for a in args]
        # 1. Load the vptr from the object header.
        vptr = self.reg()
        receiver_space = self.pointee_acc_space(receiver.space)
        self.emit(
            Load(
                dst=vptr,
                addr=receiver.reg,
                size=4,
                space=receiver_space,
                signed=False,
                comment=f"vptr for {method.qualified_name}",
            )
        )
        # 2. Load the slot (vtables live in main memory).
        slot_addr = self.reg()
        slot_off = self.reg()
        self.emit(Const(dst=slot_off, value=4 * method.vtable_index))
        self.emit(
            BinOp(op="+", dst=slot_addr, a=vptr, b=slot_off, signed=False)
        )
        fid = self.reg()
        self.emit(
            Load(
                dst=fid,
                addr=slot_addr,
                size=4,
                space=self.data_acc_space,
                signed=False,
                comment="vtable slot",
            )
        )
        returns_value = not isinstance(expr.type, VoidType)
        dst = self.reg() if returns_value else None
        if self.cross_space:
            decl = method.decl
            assert isinstance(decl, ast.FuncDecl)
            sig = self._duplicate_sig(decl, args, has_this=True)
            assert self.offload is not None
            self.emit(
                DomainCall(
                    dst=dst,
                    func_id=fid,
                    duplicate_id=sig,
                    offload_id=self.offload.offload_id,
                    args=arg_regs,
                )
            )
        else:
            self.emit(ICall(dst=dst, func_id=fid, args=arg_regs))
        if dst is None:
            return EValue(self._void_reg(), VoidType())
        assert expr.type is not None
        space = MemSpace.HOST if isinstance(expr.type, PointerType) else None
        return EValue(dst, expr.type, space)

    # Offload launch -----------------------------------------------------------

    def lower_offload_launch(self, expr: ast.OffloadExpr) -> EValue:
        if self.space != "host":
            self.fail(
                "E-offload-nesting",
                "offload blocks cannot be launched from accelerator code",
                expr.span,
            )
        entry = self.compiler.request_offload_entry(expr)
        arg_regs: list[int] = []
        for symbol in expr.captures:
            slot = self.env.get(symbol)
            if not isinstance(slot, FrameVar):
                raise AssertionError(
                    f"captured variable {symbol.name!r} must live in the "
                    f"frame (got {slot!r})"
                )
            reg = self.reg()
            self.emit(
                FrameAddr(dst=reg, offset=slot.offset, comment=f"&{symbol.name}")
            )
            arg_regs.append(reg)
        handle = self.reg()
        self.emit(
            OffloadLaunch(
                dst=handle,
                entry=entry,
                offload_id=expr.offload_id,
                args=arg_regs,
            )
        )
        return EValue(handle, HandleType())


class OffloadEntryLowerer(FunctionLowerer):
    """Lowers an offload block body as an accelerator entry function.

    Parameters are the capture addresses (host pointers to the enclosing
    function's frame slots); block-local declarations land in the
    accelerator frame (= local store on cross-space targets).
    """

    def __init__(self, compiler: "Compiler", offload: ast.OffloadExpr, mangled: str):
        enclosing = offload.enclosing_function  # type: ignore[attr-defined]
        super().__init__(
            compiler,
            enclosing,
            None,
            "accel",
            "",
            offload,
            mangled,
        )
        self.offload_expr = offload

    def compile(self) -> IRFunction:
        captures = self.offload_expr.captures
        param_names = [s.name for s in captures]
        self._next_reg = len(captures)
        for index, symbol in enumerate(captures):
            self.env[symbol] = CaptureVar(index)
            if symbol.kind is SymbolKind.THIS:
                self.this_symbol = symbol
                self.ptr_space[symbol] = MemSpace.HOST
            elif isinstance(symbol.type, PointerType):
                self.ptr_space[symbol] = MemSpace.HOST
        self.lower_block(self.offload_expr.body)
        self.emit(Ret(src=None))
        return IRFunction(
            name=self.mangled,
            params=param_names,
            space="accel",
            source_name=f"__offload_{self.offload_expr.offload_id}",
            duplicate_id="",
            num_regs=self._next_reg,
            frame_size=self._frame_top,
            code=self.code,
            labels=self.labels,
        )
