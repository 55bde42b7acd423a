"""Semantic checks for naive kernels.

A naive kernel (the compiler's input contract, paper Section 3) must:

* reference only declared names, kernel parameters, predefined ids, and
  builtin functions;
* subscript arrays with exactly their declared rank;
* take vector members only from ``float2``/``float4`` values;
* bind symbolic array extents to ``int`` parameters;
* not use ``__shared__`` or ``__syncthreads`` (those are *introduced* by
  the compiler — a naive kernel has no block structure yet).  The checker
  can also run in ``optimized`` mode, where they are allowed.
"""

from __future__ import annotations

from typing import List

from repro.lang import builtins as bi
from repro.lang.astnodes import (
    ArrayRef,
    AssignStmt,
    Binary,
    Block,
    Call,
    DeclStmt,
    Expr,
    ExprStmt,
    ForStmt,
    Ident,
    IfStmt,
    Kernel,
    Member,
    ReturnStmt,
    Stmt,
    SyncStmt,
    Ternary,
    Unary,
    WhileStmt,
    early_returns,
)
from repro.lang.symbols import Symbol, SymbolTable
from repro.lang.types import INT, ArrayType, ScalarType


class SemanticError(Exception):
    """Raised when a kernel violates the language contract."""


#: Barrier spellings; as statements the parser lowers them to SyncStmt.
_SYNC_NAMES = frozenset(
    {"__syncthreads", "syncthreads", "__global_sync", "__gpu_sync"})


class SemanticChecker:
    """Validates one kernel; collects all errors before raising."""

    def __init__(self, kernel: Kernel, mode: str = "naive"):
        if mode not in ("naive", "optimized"):
            raise ValueError(f"unknown mode {mode!r}")
        self._kernel = kernel
        self._mode = mode
        self._errors: List[str] = []
        self._symbols = SymbolTable()

    def check(self) -> None:
        """Run all checks; raises :class:`SemanticError` on any violation."""
        self._declare_params()
        self._check_body(self._kernel.body)
        for stmt in early_returns(self._kernel):
            where = f"line {stmt.line}: " if stmt.line else ""
            self._errors.append(
                f"{where}'return' is only supported as the final statement "
                f"of the kernel body (no backend models a thread leaving "
                f"early)")
        if self._errors:
            raise SemanticError("; ".join(self._errors))

    # -- setup -------------------------------------------------------------

    def _declare_params(self) -> None:
        kernel = self._kernel
        int_params = {p.name for p in kernel.params
                      if not p.is_array and p.type == INT}
        seen = set()
        for p in kernel.params:
            if p.name in seen:
                self._errors.append(f"duplicate parameter {p.name!r}")
                continue
            seen.add(p.name)
            if bi.is_predefined(p.name):
                self._errors.append(
                    f"parameter {p.name!r} shadows a predefined id")
            if p.is_array:
                for d in p.dims:
                    if isinstance(d, str) and d not in int_params:
                        self._errors.append(
                            f"array {p.name!r} extent {d!r} is not an int parameter")
                self._symbols.declare(Symbol(p.name, p.array_type(), "param"))
            else:
                self._symbols.declare(Symbol(p.name, p.type, "param"))

    # -- statements --------------------------------------------------------

    def _check_body(self, body: List[Stmt]) -> None:
        self._symbols.push()
        for stmt in body:
            self._check_stmt(stmt)
        self._symbols.pop()

    def _check_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, DeclStmt):
            self._check_decl(stmt)
        elif isinstance(stmt, AssignStmt):
            self._check_lvalue(stmt.target)
            self._check_expr(stmt.value)
        elif isinstance(stmt, ExprStmt):
            self._check_expr(stmt.expr)
        elif isinstance(stmt, IfStmt):
            self._check_expr(stmt.cond)
            self._check_body(stmt.then_body)
            self._check_body(stmt.else_body)
        elif isinstance(stmt, ForStmt):
            self._symbols.push()
            if stmt.init is not None:
                self._check_stmt(stmt.init)
            if stmt.cond is not None:
                self._check_expr(stmt.cond)
            if stmt.update is not None:
                self._check_stmt(stmt.update)
            for s in stmt.body:
                self._check_stmt(s)
            self._symbols.pop()
        elif isinstance(stmt, WhileStmt):
            self._check_expr(stmt.cond)
            self._check_body(stmt.body)
        elif isinstance(stmt, Block):
            self._check_body(stmt.body)
        elif isinstance(stmt, SyncStmt):
            if self._mode == "naive" and stmt.scope == "block":
                self._errors.append(
                    "naive kernels must not use __syncthreads (the compiler "
                    "introduces block structure)")
        elif isinstance(stmt, ReturnStmt):
            pass
        else:
            self._errors.append(f"unsupported statement {type(stmt).__name__}")

    def _check_decl(self, stmt: DeclStmt) -> None:
        if stmt.shared and self._mode == "naive":
            self._errors.append(
                f"naive kernels must not declare __shared__ ({stmt.name!r})")
        if stmt.shared and self._mode == "optimized":
            # Shared memory is allocated per block at launch: its extents
            # must be compile-time-constant positive ints (the passes
            # always emit literal tile shapes).
            for d in stmt.dims:
                if not isinstance(d, int):
                    self._errors.append(
                        f"__shared__ array {stmt.name!r} extent {d!r} is "
                        f"not a compile-time constant")
                elif d <= 0:
                    self._errors.append(
                        f"__shared__ array {stmt.name!r} extent {d} is "
                        f"not positive")
        if bi.is_predefined(stmt.name):
            self._errors.append(f"{stmt.name!r} shadows a predefined id")
        if stmt.init is not None:
            self._check_expr(stmt.init)
        try:
            ty = stmt.array_type() if stmt.is_array else stmt.type
            kind = "shared" if stmt.shared else "local"
            self._symbols.declare(Symbol(stmt.name, ty, kind))
        except KeyError:
            self._errors.append(f"redeclaration of {stmt.name!r}")
        except ValueError as exc:
            self._errors.append(str(exc))

    # -- expressions -------------------------------------------------------

    def _check_lvalue(self, expr: Expr) -> None:
        if isinstance(expr, (Ident, ArrayRef, Member)):
            self._check_expr(expr)
        else:
            self._errors.append(
                f"assignment target {type(expr).__name__} is not an lvalue")

    def _check_expr(self, expr: Expr) -> None:
        if isinstance(expr, Ident):
            if bi.is_predefined(expr.name):
                return
            sym = self._symbols.lookup(expr.name)
            if sym is None:
                self._errors.append(f"use of undeclared name {expr.name!r}")
            elif sym.is_array:
                self._errors.append(
                    f"array {expr.name!r} used without subscripts")
        elif isinstance(expr, ArrayRef):
            sym = self._symbols.lookup(expr.base.name)
            if sym is None:
                self._errors.append(
                    f"subscript of undeclared array {expr.base.name!r}")
            elif not sym.is_array:
                self._errors.append(f"{expr.base.name!r} is not an array")
            elif isinstance(sym.type, ArrayType) and \
                    len(expr.indices) != sym.type.rank:
                self._errors.append(
                    f"array {expr.base.name!r} has rank {sym.type.rank}, "
                    f"subscripted with {len(expr.indices)} indices")
            for idx in expr.indices:
                self._check_expr(idx)
        elif isinstance(expr, Member):
            self._check_expr(expr.base)
            base = expr.base
            if isinstance(base, Ident):
                sym = self._symbols.lookup(base.name)
                if sym is not None and isinstance(sym.type, ScalarType):
                    lanes = sym.type.lanes
                    allowed = "xyzw"[:lanes]
                    if lanes == 1:
                        self._errors.append(
                            f"member access on scalar {base.name!r}")
                    elif expr.member not in allowed:
                        self._errors.append(
                            f"member .{expr.member} invalid for {sym.type}")
        elif isinstance(expr, Unary):
            self._check_expr(expr.operand)
        elif isinstance(expr, Binary):
            self._check_expr(expr.left)
            self._check_expr(expr.right)
        elif isinstance(expr, Ternary):
            self._check_expr(expr.cond)
            self._check_expr(expr.then)
            self._check_expr(expr.otherwise)
        elif isinstance(expr, Call):
            if expr.name in _SYNC_NAMES:
                # The parser turns well-formed barrier statements into
                # SyncStmt; a Call node here is an AST-constructed barrier.
                if expr.args:
                    self._errors.append(
                        f"{expr.name} takes no arguments "
                        f"({len(expr.args)} given)")
            elif not bi.is_builtin_function(expr.name):
                self._errors.append(f"unknown function {expr.name!r}")
            for a in expr.args:
                self._check_expr(a)
        # literals need no checking


def check_kernel(kernel: Kernel, mode: str = "naive") -> None:
    """Validate ``kernel``; raises :class:`SemanticError` on violations."""
    SemanticChecker(kernel, mode).check()
