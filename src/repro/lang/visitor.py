"""Generic traversal/rewriting infrastructure used by every pass.

Two tools:

* :class:`ExprTransformer` — rebuilds expressions bottom-up; subclasses
  override ``visit_*`` hooks and return replacement nodes.
* module-level helpers — common rewrites (identifier substitution,
  expression substitution, renaming) shared by the merge/partition passes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

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
    Member,
    ReturnStmt,
    Stmt,
    SyncStmt,
    Ternary,
    Unary,
    WhileStmt,
)


class ExprTransformer:
    """Bottom-up expression rewriter.

    ``transform`` dispatches to ``visit_<NodeType>`` if defined; the hook
    receives a node whose children are already transformed and returns the
    replacement (possibly the same node).
    """

    def transform(self, expr: Expr) -> Expr:
        rebuilt = self._rebuild(expr)
        hook = getattr(self, f"visit_{type(rebuilt).__name__}", None)
        return hook(rebuilt) if hook else rebuilt

    def _rebuild(self, expr: Expr) -> Expr:
        return map_children(expr, self.transform)


def map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """``expr`` rebuilt one level down with ``fn`` applied to each child
    expression; literals and identifiers are leaves, returned as is.

    The building block of every bottom-up rewrite: a recursive ``fn``
    that intercepts the nodes it cares about and otherwise calls
    ``map_children(expr, fn)`` rewrites the whole tree.
    """
    if isinstance(expr, ArrayRef):
        base = fn(expr.base)
        if not isinstance(base, Ident):
            raise TypeError("array base must remain an identifier")
        return ArrayRef(base, [fn(i) for i in expr.indices])
    if isinstance(expr, Member):
        return Member(fn(expr.base), expr.member)
    if isinstance(expr, Unary):
        return Unary(expr.op, fn(expr.operand))
    if isinstance(expr, Binary):
        return Binary(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, Ternary):
        return Ternary(fn(expr.cond), fn(expr.then), fn(expr.otherwise))
    if isinstance(expr, Call):
        return Call(expr.name, [fn(a) for a in expr.args])
    return expr


def transform_stmt_exprs(stmt: Stmt, fn: Callable[[Expr], Expr]) -> Stmt:
    """Return ``stmt`` with every attached expression rewritten by ``fn``.

    Nested statement lists are rewritten recursively.  The statement objects
    are rebuilt, so the input tree is not mutated.
    """
    if isinstance(stmt, DeclStmt):
        init = fn(stmt.init) if stmt.init is not None else None
        return DeclStmt(stmt.type, stmt.name, list(stmt.dims), init, stmt.shared)
    if isinstance(stmt, AssignStmt):
        return AssignStmt(fn(stmt.target), stmt.op, fn(stmt.value))
    if isinstance(stmt, ExprStmt):
        return ExprStmt(fn(stmt.expr))
    if isinstance(stmt, SyncStmt):
        return SyncStmt(stmt.scope)
    if isinstance(stmt, ReturnStmt):
        return ReturnStmt(stmt.line)
    if isinstance(stmt, Block):
        return Block([transform_stmt_exprs(s, fn) for s in stmt.body])
    if isinstance(stmt, IfStmt):
        return IfStmt(fn(stmt.cond),
                      [transform_stmt_exprs(s, fn) for s in stmt.then_body],
                      [transform_stmt_exprs(s, fn) for s in stmt.else_body])
    if isinstance(stmt, ForStmt):
        init = transform_stmt_exprs(stmt.init, fn) if stmt.init else None
        cond = fn(stmt.cond) if stmt.cond is not None else None
        update = transform_stmt_exprs(stmt.update, fn) if stmt.update else None
        return ForStmt(init, cond, update,
                       [transform_stmt_exprs(s, fn) for s in stmt.body])
    if isinstance(stmt, WhileStmt):
        return WhileStmt(fn(stmt.cond),
                         [transform_stmt_exprs(s, fn) for s in stmt.body])
    raise TypeError(f"unknown statement {stmt!r}")


def transform_body(body: Sequence[Stmt], fn: Callable[[Expr], Expr]) -> List[Stmt]:
    """Apply :func:`transform_stmt_exprs` to a whole statement list."""
    return [transform_stmt_exprs(s, fn) for s in body]


class _IdentSubst(ExprTransformer):
    def __init__(self, mapping: Dict[str, Expr]):
        self._mapping = mapping

    def visit_Ident(self, node: Ident) -> Expr:
        repl = self._mapping.get(node.name)
        return repl.clone() if repl is not None else node

    def visit_ArrayRef(self, node: ArrayRef) -> Expr:
        # Array base names substitute only to other identifiers.
        repl = self._mapping.get(node.base.name)
        if isinstance(repl, Ident):
            return ArrayRef(Ident(repl.name), node.indices)
        return node


def substitute_idents(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Replace every free identifier named in ``mapping`` inside ``expr``."""
    return _IdentSubst(mapping).transform(expr)


def substitute_in_body(body: Sequence[Stmt],
                       mapping: Dict[str, Expr]) -> List[Stmt]:
    """Identifier substitution over a statement list (rebuilds the list)."""
    subst = _IdentSubst(mapping)
    return transform_body(body, subst.transform)


def rename_decls(body: Sequence[Stmt], mapping: Dict[str, str]) -> List[Stmt]:
    """Rename declared variables *and* their uses throughout ``body``."""
    ident_map = {old: Ident(new) for old, new in mapping.items()}
    renamed = substitute_in_body(body, ident_map)

    def fix_decl(stmt: Stmt) -> Stmt:
        if isinstance(stmt, DeclStmt) and stmt.name in mapping:
            stmt.name = mapping[stmt.name]
        for lst in _nested_lists(stmt):
            for s in lst:
                fix_decl(s)
        if isinstance(stmt, ForStmt) and stmt.init is not None:
            fix_decl(stmt.init)
        return stmt

    return [fix_decl(s) for s in renamed]


def _nested_lists(stmt: Stmt):
    if isinstance(stmt, (ForStmt, WhileStmt, Block)):
        yield stmt.body
    elif isinstance(stmt, IfStmt):
        yield stmt.then_body
        yield stmt.else_body
