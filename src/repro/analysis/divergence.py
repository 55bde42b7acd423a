"""Barrier-divergence checking.

``__syncthreads()`` deadlocks (or worse, silently desynchronizes on real
hardware) when some threads of a block reach it and others do not.  That
happens when a barrier sits under a condition whose truth differs across
the block, or inside a loop whose trip count does — e.g. a barrier
accidentally moved *inside* the ``if (tidx < 16)`` merge guard or the
``if (i + tidx < n)`` tail guard that ``coalesce_transform`` emits.

The checker runs a flow-sensitive taint analysis: ``tidx``/``tidy`` (and
the derived ``idx``/``idy``) seed the taint, which propagates through
integer declarations and assignments.  A barrier is flagged when any
enclosing ``if`` condition, or the trip count of any enclosing loop, is
tainted.  Block-uniform ids (``bidx``, ``bdimx``, sizes, ...) never
taint, so the normal tiled main loops stay clean.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.lang.astnodes import (
    AssignStmt,
    Block,
    DeclStmt,
    Expr,
    ForStmt,
    Ident,
    IfStmt,
    Kernel,
    Stmt,
    SyncStmt,
    WhileStmt,
    walk_exprs,
)

#: Identifiers that differ between threads of one block.
THREAD_IDS = frozenset({"tidx", "tidy", "idx", "idy"})


def _expr_tainted(expr: Expr, tainted: Set[str]) -> bool:
    return any(isinstance(node, Ident) and node.name in tainted
               for node in walk_exprs(expr))


class _Checker:
    def __init__(self, kernel_name: str, stage: str) -> None:
        self.kernel_name = kernel_name
        self.stage = stage
        self.diags: List[Diagnostic] = []
        self.tainted: Set[str] = set(THREAD_IDS)
        # (condition/loop stmt, why) for each enclosing divergent region
        self._divergent: List[Tuple[Stmt, str]] = []

    def run(self, kernel: Kernel) -> List[Diagnostic]:
        self._walk(kernel.body)
        return self.diags

    def _walk(self, body) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, DeclStmt):
            if not stmt.is_array and stmt.init is not None \
                    and _expr_tainted(stmt.init, self.tainted):
                self.tainted.add(stmt.name)
        elif isinstance(stmt, AssignStmt):
            if isinstance(stmt.target, Ident):
                name = stmt.target.name
                if _expr_tainted(stmt.value, self.tainted):
                    self.tainted.add(name)
                elif stmt.op == "=" and name in self.tainted \
                        and name not in THREAD_IDS:
                    self.tainted.discard(name)
                # compound ops keep any existing taint of the target
        elif isinstance(stmt, SyncStmt):
            if self._divergent:
                site, why = self._divergent[-1]
                self.diags.append(Diagnostic(
                    analysis="divergence", severity=Severity.ERROR,
                    message=(f"barrier under thread-dependent control "
                             f"flow: {why}"),
                    kernel=self.kernel_name, stage=self.stage, stmt=stmt,
                    details={"site": type(site).__name__, "cause": why}))
        elif isinstance(stmt, IfStmt):
            div = _expr_tainted(stmt.cond, self.tainted)
            if div:
                self._divergent.append(
                    (stmt, "enclosing if-condition depends on the "
                           "thread id"))
            self._walk(stmt.then_body)
            self._walk(stmt.else_body)
            if div:
                self._divergent.pop()
        elif isinstance(stmt, ForStmt):
            self._for(stmt)
        elif isinstance(stmt, WhileStmt):
            div = _expr_tainted(stmt.cond, self.tainted)
            if div:
                self._divergent.append(
                    (stmt, "while-loop condition depends on the thread id"))
            self._walk(stmt.body)
            if div:
                self._divergent.pop()
        elif isinstance(stmt, Block):
            self._walk(stmt.body)

    def _for(self, stmt: ForStmt) -> None:
        name = stmt.iter_name()
        # The iterator is tainted iff its initializer is.
        init_expr = stmt.start()
        iter_tainted = init_expr is not None \
            and _expr_tainted(init_expr, self.tainted)
        if name is not None:
            if iter_tainted:
                self.tainted.add(name)
            else:
                self.tainted.discard(name)
        trip_tainted = (
            iter_tainted
            or (stmt.cond is not None
                and _expr_tainted(stmt.cond, self.tainted))
            or (isinstance(stmt.update, AssignStmt)
                and _expr_tainted(stmt.update.value, self.tainted)))
        if trip_tainted:
            self._divergent.append(
                (stmt, "loop trip count depends on the thread id"))
        self._walk(stmt.body)
        if trip_tainted:
            self._divergent.pop()
        if name is not None and not iter_tainted:
            # past the loop the iterator holds its (uniform) final value
            self.tainted.discard(name)


def check_divergence(kernel: Kernel, *, kernel_name: str = "",
                     stage: str = "") -> List[Diagnostic]:
    """Flag every barrier reachable under thread-dependent control flow."""
    return _Checker(kernel_name, stage).run(kernel)
