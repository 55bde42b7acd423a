"""Barrier-divergence checking.

``__syncthreads()`` deadlocks (or worse, silently desynchronizes on real
hardware) when some threads of a block reach it and others do not.  That
happens when a barrier sits under a condition whose truth differs across
the block, or inside a loop whose trip count does — e.g. a barrier
accidentally moved *inside* the ``if (tidx < 16)`` merge guard or the
``if (i + tidx < n)`` tail guard that ``coalesce_transform`` emits.

The checker runs a flow-sensitive taint analysis: ``tidx``/``tidy`` (and
the derived ``idx``/``idy``) seed the taint, which propagates through
integer declarations and assignments, and through control: a name
assigned or declared under a divergent condition or loop is tainted
afterwards, and a declaration or ``=`` of a uniform value clears it.  The
two arms of an ``if`` join by union, and loop bodies are walked until the
taint at the loop head is stable, so a value tainted late in one trip
taints the next.  A barrier is flagged when any enclosing ``if``
condition, or the trip count of any enclosing loop, is tainted.
Block-uniform ids (``bidx``, ``bdimx``, sizes, ...) never taint, so the
normal tiled main loops stay clean.
(:func:`repro.passes.merge.compute_taint` answers a different,
flow-insensitive question: which names thread merge must replicate.)
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

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
            # A fresh definition, like ``=``: a loop-local reset clears
            # the taint a previous trip left.
            if not stmt.is_array:
                if self._divergent or (
                        stmt.init is not None
                        and _expr_tainted(stmt.init, self.tainted)):
                    self.tainted.add(stmt.name)
                else:
                    self.tainted.discard(stmt.name)
        elif isinstance(stmt, AssignStmt):
            if isinstance(stmt.target, Ident):
                name = stmt.target.name
                # Under a divergent region only some threads assign, so
                # the target differs across the block afterwards.
                if self._divergent \
                        or _expr_tainted(stmt.value, self.tainted):
                    self.tainted.add(name)
                elif stmt.op == "=" and name not in THREAD_IDS:
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
            entry = set(self.tainted)
            self._walk(stmt.then_body)
            then_out, self.tainted = self.tainted, entry
            self._walk(stmt.else_body)
            self.tainted |= then_out
            if div:
                self._divergent.pop()
        elif isinstance(stmt, ForStmt):
            name = stmt.iter_name()
            enclosing, self._divergent = self._divergent, []
            if stmt.init is not None:
                # in the loop the iterator is tainted iff its initializer is
                self._stmt(stmt.init)
            self._divergent = enclosing
            if (self._loop(stmt, "loop trip count depends on the thread id",
                           name) or enclosing) and name is not None:
                # past a divergent loop, or one only some threads ran, the
                # iterator's final value differs
                self.tainted.add(name)
        elif isinstance(stmt, WhileStmt):
            self._loop(stmt, "while-loop condition depends on the thread id")
        elif isinstance(stmt, Block):
            self._walk(stmt.body)

    def _loop(self, stmt: Stmt, why: str,
              iterator: Optional[str] = None) -> bool:
        """Walk a loop body until the taint at the loop head is stable.

        A name tainted late in the body is tainted on the next trip, so
        each round starts from the union of the entry state and the state
        the previous round ended with; only the last round's findings
        stand.  The trip count diverges (``why``) when the condition or
        the iterator is tainted at the head; returns whether it does.
        """
        head = set(self.tainted)
        while True:
            mark = len(self.diags)
            self.tainted = set(head)
            divergent = iterator in self.tainted or (
                stmt.cond is not None
                and _expr_tainted(stmt.cond, self.tainted))
            if divergent:
                self._divergent.append((stmt, why))
            self._walk(stmt.body)
            update = getattr(stmt, "update", None)
            if isinstance(update, AssignStmt) \
                    and isinstance(update.target, Ident) \
                    and _expr_tainted(update.value, self.tainted):
                self.tainted.add(update.target.name)
            if divergent:
                self._divergent.pop()
            if self.tainted <= head:
                self.tainted = head
                return divergent
            head |= self.tainted
            del self.diags[mark:]


def check_divergence(kernel: Kernel, *, kernel_name: str = "",
                     stage: str = "") -> List[Diagnostic]:
    """Flag every barrier reachable under thread-dependent control flow."""
    return _Checker(kernel_name, stage).run(kernel)
