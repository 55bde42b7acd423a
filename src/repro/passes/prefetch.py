"""Data prefetching (paper Section 3.6, Figure 8).

For the strip-mined main loop, each single-statement G2S load
``shared[slot] = G(i)`` is double-buffered through a register temporary:

    float tmp = G(start);
    for (i = start; i < B; i += 16) {
        shared[slot] = tmp;
        __syncthreads();
        if (i + 16 < B) tmp = G(i + 16);
        ... compute ...
        __syncthreads();
    }

The driver only schedules this pass when the register budget allows it —
the paper skips prefetching when thread merge has already consumed the
register file (Section 6.2's explanation of Figure 12's small prefetch
effect).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.lang.astnodes import (
    ArrayRef,
    AssignStmt,
    Binary,
    DeclStmt,
    Expr,
    Ident,
    IfStmt,
    IntLit,
    Stmt,
    SyncStmt,
    walk_stmts,
)
from repro.lang.types import FLOAT
from repro.lang.visitor import substitute_idents
from repro.passes.base import CompilationContext, Pass
from repro.passes.coalesce_transform import HALF_WARP, _used_names


def _shared_array_names(ctx: CompilationContext) -> set:
    names = set()
    for stmt in walk_stmts(ctx.kernel.body):
        if isinstance(stmt, DeclStmt) and stmt.shared:
            names.add(stmt.name)
    return names


class PrefetchPass(Pass):
    """Double-buffer simple G2S loads through register temporaries."""

    name = "prefetch"
    site = "prefetch"

    def run(self, ctx: CompilationContext) -> None:
        loop = ctx.main_loop
        if loop is None or loop.cond is None:
            ctx.note("prefetch: no strip-mined main loop; skipped",
                     rule="prefetch.skip.no-loop")
            return
        iname = loop.iter_name()
        start = loop.start()
        if iname is None or start is None:
            ctx.note("prefetch: loop shape not recognized; skipped",
                     rule="prefetch.skip.shape")
            return
        bound = loop.cond.right if isinstance(loop.cond, Binary) \
            and loop.cond.op == "<" else None
        if bound is None:
            ctx.note("prefetch: loop bound not recognized; skipped",
                     rule="prefetch.skip.bound")
            return

        if not any(stmt is loop for stmt in ctx.kernel.body):
            # A nested main loop (e.g. strsm's triangular inner loop)
            # restarts every outer iteration; a hoisted initial fetch would
            # be both out of scope and stale.
            ctx.note("prefetch: main loop is nested inside another loop; "
                     "skipped", rule="prefetch.skip.nested")
            return

        shared = _shared_array_names(ctx)
        used = _used_names(ctx.kernel)

        # Find single-statement G2S loads (optionally under one if-guard).
        sites: List[Tuple[Optional[IfStmt], AssignStmt]] = []
        for stmt in loop.body:
            if self._is_g2s(stmt, shared):
                sites.append((None, stmt))
            elif isinstance(stmt, IfStmt) and not stmt.else_body:
                for inner in stmt.then_body:
                    if self._is_g2s(inner, shared):
                        sites.append((stmt, inner))
        if not sites:
            ctx.note("prefetch: no simple G2S loads to double-buffer",
                     rule="prefetch.skip.no-loads")
            return

        prelude: List[Stmt] = []
        next_fetches: List[Stmt] = []
        count = 0
        for guard, load in sites:
            source = load.value
            temp = f"pf{count}"
            while temp in used:
                count += 1
                temp = f"pf{count}"
            used.add(temp)
            count += 1
            # Initial fetch at i = start, hoisted before the loop.
            init_src = substitute_idents(source.clone(),
                                         {iname: start.clone()})
            init_decl = DeclStmt(FLOAT, temp, init=init_src)
            if guard is not None:
                # The guard may itself test the iterator (ragged G2S
                # loads): evaluate it at the fetched iteration, not
                # verbatim.
                init_guard = substitute_idents(guard.cond.clone(),
                                               {iname: start.clone()})
                prelude.append(DeclStmt(FLOAT, temp, init=None))
                prelude.append(IfStmt(init_guard,
                                      [AssignStmt(Ident(temp), "=",
                                                  init_src)]))
            else:
                prelude.append(init_decl)
            # Replace the in-loop global read with the register.
            load.value = Ident(temp)
            # Fetch for the next iteration, bounded (Figure 8's check).
            next_i = Binary("+", Ident(iname), IntLit(HALF_WARP))
            next_src = substitute_idents(source.clone(), {iname: next_i})
            check: Expr = Binary("<", next_i.clone(), bound.clone())
            if guard is not None:
                next_guard = substitute_idents(guard.cond.clone(),
                                               {iname: next_i.clone()})
                check = Binary("&&", next_guard, check)
            next_fetches.append(IfStmt(check, [
                AssignStmt(Ident(temp), "=", next_src)]))

        # Insert the next-iteration fetches right after the first barrier.
        new_body: List[Stmt] = []
        inserted = False
        for stmt in loop.body:
            new_body.append(stmt)
            if not inserted and isinstance(stmt, SyncStmt):
                new_body.extend(next_fetches)
                inserted = True
        if not inserted:
            ctx.note("prefetch: no barrier found in main loop; skipped",
                     rule="prefetch.skip.no-barrier")
            return
        loop.body = new_body

        # Splice the initial fetches in front of the main loop.
        body = ctx.kernel.body
        for pos, stmt in enumerate(body):
            if stmt is loop:
                ctx.kernel.body = body[:pos] + prelude + body[pos:]
                break
        else:
            ctx.note("prefetch: main loop is nested; initial fetch "
                     "inlined at kernel top",
                     rule="prefetch.nested-inline")
            ctx.kernel.body = prelude + body

        ctx.prefetch_applied = True
        ctx.est_registers += len(sites)
        ctx.note(f"prefetch: double-buffered {len(sites)} G2S load(s) "
                 f"through register temporaries",
                 rule="prefetch.applied", loads=len(sites))

    @staticmethod
    def _is_g2s(stmt: Stmt, shared: set) -> bool:
        return (isinstance(stmt, AssignStmt) and stmt.op == "="
                and isinstance(stmt.target, ArrayRef)
                and stmt.target.base.name in shared
                and isinstance(stmt.value, ArrayRef)
                and stmt.value.base.name not in shared)
