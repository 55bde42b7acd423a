"""Thread merge (paper Section 3.5.2, Figure 7).

Thread merge aggregates N fine-grain work items into one thread so shared
data moves into *registers*: statements whose effect depends on the merged
direction's id are replicated N times (with the id substituted per copy and
affected variables renamed ``v_0 .. v_{N-1}``), while id-independent
statements — global loads like Figure 7's ``r0``, control flow, address
computation — are kept as a single copy.  That single-copy rule is exactly
where the reuse comes from.

Dependence on the merged id is computed by a taint fixpoint that includes
control dependence (a statement guarded by a tainted condition is tainted).
Untainted *global* loads inside replicated statements are hoisted into
fresh register temporaries first, reproducing Figure 7's

    float r0 = b[(i+k)][idx];
    sum_0 += shared0_0[k] * r0;  ... sum_31 += shared0_31[k] * r0;

Mappings: merging along **Y** uses the paper's blocked mapping
(``idy -> idy*N + j``); merging along **X** uses an interleaved (grid-stride)
mapping (``idx -> idx + j*stride``) so the replicated accesses stay
coalesced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.lang.astnodes import (
    ArrayRef,
    AssignStmt,
    Block,
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
    walk_exprs,
)
from repro.lang.types import ScalarType
from repro.lang.visitor import map_children, transform_stmt_exprs
from repro.passes.base import CompilationContext, Pass, PassError
from repro.passes.exprutil import add, intlit, mul


# ---------------------------------------------------------------------------
# Taint analysis
# ---------------------------------------------------------------------------

def _expr_tainted(expr: Expr, tainted: Set[str], seed: str) -> bool:
    for node in walk_exprs(expr):
        if isinstance(node, Ident) and (node.name == seed
                                        or node.name in tainted):
            return True
    return False


def compute_taint(body: Sequence[Stmt], seed: str,
                  exclude: frozenset = frozenset()) -> Set[str]:
    """Names whose values (transitively) depend on the id ``seed``.

    Fixpoint over assignments and declarations, including control
    dependence: anything assigned under a tainted condition is tainted.
    ``exclude`` lists names that must never be renamed (global arrays live
    in device memory — replication flows through their *indices*).
    """
    tainted: Set[str] = set()

    def taint(name: str) -> None:
        if name not in exclude:
            tainted.add(name)

    def scan(stmts: Sequence[Stmt], control_tainted: bool) -> None:
        for s in stmts:
            if isinstance(s, DeclStmt):
                if control_tainted or (
                        s.init is not None
                        and _expr_tainted(s.init, tainted, seed)):
                    taint(s.name)
            elif isinstance(s, AssignStmt):
                tgt = s.target
                while isinstance(tgt, Member):
                    tgt = tgt.base
                rhs_tainted = _expr_tainted(s.value, tainted, seed)
                if isinstance(tgt, Ident):
                    if control_tainted or rhs_tainted or (
                            s.op != "=" and tgt.name in tainted):
                        taint(tgt.name)
                elif isinstance(tgt, ArrayRef):
                    idx_tainted = any(_expr_tainted(i, tainted, seed)
                                      for i in tgt.indices)
                    if control_tainted or rhs_tainted or idx_tainted:
                        taint(tgt.base.name)
            elif isinstance(s, IfStmt):
                cond_t = _expr_tainted(s.cond, tainted, seed)
                scan(s.then_body, control_tainted or cond_t)
                scan(s.else_body, control_tainted or cond_t)
            elif isinstance(s, ForStmt):
                header_t = False
                if s.init is not None:
                    scan([s.init], control_tainted)
                if s.cond is not None:
                    header_t = _expr_tainted(s.cond, tainted, seed)
                scan(s.body, control_tainted or header_t)
                if s.update is not None:
                    scan([s.update], control_tainted or header_t)
            elif isinstance(s, Block):
                scan(s.body, control_tainted)

    before = None
    while before != len(tainted):
        before = len(tainted)
        scan(body, False)
    return tainted


# ---------------------------------------------------------------------------
# Replication
# ---------------------------------------------------------------------------

@dataclass
class _MergeSpec:
    seed: str                      # 'idx' | 'idy'
    factor: int
    id_map: List[Expr]             # per-copy replacement for the seed id


class _Replicator:
    def __init__(self, spec: _MergeSpec, tainted: Set[str],
                 global_arrays: Dict[str, ScalarType], used: set):
        self._spec = spec
        self._tainted = tainted
        self._globals = global_arrays
        self._used = used
        self._temp_count = 0

    # -- substitution for copy j ------------------------------------------

    def _subst_map(self, j: int) -> Dict[str, Expr]:
        mapping: Dict[str, Expr] = {
            self._spec.seed: self._spec.id_map[j].clone()}
        for name in self._tainted:
            mapping[name] = Ident(f"{name}_{j}")
        return mapping

    def _substitute(self, stmt: Stmt, j: int) -> Stmt:
        from repro.lang.visitor import substitute_idents

        def fn(expr: Expr) -> Expr:
            return substitute_idents(expr, self._subst_map(j))

        out = transform_stmt_exprs(stmt, fn)
        self._rename_decls(out, j)
        return out

    def _rename_decls(self, stmt: Stmt, j: int) -> None:
        if isinstance(stmt, DeclStmt) and stmt.name in self._tainted:
            stmt.name = f"{stmt.name}_{j}"
        if isinstance(stmt, (ForStmt,)):
            if stmt.init is not None:
                self._rename_decls(stmt.init, j)
            for s in stmt.body:
                self._rename_decls(s, j)
            if stmt.update is not None:
                self._rename_decls(stmt.update, j)
        elif isinstance(stmt, IfStmt):
            for s in stmt.then_body + stmt.else_body:
                self._rename_decls(s, j)
        elif isinstance(stmt, Block):
            for s in stmt.body:
                self._rename_decls(s, j)

    # -- hoisting of untainted global loads --------------------------------

    def _hoist_loads(self, stmt: Stmt) -> Tuple[List[Stmt], Stmt]:
        """Extract untainted global ArrayRef loads into register temps."""
        if not isinstance(stmt, (AssignStmt, ExprStmt, DeclStmt)):
            return [], stmt
        hoisted: List[Stmt] = []
        cache: Dict[str, Ident] = {}

        def rewrite(expr: Expr) -> Expr:
            if isinstance(expr, ArrayRef):
                name = expr.base.name
                if name in self._globals and not _expr_tainted(
                        expr, self._tainted, self._spec.seed):
                    from repro.lang.printer import print_expr
                    key = print_expr(expr)
                    if key not in cache:
                        temp = f"r{self._temp_count}"
                        while temp in self._used:
                            self._temp_count += 1
                            temp = f"r{self._temp_count}"
                        self._used.add(temp)
                        self._temp_count += 1
                        hoisted.append(DeclStmt(
                            self._globals[name], temp, init=expr.clone()))
                        cache[key] = Ident(temp)
                    return cache[key].clone()
            return map_children(expr, rewrite)

        if isinstance(stmt, AssignStmt):
            new = AssignStmt(stmt.target, stmt.op, rewrite(stmt.value))
        elif isinstance(stmt, ExprStmt):
            new = ExprStmt(rewrite(stmt.expr))
        else:  # DeclStmt
            init = rewrite(stmt.init) if stmt.init is not None else None
            new = DeclStmt(stmt.type, stmt.name, list(stmt.dims), init,
                           stmt.shared)
        return hoisted, new

    # -- statement processing -----------------------------------------------

    def _stmt_tainted(self, stmt: Stmt) -> bool:
        from repro.lang.astnodes import walk_exprs_of_stmt, walk_stmts
        for s in walk_stmts([stmt]):
            if isinstance(s, DeclStmt) and s.name in self._tainted:
                return True
            for top in walk_exprs_of_stmt(s):
                if _expr_tainted(top, self._tainted, self._spec.seed):
                    return True
        return False

    def process(self, body: Sequence[Stmt]) -> List[Stmt]:
        out: List[Stmt] = []
        for stmt in body:
            out.extend(self._process_stmt(stmt))
        return out

    def _process_stmt(self, stmt: Stmt) -> List[Stmt]:
        n = self._spec.factor
        if isinstance(stmt, SyncStmt):
            return [stmt]
        if isinstance(stmt, ReturnStmt):
            return [stmt]
        if not self._stmt_tainted(stmt):
            # Single copy; still recurse into bodies for nested taint.
            if isinstance(stmt, ForStmt):
                stmt.body = self.process(stmt.body)
                return [stmt]
            if isinstance(stmt, IfStmt):
                stmt.then_body = self.process(stmt.then_body)
                stmt.else_body = self.process(stmt.else_body)
                return [stmt]
            if isinstance(stmt, Block):
                stmt.body = self.process(stmt.body)
                return [stmt]
            return [stmt]
        # Tainted statement: hoist shared loads, then replicate N times.
        if isinstance(stmt, (AssignStmt, ExprStmt, DeclStmt)):
            hoisted, core = self._hoist_loads(stmt)
            return hoisted + [self._substitute(core, j) for j in range(n)]
        if isinstance(stmt, IfStmt):
            cond_tainted = _expr_tainted(stmt.cond, self._tainted,
                                         self._spec.seed)
            if not cond_tainted:
                stmt.then_body = self.process(stmt.then_body)
                stmt.else_body = self.process(stmt.else_body)
                return [stmt]
            return [self._substitute(stmt, j) for j in range(n)]
        if isinstance(stmt, ForStmt):
            header_tainted = (
                (stmt.cond is not None and _expr_tainted(
                    stmt.cond, self._tainted, self._spec.seed))
                or (stmt.init is not None and isinstance(stmt.init, DeclStmt)
                    and stmt.init.name in self._tainted))
            if not header_tainted:
                stmt.body = self.process(stmt.body)
                return [stmt]
            return [self._substitute(stmt, j) for j in range(n)]
        if isinstance(stmt, Block):
            stmt.body = self.process(stmt.body)
            return [stmt]
        raise PassError(f"thread merge cannot replicate "
                        f"{type(stmt).__name__}")


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

class ThreadMergePass(Pass):
    """Merge N work items along a direction into one thread."""

    name = "thread-merge"
    site = "merge"

    def __init__(self, direction: str, factor: int):
        if direction not in ("x", "y"):
            raise PassError(f"bad merge direction {direction!r}")
        if factor < 2:
            raise PassError("thread merge factor must be >= 2")
        self.direction = direction
        self.factor = factor

    def run(self, ctx: CompilationContext) -> None:
        kernel = ctx.kernel
        n = self.factor
        if self.direction == "y":
            if any(s.case in ("S", "T") and s.idy_dependent
                   for s in ctx.staged_loads):
                raise PassError(
                    "thread merge along Y conflicts with tidy-relative "
                    "staging (use thread-block merge along Y instead)")
            seed = "idy"
            if ctx.domain[1] % (ctx.block[1] * n):
                raise PassError(
                    f"domain Y {ctx.domain[1]} not divisible by merge "
                    f"factor {n}")
            # Blocked mapping: idy -> idy*N + j (paper Figure 7).
            id_map: List[Expr] = [
                add(mul(Ident("idy"), intlit(n)), intlit(j))
                for j in range(n)]
            ctx.thread_merge = (ctx.thread_merge[0], ctx.thread_merge[1] * n)
        else:
            seed = "idx"
            total_x = ctx.domain[0] * ctx.thread_merge[0]  # threads now
            if ctx.domain[0] % n:
                raise PassError(
                    f"domain X {ctx.domain[0]} not divisible by merge "
                    f"factor {n}")
            stride = ctx.domain[0] // n
            # Interleaved mapping: idx -> idx + j*stride keeps every
            # replicated access coalesced.
            id_map = [add(Ident("idx"), intlit(j * stride))
                      for j in range(n)]
            ctx.thread_merge = (ctx.thread_merge[0] * n, ctx.thread_merge[1])

        global_arrays = {p.name: p.type for p in kernel.array_params()}
        exclude = frozenset(global_arrays) | frozenset(
            p.name for p in kernel.scalar_params())
        tainted = compute_taint(kernel.body, seed, exclude)
        from repro.passes.coalesce_transform import _used_names
        used = _used_names(kernel)
        # Each replicated scalar becomes N live registers (Figure 7's
        # sum_0..sum_31); arrays replicate in shared memory, not registers.
        from repro.lang.astnodes import DeclStmt, walk_stmts
        scalar_replicated = sum(
            1 for s in walk_stmts(kernel.body)
            if isinstance(s, DeclStmt) and not s.is_array
            and not s.shared and s.name in tainted)
        spec = _MergeSpec(seed=seed, factor=n, id_map=id_map)
        replicator = _Replicator(spec, tainted, global_arrays, used)
        kernel.body = replicator.process(kernel.body)
        ctx.est_registers += (n - 1) * max(1, scalar_replicated)
        ctx.note(f"thread merge: merged {n} work items along "
                 f"{self.direction.upper()} into one thread "
                 f"(replicated: {sorted(tainted) or 'none'})",
                 rule="merge.apply", factor=n,
                 direction=self.direction,
                 replicated=sorted(tainted))
