"""Final algebraic cleanup of generated index expressions, plus the
proof-carrying structural cleanup built on the dataflow framework.

The merge and partition-camping substitutions leave residue like
``(bidx_d * 16 + tidx) - tidx + tidy``; folding it to
``bidx_d * 16 + tidy`` keeps the output code understandable (one of the
paper's headline properties) and keeps the instruction-count model honest
(nvcc would fold it too).

The fold is purely syntactic: an expression is re-rendered from its
affine form over *opaque* identifier terms, so no semantic knowledge is
needed and anything non-affine is left untouched.

:class:`ProofCleanupPass` is different in kind: it consumes *semantic*
facts — guard verdicts from :func:`repro.analysis.dataflow.analyze_kernel`
and barrier-redundancy proofs from
:func:`repro.analysis.dataflow.removable_barriers` — and deletes code.
Every deletion carries a :class:`repro.analysis.dataflow.Proof` into the
compilation trace, and the per-pass differential harness plus the fuzz
soundness oracle police the claims dynamically.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from repro.ir.affine import NotAffine, affine_of
from repro.lang.astnodes import (
    ArrayRef,
    Call,
    DeclStmt,
    Expr,
    Ident,
    Member,
    walk_exprs,
)
from repro.lang.types import INT
from repro.lang.visitor import map_children, transform_body
from repro.passes.base import CompilationContext, Pass
from repro.passes.exprutil import affine_to_expr

# Terms print in this order when present, matching the paper's style
# (base ids first, loop iterators last).
_PRINT_ORDER = ("idx", "idy", "bidx", "bidy", "tidx", "tidy")


def fold_int_expr(expr: Expr) -> Expr:
    """Fold ``expr`` via its affine form over opaque identifiers.

    Returns the original expression when it is not affine (calls, float
    literals, ``%``/``/`` by non-constants, ...).
    """
    names = {e.name for e in walk_exprs(expr) if isinstance(e, Ident)}
    env = {}
    from repro.ir.affine import AffineExpr
    for n in names:
        env[n] = AffineExpr.term(n)
    try:
        form = affine_of(expr, env)
    except NotAffine:
        return expr
    return affine_to_expr(form, order=_PRINT_ORDER)


class SimplifyPass(Pass):
    """Fold every array index and integer initializer."""

    name = "simplify"
    site = "simplify"

    def run(self, ctx: CompilationContext) -> None:
        def rewrite(expr: Expr) -> Expr:
            out = map_children(expr, rewrite)
            if isinstance(out, ArrayRef):
                out.indices = [fold_int_expr(i) for i in out.indices]
            return out

        body = transform_body(ctx.kernel.body, rewrite)

        def fold_decls(stmts) -> None:
            from repro.lang.astnodes import (Block, ForStmt, IfStmt,
                                             WhileStmt)
            for s in stmts:
                if isinstance(s, DeclStmt) and s.type == INT \
                        and s.init is not None:
                    s.init = fold_int_expr(s.init)
                elif isinstance(s, ForStmt):
                    if s.init is not None:
                        fold_decls([s.init])
                    fold_decls(s.body)
                elif isinstance(s, (Block, WhileStmt)):
                    fold_decls(s.body)
                elif isinstance(s, IfStmt):
                    fold_decls(s.then_body)
                    fold_decls(s.else_body)

        fold_decls(body)
        ctx.kernel.body = body

# ---------------------------------------------------------------------------
# Proof-carrying structural cleanup
# ---------------------------------------------------------------------------

#: Cleanup re-analyzes after every change; a handful of rounds is plenty
#: (each round must delete something or the loop stops).
_CLEANUP_MAX_ROUNDS = 4


def _pure_scalar_cond(cond: Expr) -> bool:
    """True when evaluating ``cond`` touches no memory and calls nothing.

    Guard elimination is restricted to such conditions so memory-access
    counters are untouched by the rewrite — only the divergent-branch
    counters legitimately drop.
    """
    return not any(isinstance(e, (ArrayRef, Member, Call))
                   for e in walk_exprs(cond))


def _splice(body: list) -> list:
    """A branch body ready to stand in place of its ``if``.

    Bodies that declare locals are wrapped in a :class:`Block` so the
    declaration stays scoped exactly as it was under the branch.
    """
    from repro.lang.astnodes import Block
    if any(isinstance(s, DeclStmt) for s in body):
        return [Block(list(body))]
    return list(body)


def _written_names(stmts: list) -> set:
    """Scalar names that ``stmts`` declare or assign, at any depth."""
    from repro.lang.astnodes import AssignStmt, ForStmt, walk_stmts
    names = set()
    for s in walk_stmts(stmts):
        for part in ([s, s.init, s.update] if isinstance(s, ForStmt)
                     else [s]):
            if isinstance(part, DeclStmt):
                names.add(part.name)
            elif isinstance(part, AssignStmt) \
                    and isinstance(part.target, Ident):
                names.add(part.target.name)
    return names


def _forward_substitute(stmts: list, non_int: set) -> list:
    """Fold ``int x = e; S`` into ``S`` with ``e`` in place of ``x``.

    Deleting a guard can leave a local whose only purpose was the test
    (``int pos = ...; acc += a[pos];``), and the declaration is still
    charged on every trip.  The fold applies when ``S``, the next
    statement, holds the only remaining use of ``x``, nothing writes
    ``x``, ``S`` writes no name ``e`` reads, and ``e`` is an integer
    expression that touches no memory (``non_int`` names the kernel's
    non-integer variables and parameters).
    """
    from repro.lang.astnodes import FloatLit, all_exprs
    from repro.lang.visitor import substitute_in_body
    out = list(stmts)
    i = 0
    while i + 1 < len(out):
        decl, rest = out[i], out[i + 1:]
        if (isinstance(decl, DeclStmt) and decl.type == INT
                and not decl.is_array and not decl.shared
                and decl.init is not None and _pure_scalar_cond(decl.init)):
            terms = list(walk_exprs(decl.init))
            reads = {e.name for e in terms if isinstance(e, Ident)}
            uses = [e for e in all_exprs(rest)
                    if isinstance(e, Ident) and e.name == decl.name]
            if (len(uses) == 1
                    and any(e is uses[0] for e in all_exprs(rest[:1]))
                    and not any(isinstance(e, FloatLit) for e in terms)
                    and not reads & (non_int | {decl.name})
                    and decl.name not in _written_names(rest)
                    and not reads & _written_names(rest[:1])):
                out[i:i + 2] = substitute_in_body(rest[:1],
                                                  {decl.name: decl.init})
                continue
        i += 1
    return out


def cleanup_kernel(kernel, sizes: Mapping[str, int],
                   block: Tuple[int, int], grid: Tuple[int, int], *,
                   max_rounds: int = _CLEANUP_MAX_ROUNDS,
                   tracer=None) -> "CleanupResult":
    """Delete provably-redundant guards and barriers from ``kernel``.

    Mutates ``kernel.body`` in place.  Facts are recomputed from scratch
    after every mutating round, so later deletions never rely on stale
    node identities.  Returns the accumulated :class:`CleanupResult`;
    when ``tracer`` is given every deletion is emitted as a ``proof``
    trace event with the serialized proof attached.
    """
    from repro.analysis.dataflow import (
        RULE_BARRIER_PRIVATE,
        RULE_GUARD_FALSE,
        RULE_GUARD_TRUE,
        CleanupResult,
        Proof,
        analyze_kernel,
        removable_barriers,
    )
    from repro.lang.astnodes import (IfStmt, SyncStmt, child_stmt_lists,
                                     walk_stmts)
    from repro.obs.trace import snippet

    result = CleanupResult()
    non_int = {p.name for p in kernel.params if p.type != INT} | {
        s.name for s in walk_stmts(kernel.body)
        if isinstance(s, DeclStmt) and s.type != INT}

    def emit(proof: Proof, stmt) -> None:
        result.add(proof)
        if tracer is not None:
            tracer.proof(f"cleanup: removed {proof.subject} "
                         f"({proof.evidence})",
                         rule=proof.rule, stmt=stmt,
                         before=snippet(stmt),
                         details={"proof": proof.to_dict()})

    for _ in range(max_rounds):
        changed = False

        facts = analyze_kernel(kernel, sizes, block, grid)

        def strip_guards(stmts: List) -> List:
            nonlocal changed
            out: List = []
            deleted = False
            for stmt in stmts:
                if isinstance(stmt, IfStmt) and _pure_scalar_cond(stmt.cond):
                    verdict = facts.verdict_for(stmt)
                    if verdict is not None and verdict.verdict is not None:
                        rule = (RULE_GUARD_TRUE if verdict.verdict
                                else RULE_GUARD_FALSE)
                        kept = (stmt.then_body if verdict.verdict
                                else stmt.else_body)
                        emit(Proof(rule=rule,
                                   subject=f"guard '{verdict.cond_text}'",
                                   evidence=verdict.evidence,
                                   block=block, grid=grid), stmt)
                        changed = deleted = True
                        out.extend(strip_guards(_splice(kept)))
                        continue
                for child in child_stmt_lists(stmt):
                    child[:] = strip_guards(child)
                out.append(stmt)
            return _forward_substitute(out, non_int) if deleted else out

        kernel.body = strip_guards(kernel.body)

        if not changed:
            removable = removable_barriers(kernel, sizes, block, grid)
            doomed = {id(r.stmt): r for r in removable}
            if doomed:
                def strip_barriers(stmts: List) -> List:
                    nonlocal changed
                    out: List = []
                    for stmt in stmts:
                        if isinstance(stmt, SyncStmt) and id(stmt) in doomed:
                            r = doomed[id(stmt)]
                            emit(Proof(rule=RULE_BARRIER_PRIVATE,
                                       subject="barrier __syncthreads()",
                                       evidence=r.evidence,
                                       block=block, grid=grid,
                                       affected_arrays=r.affected_arrays),
                                 stmt)
                            changed = True
                            continue
                        for child in child_stmt_lists(stmt):
                            child[:] = strip_barriers(child)
                        out.append(stmt)
                    return out

                kernel.body = strip_barriers(kernel.body)

        if not changed:
            break

    return result


class ProofCleanupPass(Pass):
    """Proof-consuming deletion of redundant guards and barriers.

    Runs after :class:`SimplifyPass` (stage 7b): the expressions it
    analyzes are already in folded final form, and the launch geometry
    (``ctx.block`` / ``ctx.grid``) is fixed, so every proof is anchored
    to the exact configuration the kernel will run under.
    """

    name = "cleanup"
    site = "cleanup"

    def run(self, ctx: CompilationContext) -> None:
        sizes = dict(ctx.sizes)
        for name in ctx.halved_extents:
            sizes[name] = sizes[name] // 2
        result = cleanup_kernel(ctx.kernel, sizes, ctx.block, ctx.grid,
                                tracer=ctx.trace)
        if result.guards_removed:
            ctx.trace.count("guards_removed", result.guards_removed)
        if result.barriers_removed:
            ctx.trace.count("barriers_removed", result.barriers_removed)
        if result.changed:
            ctx.note(f"cleanup: removed {result.guards_removed} guard(s), "
                     f"{result.barriers_removed} barrier(s) with proofs")
