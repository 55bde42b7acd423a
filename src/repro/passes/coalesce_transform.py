"""Converting non-coalesced accesses into coalesced ones (Section 3.3).

The transform dispatches on the *shape* of each non-coalesced access (see
DESIGN.md, "staging strategies"):

* **R** (row-broadcast)  — ``A[f(idy)][i + c]`` / ``B[i + c]``: the fastest
  dimension walks a loop iterator and no thread id appears anywhere.  The
  loop is strip-mined by 16 and a 16-element shared array is loaded with
  ``A[f][i + tidx + c]`` (paper Figure 3a, access ``a[idy][i]``).
* **C** (column-walk) — ``A[g(idx)][i + c]``: a thread id in a slower
  dimension.  A 16x17 shared tile is loaded by an introduced 16-iteration
  loop ``A[g(idx - tidx + l)][i + tidx + c]`` (paper Figure 3b, access
  ``a[idx][i]``).
* **T** (transpose tile) — ``A[f(idx)][g(idy)]``: both thread ids, no loop.
  The block becomes 16x16 and a 16x17 tile is staged with the classic
  exchanged load (paper Section 3.3, the ``A[idx][idy]`` special case).
* **S** (stencil apron) — per-thread stride 1 but misaligned base
  (``A[idy + ki][idx + kj]``, ``B[idx + i]``): the whole apron footprint is
  staged into shared memory ahead of the loops in coalesced chunks.

**Thread-block merge** (Section 3.5.1) is realized by *regenerating* this
staging for a wider thread block: the pass takes the final block dimensions
``(bx, by)`` and emits the matching guards (``if (tidx < 16)`` for loads
that are identical across the merged sub-blocks, paper Figure 5) and
per-warp slices (for loads that follow each thread's own rows).

Each staging is recorded as a :class:`~repro.passes.base.StagedLoad` so the
merge planner can tell G2S sharing from G2R sharing, and data-reuse analysis
(Section 3.4) skips conversions whose staged data would go unused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.access import AccessInfo, LoopInfo, collect_accesses
from repro.ir.affine import AffineExpr
from repro.lang.astnodes import (
    ArrayRef,
    AssignStmt,
    Binary,
    DeclStmt,
    Expr,
    ForStmt,
    Ident,
    IfStmt,
    IntLit,
    Kernel,
    Stmt,
    SyncStmt,
    walk_stmts,
)
from repro.lang.types import FLOAT, INT
from repro.lang.visitor import map_children, substitute_in_body, transform_body
from repro.obs.trace import snippet
from repro.passes.base import CompilationContext, Pass, PassError, StagedLoad
from repro.passes.coalesce_check import check_access
from repro.passes.exprutil import add, affine_to_expr, intlit, mul

HALF_WARP = 16


# ---------------------------------------------------------------------------
# Case classification
# ---------------------------------------------------------------------------

@dataclass
class _Candidate:
    access: AccessInfo
    case: str                     # 'R' | 'C' | 'T' | 'S'
    loop: Optional[LoopInfo]      # the iterator loop for R/C
    reason: str


def _thread_terms(form: AffineExpr) -> Tuple[int, int]:
    """(x-coefficient, y-coefficient) of thread position in a form."""
    cx = form.coeff("idx") + form.coeff("tidx")
    cy = form.coeff("idy") + form.coeff("tidy")
    return cx, cy


def classify_case(access: AccessInfo) -> Optional[_Candidate]:
    """Which staging strategy applies to a non-coalesced access, if any."""
    if not access.resolved:
        return None
    forms = access.index_forms
    fastest = forms[-1]
    slower = forms[:-1]
    loop_names = {l.name for l in access.loops}

    fast_cx, fast_cy = _thread_terms(fastest)
    fast_loops = [n for n in fastest.term_names() if n in loop_names]

    # T: both thread ids, no loop iterator in the address.
    if not any(n in loop_names for n in access.address.term_names()):
        if len(forms) == 2:
            cx0, cy0 = _thread_terms(forms[0])
            if cx0 == 1 and cy0 == 0 and fast_cx == 0 and fast_cy == 1:
                return _Candidate(access, "T", None,
                                  "A[f(idx)][g(idy)] transpose shape")

    # S: per-thread stride 1 but misaligned (constants / small-stride loops).
    addr_cx = _thread_terms(access.address)[0]
    if addr_cx == 1 and fast_cx == 1 and fast_cy == 0:
        slower_ok = all(_thread_terms(f) in ((0, 0), (0, 1)) for f in slower)
        if slower_ok:
            return _Candidate(access, "S", None, "stencil/offset apron")

    # B: a small lookup table read uniformly by every thread (e.g. the
    # convolution filter) — stage the whole array into shared memory once.
    if _thread_terms(access.address) == (0, 0) and access.is_load:
        total_bytes = access.elem.size_bytes
        for d in access.dims:
            total_bytes *= d
        if total_bytes <= 4096:
            return _Candidate(access, "B", None,
                              "small broadcast table, full reuse")

    # R / C: fastest dimension walks a loop iterator with stride 1.
    if len(fast_loops) == 1 and fast_cx == 0 and fast_cy == 0:
        name = fast_loops[0]
        if fastest.coeff(name) != 1:
            return None  # m > 1: little reuse after unrolling (Section 3.3)
        loop = access.loop(name)
        if loop is None or loop.step != 1:
            return None
        slow_cx = sum(_thread_terms(f)[0] for f in slower)
        slow_cy_ok = all(_thread_terms(f)[1] in (0, 1) for f in slower)
        if not slow_cy_ok:
            return None
        # The staged iterator must drive only the fastest dimension —
        # a diagonal walk like a[i][i] cannot be tiled this way.
        if any(f.coeff(name) for f in slower):
            return None
        # Iterators of loops nested *inside* the staged loop vary during
        # one staging window; iterators of outer loops are constants.
        pos = [l.name for l in access.loops].index(name)
        inner_names = {l.name for l in access.loops[pos + 1:]}
        if any(n in inner_names for f in forms for n in f.term_names()):
            return None
        if slow_cx == 0:
            return _Candidate(access, "R", loop, "row-broadcast over a loop")
        if slow_cx == 1 and len(slower) == 1:
            return _Candidate(access, "C", loop, "column walk with idx rows")
    return None


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def replace_refs(body: Sequence[Stmt],
                 mapping: Dict[int, Expr]) -> List[Stmt]:
    """Rebuild ``body`` replacing expression nodes by identity (id())."""

    def rewrite(expr: Expr) -> Expr:
        if id(expr) in mapping:
            return mapping[id(expr)].clone()
        return map_children(expr, rewrite)

    return transform_body(body, rewrite)


def _fresh(base: str, used: set) -> str:
    if base not in used:
        used.add(base)
        return base
    n = 0
    while f"{base}{n}" in used:
        n += 1
    used.add(f"{base}{n}")
    return f"{base}{n}"


def _used_names(kernel: Kernel) -> set:
    from repro.lang.astnodes import idents_used
    names = set(idents_used(kernel.body))
    names.update(p.name for p in kernel.params)
    for stmt in walk_stmts(kernel.body):
        if isinstance(stmt, DeclStmt):
            names.add(stmt.name)
    return names


def _subst_term_expr(form: AffineExpr, term: str, repl: Expr,
                     order: Sequence[str] = ()) -> Expr:
    """Render ``form`` with ``term``'s occurrences replaced by AST ``repl``."""
    coeff = form.coeff(term)
    rest = AffineExpr({k: v for k, v in form.terms.items() if k != term},
                      form.const)
    rest_expr = affine_to_expr(rest, order)
    if coeff == 0:
        return rest_expr
    piece = repl if coeff == 1 else mul(intlit(coeff), repl)
    if isinstance(rest_expr, IntLit) and rest_expr.value == 0:
        return piece
    return add(piece, rest_expr)


def _count_loop(var: str, bound: int, body: List[Stmt],
                start: Expr = None, step: int = 1) -> ForStmt:
    """``for (int var = start; var < bound; var += step) body``."""
    update = AssignStmt(Ident(var), "=",
                        Binary("+", Ident(var), IntLit(step)))
    return ForStmt(init=DeclStmt(INT, var, init=start or intlit(0)),
                   cond=Binary("<", Ident(var), intlit(bound)),
                   update=update, body=body)


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

class CoalesceTransformPass(Pass):
    """Stage every beneficial non-coalesced access through shared memory.

    ``block`` is the *final* thread-block shape the staging is generated
    for: ``(16, 1)`` is the paper's post-coalescing default; wider X values
    realize thread-block merge along X; ``by > 1`` realizes merge along Y.
    """

    name = "coalesce-transform"
    site = "coalesce"

    def __init__(self, block: Tuple[int, int] = (HALF_WARP, 1)):
        bx, by = block
        if bx % HALF_WARP:
            raise PassError("block X dimension must be a multiple of 16")
        self.block = (bx, by)

    def run(self, ctx: CompilationContext) -> None:
        kernel = ctx.kernel
        noncoalesced = self._gather(ctx, note=True)

        used = _used_names(kernel)
        # Every kernel gets block structure here (Section 3.3): the block
        # holds at least one half warp along X.
        ctx.block = self.block

        t_cands = [c for c in noncoalesced if c.case == "T"]
        s_cands = [c for c in noncoalesced if c.case == "S"]
        b_cands = [c for c in noncoalesced if c.case == "B"]
        rc_cands = [c for c in noncoalesced if c.case in ("R", "C")]

        if t_cands and (s_cands or rc_cands or b_cands):
            raise PassError("mixed transpose-tile and loop staging in one "
                            "kernel is not supported")
        if t_cands:
            self._apply_transpose(ctx, t_cands, used)
            return
        if s_cands or b_cands:
            self._apply_prelude_staging(ctx, s_cands, b_cands, used)
            # Prelude staging rebuilt the statement tree, so the loop-case
            # candidates hold stale AST references: gather them afresh.
            rc_cands = [c for c in self._gather(ctx, note=False)
                        if c.case in ("R", "C")]
            used = _used_names(kernel)
        if rc_cands:
            self._apply_loop_staging(ctx, rc_cands, used)

    def _gather(self, ctx: CompilationContext,
                note: bool) -> List[_Candidate]:
        noncoalesced: List[_Candidate] = []
        for acc in collect_accesses(ctx.kernel, ctx.sizes):
            if acc.space != "global":
                continue
            verdict = check_access(acc)
            if verdict.coalesced:
                continue
            cand = classify_case(acc)
            if cand is None:
                if note:
                    ctx.note(f"coalescing: leaving {acc!r} as-is "
                             f"({verdict.reason}; no staging strategy "
                             f"applies)", rule="coalesce.skip.no-strategy",
                             stmt=acc.ref)
                continue
            if acc.is_store and cand.case != "T":
                if note:
                    ctx.note(f"coalescing: store {acc!r} staging "
                             f"unsupported; left as-is",
                             rule="coalesce.skip.store", stmt=acc.ref)
                continue
            noncoalesced.append(cand)
        return noncoalesced

    # -- case T ---------------------------------------------------------------

    def _apply_transpose(self, ctx: CompilationContext,
                         cands: List[_Candidate], used: set) -> None:
        kernel = ctx.kernel
        if self.block != (HALF_WARP, 1) and self.block != (HALF_WARP,
                                                           HALF_WARP):
            raise PassError("transpose tiles require a 16x16 thread block")
        ctx.block = (HALF_WARP, HALF_WARP)
        prelude: List[Stmt] = []
        mapping: Dict[int, Expr] = {}
        for cand in cands:
            acc = cand.access
            name = _fresh(f"tile{len(ctx.staged_loads)}", used)
            decl = DeclStmt(FLOAT, name, dims=[HALF_WARP, HALF_WARP + 1],
                            shared=True)
            # Load with idx/idy roles exchanged so the *load* is coalesced.
            row_src = _subst_term_expr(
                acc.index_forms[0], "idx",
                Binary("+", Binary("-", Ident("idx"), Ident("tidx")),
                       Ident("tidy")), order=("idx",))
            col_src = _subst_term_expr(
                acc.index_forms[1], "idy",
                Binary("+", Binary("-", Ident("idy"), Ident("tidy")),
                       Ident("tidx")), order=("idy",))
            load = AssignStmt(
                ArrayRef(Ident(name), [Ident("tidy"), Ident("tidx")]), "=",
                ArrayRef(Ident(acc.array), [row_src, col_src]))
            prelude.extend([decl, load])
            mapping[id(acc.ref)] = ArrayRef(Ident(name),
                                            [Ident("tidx"), Ident("tidy")])
            ctx.staged_loads.append(StagedLoad(
                shared_name=name, source_array=acc.array, case="T",
                load_stmts=[load],
                shared_elems=HALF_WARP * (HALF_WARP + 1),
                idx_dependent=True, idy_dependent=True))
            ctx.note(f"coalescing: staged {acc!r} through 16x16 shared tile "
                     f"{name} (transpose shape, block becomes 16x16)",
                     rule="coalesce.stage.transpose", stmt=acc.ref,
                     before=snippet(acc.ref),
                     after=f"{name}[tidx][tidy]")
        body = replace_refs(kernel.body, mapping)
        kernel.body = prelude + [SyncStmt("block")] + body

    # -- case S ---------------------------------------------------------------

    def _apply_prelude_staging(self, ctx: CompilationContext,
                               s_cands: List[_Candidate],
                               b_cands: List[_Candidate],
                               used: set) -> None:
        """Stencil aprons and broadcast tables: staged once, before the
        kernel body, behind a single barrier."""
        kernel = ctx.kernel
        prelude: List[Stmt] = []
        mapping: Dict[int, Expr] = {}

        by_array: Dict[str, List[_Candidate]] = {}
        for c in s_cands:
            by_array.setdefault(c.access.array, []).append(c)
        for array, group in sorted(by_array.items()):
            ok = self._stage_apron(ctx, array, group, used, prelude, mapping)
            if not ok:
                for c in group:
                    ctx.note(f"coalescing: apron staging for {c.access!r} "
                             f"not applicable; left as-is",
                             rule="coalesce.skip.apron",
                             stmt=c.access.ref)

        by_array = {}
        for c in b_cands:
            by_array.setdefault(c.access.array, []).append(c)
        for array, group in sorted(by_array.items()):
            self._stage_broadcast(ctx, array, group, used, prelude, mapping)

        if not prelude:
            return
        body = replace_refs(kernel.body, mapping)
        kernel.body = prelude + [SyncStmt("block")] + body

    def _stage_broadcast(self, ctx: CompilationContext, array: str,
                         group: List[_Candidate], used: set,
                         prelude: List[Stmt],
                         mapping: Dict[int, Expr]) -> None:
        """Copy a whole small array into shared memory, all threads
        cooperating; every access keeps its original indices."""
        bx, by = self.block
        acc = group[0].access
        dims = list(acc.dims)
        total = 1
        for d in dims:
            total *= d
        name = _fresh(f"table{len(ctx.staged_loads)}", used)
        prelude.append(DeclStmt(FLOAT, name, dims=dims, shared=True))
        cname = _fresh("cb", used)
        flat: Expr = Ident(cname)
        if by > 1:
            start: Expr = add(mul(intlit(bx), Ident("tidy")), Ident("tidx"))
        else:
            start = Ident("tidx")
        if len(dims) == 1:
            idx_exprs: List[Expr] = [Ident(cname)]
        else:
            # Row-major unflattening of the copy counter.
            idx_exprs = [Binary("/", Ident(cname), intlit(dims[-1])),
                         Binary("%", Ident(cname), intlit(dims[-1]))]
        copy = AssignStmt(ArrayRef(Ident(name), [e.clone()
                                                 for e in idx_exprs]), "=",
                          ArrayRef(Ident(array), [e.clone()
                                                  for e in idx_exprs]))
        prelude.append(ForStmt(
            init=DeclStmt(INT, cname, init=start),
            cond=Binary("<", Ident(cname), intlit(total)),
            update=AssignStmt(Ident(cname), "=",
                              Binary("+", Ident(cname),
                                     IntLit(bx * by))),
            body=[copy]))
        ctx.staged_loads.append(StagedLoad(
            shared_name=name, source_array=array, case="B",
            load_stmts=[prelude[-1]], shared_elems=total,
            idx_dependent=False, idy_dependent=False))
        for cand in group:
            a = cand.access
            mapping[id(a.ref)] = ArrayRef(
                Ident(name), [i.clone() for i in a.ref.indices])
            ctx.note(f"coalescing: staged {a!r} through shared table "
                     f"{name} (whole-array broadcast copy)",
                     rule="coalesce.stage.broadcast", stmt=a.ref,
                     before=snippet(a.ref),
                     after=snippet(mapping[id(a.ref)]))

    def _stage_apron(self, ctx: CompilationContext, array: str,
                     group: List[_Candidate], used: set,
                     prelude: List[Stmt], mapping: Dict[int, Expr]) -> bool:
        bx, by = self.block
        first = group[0].access
        rank = len(first.index_forms)
        if rank not in (1, 2):
            return False

        # Column (fastest-dim) relative offsets rx = ex - idx over loops.
        col_lo, col_hi = None, None
        row_lo, row_hi = 0, 0
        has_rows = rank == 2
        row_cys = set()
        for cand in group:
            acc = cand.access
            fast = acc.index_forms[-1]
            rx = fast.substitute("idx", AffineExpr.constant(0)) \
                     .substitute("tidx", AffineExpr.constant(0))
            lo, hi = _affine_range(rx, acc)
            if lo is None:
                return False
            col_lo = lo if col_lo is None else min(col_lo, lo)
            col_hi = hi if col_hi is None else max(col_hi, hi)
            if has_rows:
                ey = acc.index_forms[0]
                cy = _thread_terms(ey)[1]
                if cy not in (0, 1):
                    return False
                row_cys.add(cy)
                if len(row_cys) > 1:
                    return False  # mixed absolute/relative row indexing
                ry = ey.substitute("idy", AffineExpr.constant(0)) \
                       .substitute("tidy", AffineExpr.constant(0))
                rlo, rhi = _affine_range(ry, acc)
                if rlo is None:
                    return False
                row_lo, row_hi = min(row_lo, rlo), max(row_hi, rhi)
        if col_lo is None or col_lo < 0 or (has_rows and row_lo < 0):
            # Negative offsets would read before the block base; the naive
            # kernels in the suite use shifted (padded) indexing instead.
            return False

        rows_relative = has_rows and row_cys == {1}
        nrows = (row_hi - row_lo + 1) if has_rows else 1
        if rows_relative:
            nrows += by - 1             # each tidy row needs its own window
        apron = bx + (col_hi - col_lo)
        chunks = -(-apron // bx)
        width = chunks * bx + 1          # +1 pad against bank conflicts
        if nrows * width > 12 * 1024 // 4:
            return False                 # would blow the 16 kB shared memory

        name = _fresh(f"apron{len(ctx.staged_loads)}", used)
        dims = [nrows, width] if has_rows else [width]
        decl = DeclStmt(FLOAT, name, dims=dims, shared=True)
        prelude.append(decl)
        loads: List[Stmt] = []
        chunk_stmts: List[Stmt] = []
        row_name = _fresh("sr", used) if has_rows else ""
        for cc in range(chunks):
            slot = add(intlit(cc * bx), Ident("tidx"))
            # Source column for thread tidx: the block base (idx - tidx)
            # plus chunk offset plus tidx collapses to idx + const.
            src_col = add(Ident("idx"), intlit(col_lo + cc * bx))
            if has_rows:
                target = ArrayRef(Ident(name), [Ident(row_name), slot])
                row_src = self._row_source(rows_relative, row_lo, row_name)
                src = ArrayRef(Ident(array), [row_src, src_col])
            else:
                target = ArrayRef(Ident(name), [slot])
                src = ArrayRef(Ident(array), [src_col])
            chunk_stmts.append(AssignStmt(target, "=", src))
        if has_rows:
            # Distribute row loads across the block's Y threads.
            loads.append(_count_loop(row_name, nrows, chunk_stmts,
                                     start=Ident("tidy") if by > 1 else None,
                                     step=by))
        else:
            loads.extend(chunk_stmts)
        prelude.extend(loads)

        idy_dep = rows_relative
        ctx.staged_loads.append(StagedLoad(
            shared_name=name, source_array=array, case="S",
            load_stmts=loads, shared_elems=nrows * width,
            idx_dependent=True, idy_dependent=idy_dep))

        for cand in group:
            acc = cand.access
            fast = acc.index_forms[-1]
            rx = fast.substitute("idx", AffineExpr.constant(0)) \
                     .substitute("tidx", AffineExpr.constant(0))
            col_idx = add(Ident("tidx"),
                          affine_to_expr(rx - AffineExpr.constant(col_lo)))
            if has_rows:
                ey = acc.index_forms[0]
                ry = ey.substitute("idy", AffineExpr.constant(0)) \
                       .substitute("tidy", AffineExpr.constant(0))
                row_form = ry - AffineExpr.constant(row_lo)
                row_idx = affine_to_expr(row_form)
                if rows_relative and by > 1:
                    row_idx = add(Ident("tidy"), affine_to_expr(row_form))
                repl = ArrayRef(Ident(name), [row_idx, col_idx])
            else:
                repl = ArrayRef(Ident(name), [col_idx])
            mapping[id(acc.ref)] = repl
            ctx.note(f"coalescing: staged {acc!r} through shared apron "
                     f"{name}[{nrows}x{width}]",
                     rule="coalesce.stage.apron", stmt=acc.ref,
                     before=snippet(acc.ref), after=snippet(repl))
        return True

    @staticmethod
    def _row_source(rows_relative: bool, row_lo: int, row_var: str) -> Expr:
        if rows_relative:
            # Block row base: idy - tidy; the sr loop spans all window rows.
            return add(Binary("-", Ident("idy"), Ident("tidy")),
                       add(intlit(row_lo), Ident(row_var)))
        return add(intlit(row_lo), Ident(row_var))

    # -- cases R and C ----------------------------------------------------------

    def _apply_loop_staging(self, ctx: CompilationContext,
                            cands: List[_Candidate], used: set) -> None:
        kernel = ctx.kernel
        bx, by = self.block
        by_loop: Dict[int, List[_Candidate]] = {}
        loops: Dict[int, LoopInfo] = {}
        for c in cands:
            key = id(c.loop.stmt)
            by_loop.setdefault(key, []).append(c)
            loops[key] = c.loop
        if len(by_loop) > 1:
            raise PassError("staging accesses driven by different loops is "
                            "not supported in one kernel")
        (key, group), = by_loop.items()
        loop_info = loops[key]
        loop_stmt = loop_info.stmt

        # The strip-mined loop iterates i += 16; an inner k loop covers the
        # original 16 iterations (paper Figure 3).
        iname = loop_info.name
        kname = _fresh("k", used)
        mapping: Dict[int, Expr] = {}
        shared_decls: List[Stmt] = []
        g2s_guarded: List[Stmt] = []    # loads identical across sub-blocks
        g2s_sliced: List[Stmt] = []     # per-warp loads (own rows)
        helper_decls: List[Stmt] = []

        need_warp_ids = bx > HALF_WARP and any(c.case == "C" for c in group)
        wid = wtidx = None
        if need_warp_ids:
            wid = _fresh("wid", used)
            wtidx = _fresh("wtidx", used)
            helper_decls.append(DeclStmt(
                INT, wid, init=Binary("/", Ident("tidx"),
                                      IntLit(HALF_WARP))))
            helper_decls.append(DeclStmt(
                INT, wtidx, init=Binary("%", Ident("tidx"),
                                        IntLit(HALF_WARP))))

        # Guard the strip-mined tail unless the trip count is a known
        # multiple of 16.  A symbolic affine bound (e.g. the triangular
        # ``j < i`` loop in strsm) always gets the guard.
        if loop_info.bound is None:
            needs_guard = False
            ctx.note(f"coalescing: assuming trip count of loop {iname!r} is "
                     f"a multiple of 16 (paper pads inputs)",
                     rule="coalesce.assume.trip-count")
        else:
            needs_guard = not (loop_info.bound.is_constant
                               and loop_info.bound.const % HALF_WARP == 0)

        for cand in group:
            acc = cand.access
            sname = _fresh(f"shared{len(ctx.staged_loads)}", used)
            fast = acc.index_forms[-1]
            if cand.case == "R":
                # Column source index: i + tidx + c.
                col_src = _subst_term_expr(
                    fast, iname, Binary("+", Ident(iname), Ident("tidx")),
                    order=(iname,))
                dims = [by, HALF_WARP] if by > 1 else [HALF_WARP]
                decl = DeclStmt(FLOAT, sname, dims=dims, shared=True)
                slow_exprs = [affine_to_expr(f, ("idy",))
                              for f in acc.index_forms[:-1]]
                tgt_idx = ([Ident("tidy"), Ident("tidx")] if by > 1
                           else [Ident("tidx")])
                load: Stmt = AssignStmt(
                    ArrayRef(Ident(sname), tgt_idx), "=",
                    ArrayRef(Ident(acc.array), slow_exprs + [col_src]))
                load_stmts: List[Stmt] = [load]
                use_idx = ([Ident("tidy"), Ident(kname)] if by > 1
                           else [Ident(kname)])
                mapping[id(acc.ref)] = ArrayRef(Ident(sname), use_idx)
                idx_dep = False
                g2s_guarded.extend(load_stmts)
            else:  # case C
                if by > 1:
                    raise PassError("column-walk staging requires a "
                                    "one-row thread block")
                tid = Ident(wtidx) if need_warp_ids else Ident("tidx")
                col_src = _subst_term_expr(
                    fast, iname, Binary("+", Ident(iname), tid.clone()),
                    order=(iname,))
                decl = DeclStmt(FLOAT, sname,
                                dims=[bx, HALF_WARP + 1], shared=True)
                lname = _fresh("l", used)
                slow = acc.index_forms[0]
                row_src = _subst_term_expr(
                    slow, "idx",
                    Binary("+", Binary("-", Ident("idx"), tid.clone()),
                           Ident(lname)), order=("idx",))
                row_slot: Expr = Ident(lname)
                if need_warp_ids:
                    row_slot = add(mul(intlit(HALF_WARP), Ident(wid)),
                                   Ident(lname))
                inner = AssignStmt(
                    ArrayRef(Ident(sname), [row_slot, tid.clone()]), "=",
                    ArrayRef(Ident(acc.array), [row_src, col_src]))
                load = _count_loop(lname, HALF_WARP, [inner])
                load_stmts = [load]
                mapping[id(acc.ref)] = ArrayRef(
                    Ident(sname), [Ident("tidx"), Ident(kname)])
                idx_dep = True
                g2s_sliced.extend(load_stmts)
            shared_decls.append(decl)
            ctx.staged_loads.append(StagedLoad(
                shared_name=sname, source_array=acc.array, case=cand.case,
                load_stmts=load_stmts,
                shared_elems=(bx * (HALF_WARP + 1) if cand.case == "C"
                              else by * HALF_WARP),
                idx_dependent=idx_dep,
                idy_dependent=any(f.coeff("idy") or f.coeff("tidy")
                                  for f in acc.index_forms)))
            ctx.note(f"coalescing: staged {acc!r} through shared memory "
                     f"{sname} (case {cand.case})",
                     rule="coalesce.stage.loop", stmt=acc.ref,
                     before=snippet(acc.ref),
                     after=snippet(mapping[id(acc.ref)]),
                     case=cand.case)

        # Guard loads that are identical across merged sub-blocks so global
        # data is fetched only once (paper Figure 5).
        if bx > HALF_WARP and g2s_guarded:
            g2s_guarded = [IfStmt(
                Binary("<", Ident("tidx"), IntLit(HALF_WARP)),
                g2s_guarded)]
            ctx.note("block merge: guarded redundant G2S loads with "
                     "if (tidx < 16)", rule="coalesce.guard.block-merge")
        g2s_loads: List[Stmt] = g2s_sliced + g2s_guarded

        # Rebuild the loop body: replace staged refs, then substitute
        # i -> i + k for the inner unrolled loop.
        new_body = replace_refs(loop_stmt.body, mapping)
        new_body = substitute_in_body(
            new_body, {iname: Binary("+", Ident(iname), Ident(kname))})
        if needs_guard:
            guard = Binary("<", Binary("+", Ident(iname), Ident(kname)),
                           affine_to_expr(loop_info.bound))
            new_body = [IfStmt(guard, new_body)]
            # Each load group fetches columns by its own thread id: sliced
            # (case C) loads use the within-warp id under block merge, the
            # rest use tidx directly.
            col_tid = Ident(wtidx) if need_warp_ids else Ident("tidx")
            if g2s_sliced:
                g2s_sliced = [IfStmt(
                    Binary("<", Binary("+", Ident(iname), col_tid.clone()),
                           affine_to_expr(loop_info.bound)),
                    list(g2s_sliced))]
            if g2s_guarded:
                g2s_guarded = [IfStmt(
                    Binary("<", Binary("+", Ident(iname), Ident("tidx")),
                           affine_to_expr(loop_info.bound)),
                    list(g2s_guarded))]
            g2s_loads = g2s_sliced + g2s_guarded
        inner_loop = _count_loop(kname, HALF_WARP, new_body)
        outer_body: List[Stmt] = list(shared_decls)
        outer_body.extend(g2s_loads)
        outer_body.append(SyncStmt("block"))
        outer_body.append(inner_loop)
        outer_body.append(SyncStmt("block"))

        loop_stmt.body = outer_body
        loop_stmt.update = AssignStmt(
            Ident(iname), "=",
            Binary("+", Ident(iname), IntLit(HALF_WARP)))
        if helper_decls:
            kernel.body = helper_decls + kernel.body
        ctx.main_loop = loop_stmt
        ctx.note(f"coalescing: strip-mined loop {iname!r} by 16 with inner "
                 f"iterator {kname!r}",
                 rule="coalesce.strip-mine", stmt=loop_stmt.cond,
                 loop=iname, inner=kname)


def _affine_range(form: AffineExpr, access: AccessInfo
                  ) -> Tuple[Optional[int], Optional[int]]:
    """[min, max] of a loops+const affine form over the access's loops."""
    lo = hi = form.const
    for name, coeff in form.terms.items():
        loop = access.loop(name)
        if loop is None or loop.step is None or loop.bound is None \
                or not loop.bound.is_constant or loop.start is None \
                or not loop.start.is_constant:
            return None, None
        first = loop.start.const
        trips = loop.trip_count({})
        if trips is None or trips <= 0:
            return None, None
        last = first + (trips - 1) * loop.step
        vals = (coeff * first, coeff * last)
        lo += min(vals)
        hi += max(vals)
    return lo, hi
