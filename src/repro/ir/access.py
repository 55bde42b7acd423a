"""Collection of array accesses with their affine address functions.

:func:`collect_accesses` walks a kernel body tracking loop nesting and the
affine definitions of integer locals, and produces an :class:`AccessInfo`
for every array subscript.  This is the input to the coalescing check, the
staging transform, the sharing analysis, and the partition-camping check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (Dict, List, Mapping, Optional, Sequence, Set, Tuple,
                    Union)

import numpy as np

from repro.lang.arith import c_div, c_mod, c_shl, c_shr
from repro.lang.astnodes import (
    ArrayRef,
    AssignStmt,
    Binary,
    Block,
    DeclStmt,
    Expr,
    ExprStmt,
    ForStmt,
    Ident,
    IfStmt,
    IntLit,
    Kernel,
    Stmt,
    SyncStmt,
    Unary,
    WhileStmt,
    walk_exprs,
)
from repro.lang.builtins import PREDEFINED_IDS
from repro.lang.types import INT, ScalarType
from repro.ir.affine import AffineExpr, NotAffine, affine_of
from repro.ir.indices import IndexClass, classify_affine

# One axis of an address evaluation: a Python int, or an int64 ndarray
# that broadcasts against the other axes.
Axis = Union[int, np.ndarray]


@dataclass(frozen=True)
class LoopInfo:
    """One enclosing ``for`` loop, as far as it can be resolved."""

    name: str                       # iterator variable
    start: Optional[AffineExpr]     # None if unresolvable
    step: Optional[int]             # None if unresolvable
    bound: Optional[AffineExpr]     # exclusive upper bound, None if not `<`
    stmt: ForStmt = field(compare=False, repr=False, default=None)

    def trip_count(self, bindings: Mapping[str, int]) -> Optional[int]:
        """Concrete trip count under ``bindings``, if fully resolved."""
        if self.start is None or self.step is None or self.bound is None:
            return None
        if self.step <= 0:
            return None
        try:
            lo = self.start.evaluate(bindings)
            hi = self.bound.evaluate(bindings)
        except KeyError:
            return None
        if hi <= lo:
            return 0
        return (hi - lo + self.step - 1) // self.step


@dataclass
class AccessInfo:
    """One array subscript occurrence and everything analyzed about it."""

    array: str                          # array name
    space: str                          # 'global' | 'shared'
    elem: ScalarType
    ref: ArrayRef                       # the AST node (identity matters)
    stmt: Stmt                          # enclosing simple statement
    is_store: bool
    dims: Tuple[int, ...]               # resolved extents (elements)
    index_forms: List[Optional[AffineExpr]]   # per-dimension, None=unresolved
    address: Optional[AffineExpr]       # linearized, in elements; None if any
                                        # index is unresolved
    loops: Tuple[LoopInfo, ...]         # enclosing loops, outermost first
    guards: Tuple[Expr, ...] = ()       # enclosing if-conditions
    # Quasi-affine terms: names like '@i_p' stand for an opaque integer
    # local (e.g. the partition rotation `(i + 64*bidx) % w`) mapped to its
    # defining expression and its known power-of-two alignment.
    term_defs: Dict[str, Tuple[Expr, int]] = field(default_factory=dict)
    # Size-parameter bindings, needed to evaluate term_defs expressions.
    sizes: Dict[str, int] = field(default_factory=dict)
    # Affine definitions of local ints in scope at the access point
    # (e.g. ``pos = bidx*8192 + j*256 + tidx``), so guard expressions that
    # mention them stay evaluable.  Fully substituted: their terms are only
    # predefined ids, loop iterators, '@' terms and constants.
    env_forms: Dict[str, "AffineExpr"] = field(default_factory=dict)
    # The '@' terms of ``address``, scanned once here rather than on
    # every evaluation.
    quasi_terms: Tuple[str, ...] = field(init=False, repr=False, default=())

    def __post_init__(self):
        if self.address is not None:
            self.quasi_terms = tuple(
                name for name in self.address.terms if name.startswith("@"))

    @property
    def is_load(self) -> bool:
        return not self.is_store

    def term_alignment(self, name: str) -> int:
        """Known alignment (in elements) of a quasi-affine term."""
        if name in self.term_defs:
            return self.term_defs[name][1]
        return 1

    def term_reads(self, name: str) -> Set[str]:
        """Every name a quasi-affine term's definition may read, followed
        through the ``@`` terms it mentions."""
        names: Set[str] = set()
        for node in walk_exprs(self.term_defs[name][0]):
            if isinstance(node, Ident) and node.name not in names:
                names.add(node.name)
                if "@" + node.name in self.term_defs:
                    names |= self.term_reads("@" + node.name)
        return names

    def _evaluate(self, bindings: Mapping[str, Axis]):
        if self.address is None:
            raise ValueError(f"{self} has no resolved address")
        full = dict(self.sizes)
        full.update(bindings)
        for name in self.quasi_terms:
            if name not in full:
                expr, _align = self.term_defs[name]
                full[name] = eval_int_expr(expr, full, self.term_defs)
        return self.address.evaluate(full)

    def eval_address(self, bindings: Mapping[str, int]) -> int:
        """Evaluate the linear address, resolving quasi-affine terms."""
        return self._evaluate(bindings)

    def eval_addresses(self, axes: Mapping[str, Axis]) -> np.ndarray:
        """The linear address at every point of the grid ``axes`` span.

        Each axis is an int or an ``int64`` array; the arrays broadcast
        against each other and the result has their broadcast shape,
        whether or not the address reads every axis.  Raises like
        :meth:`eval_address`: ``KeyError`` for a free name,
        ``ZeroDivisionError`` if any point divides by zero.
        """
        shape = np.broadcast_shapes(*(np.shape(v) for v in axes.values()))
        return np.broadcast_to(
            np.asarray(self._evaluate(axes), dtype=np.int64), shape)

    @property
    def index_classes(self) -> List[IndexClass]:
        loop_names = [l.name for l in self.loops]
        out = []
        for form in self.index_forms:
            if form is None:
                out.append(IndexClass.UNRESOLVED)
            else:
                out.append(classify_affine(form, loop_names))
        return out

    @property
    def resolved(self) -> bool:
        return self.address is not None

    def loop(self, name: str) -> Optional[LoopInfo]:
        for l in self.loops:
            if l.name == name:
                return l
        return None

    def __repr__(self) -> str:
        idx = "][".join(str(f) if f is not None else "?"
                        for f in self.index_forms)
        kind = "store" if self.is_store else "load"
        return f"<{kind} {self.array}[{idx}] in {self.space}>"


_INT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": c_div, "%": c_mod,
            "<<": c_shl, ">>": c_shr,
            "&": operator.and_, "|": operator.or_, "^": operator.xor}


def eval_int_expr(expr: Expr, bindings: Mapping[str, Axis],
                  term_defs: Mapping[str, Tuple[Expr, int]]) -> Axis:
    """Evaluate an integer expression given id bindings (C semantics).

    A binding may be an ``int64`` array; the value is then the array of
    results, one per element, under the same C ``/`` and ``%``.
    """
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Ident):
        if expr.name in bindings:
            value = bindings[expr.name]
            return value if isinstance(value, np.ndarray) else int(value)
        key = "@" + expr.name
        if key in term_defs:
            return eval_int_expr(term_defs[key][0], bindings, term_defs)
        raise KeyError(expr.name)
    if isinstance(expr, Unary):
        val = eval_int_expr(expr.operand, bindings, term_defs)
        return -val if expr.op == "-" else val
    if isinstance(expr, Binary):
        op = _INT_OPS.get(expr.op)
        if op is not None:
            return op(eval_int_expr(expr.left, bindings, term_defs),
                      eval_int_expr(expr.right, bindings, term_defs))
    raise KeyError(f"cannot evaluate {type(expr).__name__}")


def _gcd(a: int, b: int) -> int:
    import math
    return math.gcd(int(a), int(b))


def int_expr_alignment(expr: Expr, align_env: Mapping[str, int]) -> int:
    """Largest known divisor of an integer expression's value.

    Used by the coalescing check on quasi-affine terms: the partition
    rotation ``(i + 64*bidx) % w`` stays 16-aligned when ``i`` steps by 16
    and ``w`` is a multiple of 16.
    """
    if isinstance(expr, IntLit):
        return abs(expr.value) if expr.value else 1 << 20
    if isinstance(expr, Ident):
        return align_env.get(expr.name, 1)
    if isinstance(expr, Unary):
        return int_expr_alignment(expr.operand, align_env)
    if isinstance(expr, Binary):
        left = int_expr_alignment(expr.left, align_env)
        right = int_expr_alignment(expr.right, align_env)
        if expr.op in ("+", "-", "%"):
            return _gcd(left, right)
        if expr.op == "*":
            return max(1, left * right)
    return 1


class _Collector:
    def __init__(self, kernel: Kernel, sizes: Mapping[str, int]):
        self._kernel = kernel
        self._sizes = dict(sizes)
        self._accesses: List[AccessInfo] = []
        # Affine environment: predefined ids as opaque terms, plus any
        # compile-time-known scalar int parameters as constants.
        self._env: Dict[str, AffineExpr] = {
            name: AffineExpr.term(name) for name in PREDEFINED_IDS}
        self._term_defs: Dict[str, Tuple[Expr, int]] = {}
        self._align_env: Dict[str, int] = {name: 1 for name in PREDEFINED_IDS}
        for p in kernel.scalar_params():
            if p.type == INT:
                if p.name in self._sizes:
                    value = self._sizes[p.name]
                    self._env[p.name] = AffineExpr.constant(value)
                    self._align_env[p.name] = abs(value) if value else 1
                else:
                    self._env[p.name] = AffineExpr.term(p.name)
        # Array shapes: kernel params (global) resolved against sizes.
        self._arrays: Dict[str, Tuple[str, ScalarType, Tuple[int, ...]]] = {}
        for p in kernel.array_params():
            dims = p.array_type().resolved_dims(self._sizes)
            self._arrays[p.name] = ("global", p.type, dims)
        self._loops: List[LoopInfo] = []
        self._guards: List[Expr] = []

    def run(self) -> List[AccessInfo]:
        self._walk_body(self._kernel.body)
        return self._accesses

    # -- statement walk ----------------------------------------------------

    def _walk_body(self, body: Sequence[Stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, DeclStmt):
            self._handle_decl(stmt)
        elif isinstance(stmt, AssignStmt):
            self._collect_from_stmt(stmt, stmt.value, is_store=False)
            self._collect_from_stmt(stmt, stmt.target, is_store=True,
                                    top_is_store=True)
            self._update_env_assign(stmt)
        elif isinstance(stmt, ExprStmt):
            self._collect_from_stmt(stmt, stmt.expr, is_store=False)
        elif isinstance(stmt, IfStmt):
            self._collect_cond(stmt, stmt.cond)
            self._guards.append(stmt.cond)
            self._walk_body(stmt.then_body)
            self._walk_body(stmt.else_body)
            self._guards.pop()
        elif isinstance(stmt, ForStmt):
            self._handle_for(stmt)
        elif isinstance(stmt, WhileStmt):
            self._collect_cond(stmt, stmt.cond)
            self._walk_body(stmt.body)
        elif isinstance(stmt, Block):
            self._walk_body(stmt.body)
        elif isinstance(stmt, SyncStmt):
            pass

    def _handle_decl(self, stmt: DeclStmt) -> None:
        if stmt.is_array:
            dims = tuple(d if isinstance(d, int) else self._sizes[d]
                         for d in stmt.dims)
            space = "shared" if stmt.shared else "local"
            self._arrays[stmt.name] = (space, stmt.type, dims)
            return
        if stmt.init is not None:
            self._collect_from_stmt(stmt, stmt.init, is_store=False)
        if stmt.type == INT:
            form = self._try_affine(stmt.init) if stmt.init is not None \
                else None
            if form is not None:
                self._env[stmt.name] = form
            elif stmt.init is not None:
                # Quasi-affine: keep the variable as an opaque term whose
                # value and alignment remain computable (partition
                # rotations, warp-id arithmetic).
                key = "@" + stmt.name
                align = int_expr_alignment(stmt.init, self._align_env)
                self._term_defs[key] = (stmt.init, align)
                self._align_env[stmt.name] = align
                self._env[stmt.name] = AffineExpr.term(key)
            else:
                self._env.pop(stmt.name, None)

    def _update_env_assign(self, stmt: AssignStmt) -> None:
        if isinstance(stmt.target, Ident) and stmt.target.name in self._env:
            # A reassignment invalidates (or updates) the affine definition.
            if stmt.op == "=":
                form = self._try_affine(stmt.value)
            else:
                form = None
            if form is None:
                # Conservatively treat as opaque from here on, unless the
                # name is an iterator currently mapped to itself.
                self._env.pop(stmt.target.name, None)
            else:
                self._env[stmt.target.name] = form

    def _handle_for(self, stmt: ForStmt) -> None:
        name = stmt.iter_name()
        if name is None:
            # Unrecognized loop shape: walk the body without loop info.
            self._walk_body(stmt.body)
            return
        start = None
        if isinstance(stmt.init, DeclStmt) and stmt.init.init is not None:
            start = self._try_affine(stmt.init.init)
        elif isinstance(stmt.init, AssignStmt):
            start = self._try_affine(stmt.init.value)
        step = _loop_step(stmt, name)
        bound = _loop_bound(stmt, name, self._try_affine)
        saved = self._env.get(name)
        self._env[name] = AffineExpr.term(name)
        start_align = 1 << 20
        if start is not None and start.is_constant:
            start_align = abs(start.const) if start.const else 1 << 20
        import math
        self._align_env[name] = math.gcd(step or 1, start_align) or 1
        info = LoopInfo(name=name, start=start, step=step, bound=bound,
                        stmt=stmt)
        self._loops.append(info)
        self._walk_body(stmt.body)
        self._loops.pop()
        if saved is None:
            self._env.pop(name, None)
        else:
            self._env[name] = saved

    # -- expression collection ----------------------------------------------

    def _collect_cond(self, stmt: Stmt, cond: Expr) -> None:
        self._collect_from_stmt(stmt, cond, is_store=False)

    def _collect_from_stmt(self, stmt: Stmt, expr: Expr, is_store: bool,
                           top_is_store: bool = False) -> None:
        for node in walk_exprs(expr):
            if isinstance(node, ArrayRef):
                store = top_is_store and node is expr
                self._record(stmt, node, store)

    def _record(self, stmt: Stmt, ref: ArrayRef, is_store: bool) -> None:
        name = ref.base.name
        if name not in self._arrays:
            return
        space, elem, dims = self._arrays[name]
        if space == "local":
            return
        index_forms: List[Optional[AffineExpr]] = []
        for idx in ref.indices:
            index_forms.append(self._try_affine(idx))
        address: Optional[AffineExpr] = None
        if all(f is not None for f in index_forms) and len(dims) == len(ref.indices):
            address = AffineExpr.constant(0)
            stride = 1
            for form, extent in zip(reversed(index_forms), reversed(dims)):
                address = address + form.scale(stride)
                stride *= extent
        self._accesses.append(AccessInfo(
            array=name, space=space, elem=elem, ref=ref, stmt=stmt,
            is_store=is_store, dims=dims, index_forms=index_forms,
            address=address, loops=tuple(self._loops),
            guards=tuple(self._guards), term_defs=self._term_defs,
            sizes=self._sizes, env_forms=dict(self._env)))

    def _try_affine(self, expr: Optional[Expr]) -> Optional[AffineExpr]:
        if expr is None:
            return None
        try:
            return affine_of(expr, self._env)
        except NotAffine:
            return None


def _loop_step(stmt: ForStmt, name: str) -> Optional[int]:
    """Extract a constant positive step from ``i = i + c`` / ``i += c``."""
    upd = stmt.update
    if not isinstance(upd, AssignStmt) or not isinstance(upd.target, Ident) \
            or upd.target.name != name:
        return None
    if upd.op == "+=" and isinstance(upd.value, IntLit):
        return upd.value.value
    if upd.op == "=" and isinstance(upd.value, Binary) and upd.value.op == "+":
        left, right = upd.value.left, upd.value.right
        if isinstance(left, Ident) and left.name == name \
                and isinstance(right, IntLit):
            return right.value
        if isinstance(right, Ident) and right.name == name \
                and isinstance(left, IntLit):
            return left.value
    return None


def _loop_bound(stmt: ForStmt, name: str, try_affine) -> Optional[AffineExpr]:
    """Extract the exclusive upper bound from ``i < B`` / ``i <= B``."""
    cond = stmt.cond
    if not isinstance(cond, Binary):
        return None
    if not (isinstance(cond.left, Ident) and cond.left.name == name):
        return None
    bound = try_affine(cond.right)
    if bound is None:
        return None
    if cond.op == "<":
        return bound
    if cond.op == "<=":
        return bound + AffineExpr.constant(1)
    return None


def collect_accesses(kernel: Kernel,
                     sizes: Mapping[str, int]) -> List[AccessInfo]:
    """Collect every global/shared array access of ``kernel``.

    ``sizes`` binds the kernel's integer size parameters (the information
    the paper's ``#pragma`` interface conveys) so array strides are concrete.
    """
    return _Collector(kernel, sizes).run()
