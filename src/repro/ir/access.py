"""Collection of array accesses with their affine address functions.

:func:`collect_accesses` walks a kernel body tracking loop nesting and the
affine definitions of integer locals, and produces an :class:`AccessInfo`
for every array subscript.  This is the input to the coalescing check, the
staging transform, the sharing analysis, and the partition-camping check.
"""

from __future__ import annotations

import math
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
    Ternary,
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

    def sample(self, points: Mapping[str, Axis], live: np.ndarray, cap: int,
               term_defs: Mapping[str, Tuple[Expr, int]] = {},
               env: Mapping[str, AffineExpr] = {}):
        """The iterator's values at every live point, at most ``cap`` each.

        Returns ``(values, valid, exhaustive, endpoints)``: ``values`` has
        ``live``'s shape plus a trailing axis, ragged, so ``valid`` marks
        the real entries in visiting order; the flags say every live
        point's values, or its first and last, are all there.  A resolved
        ``start/step/bound`` gives the values directly, past the cap both
        ends, the middle and the ends' neighbours (affine indices are
        monotone); any other header (``st = st / 2``) is simulated.
        ``None`` if neither resolves."""
        if not live.any():
            empty = np.zeros(live.shape + (0,), np.int64)
            return empty, empty.astype(bool), True, True
        if self.start is not None and self.step is not None \
                and self.step > 0 and self.bound is not None:
            try:
                lo = _affine(self.start, points, term_defs, env, live)
                hi = _affine(self.bound, points, term_defs, env, live)
            except (KeyError, ZeroDivisionError):
                pass
            else:
                if np.ndim(lo) == np.ndim(hi) == 0:   # one trip list for all
                    trips = max(0, -(-(int(hi) - int(lo)) // self.step))
                    values = np.array([lo + i * self.step for i in (
                        range(trips) if trips <= cap else sorted(
                            {0, 1, trips // 2, trips - 2, trips - 1}))],
                        np.int64)
                    shape = live.shape + values.shape
                    return (np.broadcast_to(values, shape),
                            np.broadcast_to(live[..., None], shape),
                            trips <= cap, True)
                count = np.maximum(0, -(-(hi - lo) // self.step))
                picks = np.stack(np.broadcast_arrays(
                    0, 1, count // 2, count - 2, count - 1), -1)
                lo = np.asarray(lo)[..., None]
                values, valid = _samples(
                    count, cap, picks, np.ones(picks.shape, bool), live,
                    lambda index: lo + index * self.step)
                return (values, valid,
                        bool(np.broadcast_to(count <= cap, live.shape)[
                            live].all()), True)
        return self._simulate(points, live, cap, term_defs, env)

    def _simulate(self, points, live, cap, term_defs, env):
        """:meth:`sample` by running ``init``, ``cond`` and ``update`` in
        lockstep over the live points, for at most ``_SIM_STEPS`` trips."""
        stmt = self.stmt
        first = stmt.start() if stmt is not None else None
        if first is None:
            return None
        seen: List[np.ndarray] = []
        count = np.zeros(live.shape, np.int64)
        try:
            value = np.broadcast_to(
                _int(first, points, term_defs, env, live), live.shape)
            alive, ended = live, np.zeros(live.shape, bool)
            for _ in range(_SIM_STEPS):
                local = {**points, self.name: value}
                if stmt.cond is not None:
                    going = np.asarray(
                        _int(stmt.cond, local, term_defs, env, alive) != 0)
                    ended = ended | (alive & ~going)
                    alive = alive & going
                if not alive.any():
                    break
                seen.append(value)
                count += alive
                update = stmt.update
                if not isinstance(update, AssignStmt) \
                        or update.op not in ("+=", "-=", "="):
                    return None
                step = _int(update.value, local, term_defs, env, alive)
                new = np.broadcast_to(
                    value + step if update.op == "+=" else
                    value - step if update.op == "-=" else step, live.shape)
                alive = alive & (new != value)   # no progress: stop here
                value = new
        except (KeyError, ZeroDivisionError):
            return None
        # Past the cap: Python's values[:cap - 3], the middle, the last two.
        big = count > cap
        head = np.broadcast_to(
            cap - 3 if cap >= 3 else np.maximum(count + cap - 3, 0),
            live.shape)
        lead = np.arange(int(head[live & big].max(initial=0)))
        picks = np.concatenate([np.broadcast_to(lead, live.shape + lead.shape),
                                np.stack([count // 2, count - 2, count - 1],
                                         -1)], -1)
        fresh = np.pad(lead < head[..., None], [(0, 0)] * live.ndim
                       + [(0, 3)], constant_values=True)
        hist = np.stack(seen or [count], -1)
        values, valid = _samples(
            count, cap, picks, fresh, live, lambda index: np.take_along_axis(
                hist, np.clip(index, 0, hist.shape[-1] - 1), -1))
        return (values, valid, bool((ended & ~big)[live].all()),
                bool(ended[live].all()))


def _samples(count, cap, picks, fresh, live, at):
    """Per live point, the values ``at`` the indices ``0 .. count - 1``
    when ``count <= cap``, else at its ``fresh`` ``picks``, each value
    once: ``(values, valid)`` on one padded trailing axis."""
    count = np.broadcast_to(count, live.shape)
    big = live & (count > cap)
    width = max(picks.shape[-1], int(count[live & ~big].max(initial=0)))
    seq = np.arange(width)
    index = np.broadcast_to(seq, live.shape + (width,)).copy()
    valid = seq < count[..., None]
    index[big, :picks.shape[-1]] = np.broadcast_to(
        picks, live.shape + picks.shape[-1:])[big]
    valid[big] = np.pad(np.broadcast_to(fresh, live.shape + fresh.shape[
        -1:])[big], [(0, 0), (0, width - fresh.shape[-1])])
    values = np.broadcast_to(at(index), index.shape)
    if big.any():
        v, keep = values[big], valid[big]
        repeat = (v[:, :, None] == v[:, None, :]) & keep[:, None, :]
        valid[big] = keep & ~(repeat & np.tri(width, k=-1, dtype=bool)).any(-1)
    return values, valid & live[..., None]


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
    # The '@' terms of ``address``.
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

    def eval_address(self, bindings: Mapping[str, Axis]) -> Axis:
        """Evaluate the linear address, resolving quasi-affine terms."""
        if self.address is None:
            raise ValueError(f"{self} has no resolved address")
        return _affine(self.address, {**self.sizes, **bindings},
                       self.term_defs, self.env_forms)

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
            np.asarray(self.eval_address(axes), dtype=np.int64), shape)

    def sweep(self, axes: Mapping[str, Axis], cap: int,
              skip: Sequence[str] = ()) -> "Sweep":
        """Every sampled execution of this access by the points of
        ``axes`` (usually :func:`launch_axes`), guards applied: each loop
        that ``axes`` does not bind, nor ``skip`` name, adds a trailing
        axis of at most ``cap`` values (:meth:`LoopInfo.sample`), in the
        order a nested walk visits them.  An unevaluable guard is taken.
        """
        points = {**axes, **self.sizes}
        out = Sweep(np.ones(np.broadcast_shapes(*(
            v.shape for v in points.values() if isinstance(v, np.ndarray))),
            bool))
        for loop in self.loops:
            if loop.name in skip or loop.name in axes:
                continue
            sample = loop.sample(points, out.active, cap, self.term_defs,
                                 self.env_forms)
            if sample is None:
                out.complete = out.endpoints = out.evaluated = False
                out.active = np.zeros(out.active.shape, bool)
                return out
            values, valid, exhaustive, endpoints = sample
            out.complete &= exhaustive
            out.endpoints &= endpoints
            points = {name: value[..., None]
                      if isinstance(value, np.ndarray) else value
                      for name, value in points.items()}
            points[loop.name] = values
            out.active = out.active[..., None] & valid
        live = out.active
        for guard in self.guards:
            if not live.any():
                break
            taken, known = _truth(guard, points, self.term_defs,
                                  self.env_forms, live)
            out.guards_ok &= bool(known[live].all())
            live = out.active = live & (taken | ~known)
        if not live.any():
            return out
        try:
            out.indices = [np.broadcast_to(
                _affine(form, points, self.term_defs, self.env_forms, live)
                if form is not None else
                _int(index, points, self.term_defs, self.env_forms, live),
                live.shape)
                for index, form in zip(self.ref.indices, self.index_forms)]
        except (KeyError, ZeroDivisionError):
            out.evaluated = False
            return out
        if len(out.indices) == len(self.dims):
            out.address, stride = np.zeros(live.shape, np.int64), 1
            for index, extent in zip(reversed(out.indices),
                                     reversed(self.dims)):
                out.address, stride = (out.address + index * stride,
                                       stride * extent)
        else:
            out.evaluated = False
        return out

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


@dataclass
class Sweep:
    """An access's sampled executions (:meth:`AccessInfo.sweep`): the
    subscripts and row-major address on one grid (``None`` if no point is
    ``active`` or they fail to evaluate), and how credible the cover is."""

    active: np.ndarray
    indices: Optional[List[np.ndarray]] = None
    address: Optional[np.ndarray] = None
    complete: bool = True     # every loop fully enumerated
    endpoints: bool = True    # loop extremes included (affine monotone)
    guards_ok: bool = True    # every guard evaluated
    evaluated: bool = True    # every index evaluated at every point

    @property
    def trustworthy(self) -> bool:
        """Extremes credibly covered: no-witness means no violation."""
        return self.endpoints and self.guards_ok and self.evaluated


def block_threads(block: Tuple[int, int],
                  cap: int = 1024) -> List[Tuple[int, int]]:
    """The first ``cap`` (tidx, tidy) positions of a block, x fastest as
    CUDA numbers them, so ``cap=16`` is warp 0's first half warp."""
    bx, by = max(1, block[0]), max(1, block[1])
    return [(tx, ty) for ty in range(by) for tx in range(bx)][:cap]


def launch_axes(block: Tuple[int, int], grid: Tuple[int, int],
                threads: Sequence[Tuple[int, int]],
                blocks: Sequence[Tuple[int, int]] = ((0, 0),)
                ) -> Dict[str, Axis]:
    """The launch ids on one point axis: each of ``threads`` in each of
    ``blocks``, blocks outermost."""
    tidx, tidy = np.array([t for _ in blocks for t in threads],
                          np.int64).reshape(-1, 2).T
    bidx, bidy = np.array([b for b in blocks for _ in threads],
                          np.int64).reshape(-1, 2).T
    return {"tidx": tidx, "tidy": tidy, "bidx": bidx, "bidy": bidy,
            "bdimx": block[0], "bdimy": block[1],
            "gdimx": grid[0], "gdimy": grid[1],
            "idx": bidx * block[0] + tidx, "idy": bidy * block[1] + tidy}


# ---------------------------------------------------------------------------
# Integer evaluation with C semantics, on ints or int64 arrays
# ---------------------------------------------------------------------------

#: Loop headers are simulated for at most this many trips per point.
_SIM_STEPS = 4096


def _flag(truth):
    """C's 1 or 0 for a truth value, elementwise on arrays."""
    return truth.astype(np.int64) if isinstance(truth, np.ndarray) \
        else int(truth)


_INT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": c_div, "%": c_mod, "<<": c_shl, ">>": c_shr,
            "&": operator.and_, "|": operator.or_, "^": operator.xor,
            "<": lambda a, b: _flag(a < b), ">": lambda a, b: _flag(a > b),
            "<=": lambda a, b: _flag(a <= b),
            ">=": lambda a, b: _flag(a >= b),
            "==": lambda a, b: _flag(a == b),
            "!=": lambda a, b: _flag(a != b)}
_UNARY_OPS = {"-": operator.neg, "+": operator.pos,
              "!": lambda value: _flag(value == 0)}


def eval_int_expr(expr: Expr, bindings: Mapping[str, Axis],
                  term_defs: Mapping[str, Tuple[Expr, int]] = {},
                  env: Mapping[str, AffineExpr] = {}) -> Axis:
    """Evaluate an integer expression with C semantics.

    A name resolves through ``bindings`` (ints or ``int64`` arrays, which
    broadcast), then the quasi-affine ``term_defs`` (under ``'@name'``),
    then ``env``, the affine forms of the locals in scope.  Comparisons
    and logical operators yield 1 or 0; ``&&``, ``||`` and ``?:``
    evaluate an operand only at the points where C would, so only a zero
    divisor there raises ``ZeroDivisionError``.  A free name or a
    non-integer expression raises ``KeyError``.
    """
    return _int(expr, bindings, term_defs, env, None)


def _int(expr, bindings, term_defs, env, live):
    """:func:`eval_int_expr` at the points ``live`` marks (every point
    when ``None``): divisors elsewhere are replaced before dividing, as
    :mod:`repro.lang.arith` asks."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Ident):
        return _lookup(expr.name, bindings, term_defs, env, live)
    if isinstance(expr, Unary) and expr.op in _UNARY_OPS:
        return _UNARY_OPS[expr.op](
            _int(expr.operand, bindings, term_defs, env, live))
    if isinstance(expr, Ternary):
        cond = _int(expr.cond, bindings, term_defs, env, live)
        if not isinstance(cond, np.ndarray):
            return _int(expr.then if cond else expr.otherwise, bindings,
                        term_defs, env, live)
        taken = cond != 0
        return np.where(taken, _where(expr.then, taken, bindings, term_defs,
                                      env, live),
                        _where(expr.otherwise, ~taken, bindings, term_defs,
                               env, live))
    if isinstance(expr, Binary) and expr.op in ("&&", "||"):
        left = _int(expr.left, bindings, term_defs, env, live)
        decided = (left == 0) if expr.op == "&&" else (left != 0)
        if not isinstance(left, np.ndarray):
            return int(expr.op == "||") if decided else _flag(
                _int(expr.right, bindings, term_defs, env, live) != 0)
        right = _where(expr.right, ~decided, bindings, term_defs, env, live)
        return np.where(decided, int(expr.op == "||"),
                        np.asarray(right) != 0).astype(np.int64)
    if isinstance(expr, Binary) and expr.op in _INT_OPS:
        left = _int(expr.left, bindings, term_defs, env, live)
        right = _int(expr.right, bindings, term_defs, env, live)
        if live is not None and expr.op in ("/", "%") \
                and isinstance(right, np.ndarray):
            right = np.where(live, right, 1)
        return _INT_OPS[expr.op](left, right)
    raise KeyError(f"cannot evaluate {type(expr).__name__}")


def _where(expr, where, bindings, term_defs, env, live):
    """``expr`` at the live points of ``where``; 0 if there are none."""
    live = where if live is None else live & where
    if not live.any():
        return 0
    return _int(expr, bindings, term_defs, env, live)


def _lookup(name, bindings, term_defs, env, live):
    if name in bindings:
        value = bindings[name]
        return value if isinstance(value, np.ndarray) else int(value)
    key = name if name.startswith("@") else "@" + name
    if key in term_defs:
        return _int(term_defs[key][0], bindings, term_defs, env, live)
    form = env.get(name)
    if form is not None and name not in form.terms:
        # an iterator maps to its own term: only its binding resolves it
        return _affine(form, bindings, term_defs, env, live)
    raise KeyError(name)


def _affine(form: AffineExpr, bindings, term_defs, env, live=None):
    """An affine form's value, its quasi-affine terms evaluated."""
    total = form.const
    for name, coeff in form.terms.items():
        value = bindings.get(name)
        if value is None:
            value = _lookup(name, bindings, term_defs, env, live)
        # Not ``+=``: an in-place add cannot widen to a broadcast shape.
        total = total + coeff * value
    return total


def _truth(cond, points, term_defs, env, live):
    """``(taken, known)`` of a guard at the live points: following C's
    ``&&``, ``||`` and ``!`` in order, a point is unknown only where an
    operand it reaches cannot be evaluated."""
    if isinstance(cond, Unary) and cond.op == "!":
        taken, known = _truth(cond.operand, points, term_defs, env, live)
        return known & ~taken, known
    if isinstance(cond, Binary) and cond.op in ("&&", "||"):
        taken, known = _truth(cond.left, points, term_defs, env, live)
        open_ = known & (taken if cond.op == "&&" else ~taken)
        r_taken, r_known = (_truth(cond.right, points, term_defs, env,
                                   live & open_)
                            if (live & open_).any() else (open_, open_))
        if cond.op == "&&":
            return taken & r_taken, known & (~taken | r_known)
        return known & (taken | r_taken), known & (taken | r_known)
    try:
        value = _int(cond, points, term_defs, env, live)
    except (KeyError, ZeroDivisionError):
        return np.zeros(live.shape, bool), np.zeros(live.shape, bool)
    return np.broadcast_to(value != 0, live.shape), np.ones(live.shape, bool)


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
            return math.gcd(left, right)
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
        start = self._try_affine(stmt.start())
        step = _loop_step(stmt, name)
        bound = _loop_bound(stmt, name, self._try_affine)
        saved = self._env.get(name)
        self._env[name] = AffineExpr.term(name)
        start_align = 1 << 20
        if start is not None and start.is_constant:
            start_align = abs(start.const) if start.const else 1 << 20
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
