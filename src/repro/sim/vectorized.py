"""Warp-vectorized execution backend: all threads of a launch as NumPy lanes.

The lockstep interpreter (:mod:`repro.sim.interp`) runs the kernel once
per simulated thread — ~65k times for a 256-thread block over a 16x16
grid.  But the kernels this compiler produces have exactly the structure
the paper's Section 4 describes: within a barrier phase every thread
executes the same straight-line statements over affine index lanes.  This
backend evaluates every statement for *all* threads of the launch at
once, one lane per thread.

Like :mod:`repro.sim.core`, a launch **lowers** the kernel once to
closures — here ``f(mask)`` — with each array name resolved to its
storage slot, each operator picked from a table and ranks checked, so
executing a statement walks no AST.  Values and masks have the two
representations of :mod:`repro.sim.lanes` (DESIGN.md §5.3):

* a value equal on every lane stays a Python scalar, computed by the
  scalar table; only thread-varying values are ``N``-lane arrays.  A
  uniform condition takes one branch under the unchanged mask, and a
  variable assigned under a mask narrower than the launch becomes varying
  at that store — which is how a ragged loop's iterator leaves the
  uniform world.  Nothing is proved statically;
* the mask of the whole launch is the sentinel ``None``, under which
  bounds checks, binds, scatters, barriers and step accounting skip it.

Control flow is masked select: ``if`` runs both branches under
complementary masks; per-lane short-circuit masks keep ``&&`` / ``||`` /
``?:`` from evaluating guarded divisions or out-of-bounds loads;
``for``/``while`` iterate with a per-lane live mask, so ragged loops
work; ``__syncthreads()`` moves no data (statement-at-a-time execution
makes every store visible at once) but *checks* the mask — a barrier
reached by a strict subset of a block's lanes raises the lockstep
scheduler's :class:`~repro.sim.interp.BarrierError`.

Bit-exactness with lockstep is a hard contract (the cross-backend
differential suite and ``fuzz --backend both`` enforce it): float locals
are ``float64`` (lockstep computes in Python ``float`` and narrows to
``float32`` only at array stores); ``/`` and ``%`` are
:mod:`repro.lang.arith`'s, faulting only on active lanes; the
transcendentals call ``math.*`` per active lane.  Varying integers are
``int64`` and wrap where Python ints grow without bound.

``unsupported_reasons`` classifies the two constructs a phase-sliced
evaluator cannot reproduce — barriers under ``if`` guards (lockstep
synchronizes by barrier *count*, not site, so divergent sites can
legally pair up) and barrier-stepped loops with thread- or
data-dependent bounds.  ``auto`` (:mod:`repro.sim.backend`) falls back
to lockstep on those; ``vectorized`` raises
:class:`UnsupportedKernelError`.

For *racy* kernels (same-phase conflicting accesses, which the verifier
reports and the paper's transforms never emit) the two backends may
legitimately differ — lockstep runs each thread of a phase to completion
in thread order, this backend interleaves at statement granularity — so
the differential harness only compares verifier-clean kernels.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy import ndarray

from repro.lang.astnodes import (
    ArrayRef,
    AssignStmt,
    DeclStmt,
    Expr,
    ForStmt,
    Ident,
    Kernel,
    Member,
    ReturnStmt,
    WhileStmt,
    early_returns,
    walk_exprs,
    walk_stmts,
)
from repro.lang.builtins import BUILTIN_FUNCTIONS
from repro.sim.core import MAX_STEPS_DEFAULT, NodeLowering
from repro.sim.interp import BarrierError, KernelRuntimeError, LaunchConfig
from repro.sim.lanes import (
    CASTS,
    LANE_BINARY,
    LANE_CALLS,
    LANE_UNARY,
    LaneVec,
    Mask,
    Value,
    active,
    as_float,
    as_int,
    flag,
    narrow,
    truth,
)
from repro.sim.phases import PhaseSlicing, slice_phases
from repro.sim.values import BINARY_OPS, UNARY_OPS

__all__ = ["UnsupportedKernelError", "VectorizedInterpreter",
           "unsupported_reasons"]

#: Identifiers whose value differs between threads of one launch.
_THREAD_IDS = frozenset(("tidx", "tidy", "bidx", "bidy", "idx", "idy"))


class UnsupportedKernelError(Exception):
    """The kernel uses constructs the vectorized backend cannot run.

    Carries the classified reasons so ``auto`` dispatch can log why it
    fell back to the lockstep interpreter.
    """

    def __init__(self, kernel_name: str, reasons: Sequence[str]):
        self.kernel_name = kernel_name
        self.reasons = list(reasons)
        super().__init__(
            f"kernel {kernel_name!r} is not vectorizable: "
            + "; ".join(self.reasons))


def _loop_bound_exprs(loop) -> List[Expr]:
    """Every expression that decides how often a loop iterates."""
    out: List[Expr] = []
    if isinstance(loop, ForStmt):
        out.extend(e for e in (loop.start(), loop.cond) if e is not None)
        if isinstance(loop.update, AssignStmt):
            out.append(loop.update.value)
    elif isinstance(loop, WhileStmt):
        out.append(loop.cond)
    return out


def unsupported_reasons(kernel: Kernel,
                        slicing: Optional[PhaseSlicing] = None) -> List[str]:
    """Why ``kernel`` cannot run on the vectorized backend ([] = it can).

    The check is static and conservative, driven by the shared phase
    slicing's barrier inventory: a conditional barrier, or a barrier
    inside a loop whose bounds depend on thread ids, locals, or memory,
    would need the lockstep scheduler's count-based synchronization.
    An early ``return`` is refused here as on every backend.
    """
    if slicing is None:
        slicing = slice_phases(kernel)
    scalar_params = {p.name for p in kernel.scalar_params()}
    uniform = scalar_params | {"bdimx", "bdimy", "gdimx", "gdimy"}
    reasons: List[str] = []
    if early_returns(kernel):
        reasons.append("'return' before the end of the kernel body: no "
                       "backend models a thread leaving early")
    for site in slicing.barriers:
        if site.conditional:
            reasons.append(
                f"__sync{'threads' if site.stmt.scope == 'block' else ''} "
                f"under {len(site.guards)} if-guard(s): conditional "
                f"barriers synchronize by count, not site")
            continue
        iterators = set()
        for loop in site.loops:
            name = loop.iter_name() if isinstance(loop, ForStmt) else None
            for expr in _loop_bound_exprs(loop):
                for e in walk_exprs(expr):
                    if isinstance(e, ArrayRef):
                        reasons.append(
                            f"barrier inside a loop with memory-dependent "
                            f"bound ({e.base.name}[...])")
                        break
                    if isinstance(e, Ident) and e.name not in uniform \
                            and e.name not in iterators \
                            and e.name != name:
                        kind = ("thread-dependent"
                                if e.name in _THREAD_IDS else "local")
                        reasons.append(
                            f"barrier inside a loop whose bound reads "
                            f"{kind} variable {e.name!r}")
                        break
                else:
                    continue
                break
            if name is not None:
                iterators.add(name)
    return list(dict.fromkeys(reasons))    # first of each, in order


#: What an expression or statement lowers to.
Node = Callable[[Mask], Value]


class _SpaceView:
    """One array's storage slot plus the per-lane leading index (if any).

    Global arrays are shared by every lane (no leading index); shared
    arrays carry a per-lane *block* index; local arrays a per-lane
    *thread* index.  Loads/stores fancy-index with the lead prepended.
    A declared array has no storage (``dims is None``) until its
    declaration executes.
    """

    __slots__ = ("space", "array", "lead", "lanes", "rank", "dims",
                 "integral")

    def __init__(self, space: str, lead, lanes: int, rank: int,
                 integral: bool):
        self.space = space
        self.lead = lead
        self.lanes = lanes
        self.rank = rank
        self.integral = integral
        self.array: Optional[ndarray] = None
        self.dims: Optional[Tuple[int, ...]] = None     # logical extents


def _uniform(value: Value, mask: Mask, what: str) -> int:
    """A value that must agree across the active lanes."""
    if type(value) is LaneVec:
        raise KernelRuntimeError(f"vector value used as {what}")
    if type(value) is ndarray:
        lanes = active(value, mask)
        if (lanes != lanes[0]).any():
            raise KernelRuntimeError(
                f"{what} differs between threads of the launch")
        return int(lanes[0])
    return int(value)


def _scatter(view: _SpaceView, sel: tuple, payload, mask: Mask) -> None:
    """Store ``payload`` at ``sel`` (lead included) for the active lanes."""
    if mask is not None:
        sel = tuple(s[mask] if type(s) is ndarray else s for s in sel)
        if type(payload) is ndarray:
            payload = payload[mask]
    if type(payload) is ndarray \
            and not any(type(s) is ndarray for s in sel):
        # Every active lane stores to one cell: the last wins, as it
        # does when lockstep runs the threads in lane order.
        payload = payload[-1]
    view.array[sel] = payload


class _Lowering(NodeLowering):
    """One kernel -> closures ``f(mask)``, over one launch's lanes, arrays,
    scalars, hooks and step budget."""

    def __init__(self, kernel: Kernel, config: LaunchConfig,
                 arrays: Dict[str, ndarray], scalars: Dict[str, object],
                 max_steps: int, profile):
        gx, gy = config.grid
        bx, by = config.block
        n = self.n = config.total_threads
        self.steps = 0
        self._max_steps = max_steps
        self._profile = profile
        self._every_lane = np.ones(n, dtype=bool)   # the sentinel, spelt out

        # Lane order is (bidy, bidx, tidy, tidx), the same nesting order
        # the lockstep interpreter spawns threads in.  An id whose extent
        # is 1 is zero on every lane: uniform.
        shape = (gy, gx, by, bx)

        def coordinate(axis: int):
            if shape[axis] == 1:
                return 0
            index = np.arange(shape[axis], dtype=np.int64)
            index.shape = tuple(-1 if a == axis else 1 for a in range(4))
            return np.broadcast_to(index, shape).reshape(n)
        bidy, bidx, tidy, tidx = map(coordinate, range(4))
        lane = np.arange(n, dtype=np.int64)
        self._n_blocks = gx * gy
        self._block_of = np.repeat(
            np.arange(self._n_blocks, dtype=np.int64), bx * by)

        # Declared type of each scalar name, as of the statement being
        # lowered: a store casts to it, whatever value the name holds.
        self._declared: Dict[str, str] = {}
        env: Dict[str, Value] = {}
        for p in kernel.scalar_params():
            if p.name not in scalars:
                raise KeyError(f"missing scalar argument {p.name!r}")
            self._declared[p.name] = p.type.name
            env[p.name] = CASTS[p.type.name](scalars[p.name])
        env.update(tidx=tidx, tidy=tidy, bidx=bidx, bidy=bidy,
                   idx=bidx * bx + tidx, idy=bidy * by + tidy,
                   bdimx=bx, bdimy=by, gdimx=gx, gdimy=gy)
        self._env = env

        self._views: Dict[str, _SpaceView] = {}
        for p in kernel.array_params():
            if p.name not in arrays:
                raise KeyError(f"missing array argument {p.name!r}")
            array = np.asarray(arrays[p.name])
            lanes = p.type.lanes
            dims = array.shape[:-1] if lanes > 1 else array.shape
            view = _SpaceView("global", None, lanes, len(dims),
                              array.dtype.kind == "i")
            view.array, view.dims = array, dims
            self._views[p.name] = view
        shared_lead = self._block_of if self._n_blocks > 1 else 0
        for s in walk_stmts(kernel.body):
            if isinstance(s, DeclStmt) and s.is_array:
                self._views[s.name] = _SpaceView(
                    "shared" if s.shared else "local",
                    shared_lead if s.shared else lane,
                    s.type.lanes, len(s.dims), s.type.name == "int")

    def _full(self, value) -> ndarray:
        """A uniform value on every lane (lane arrays pass through)."""
        return value if type(value) is ndarray else np.full(self.n, value)

    def _lanes_of(self, mask: Mask) -> ndarray:
        """``mask`` as the array the profiler's hooks take."""
        return self._every_lane if mask is None else mask

    def _spend(self, statements: int, mask: Mask) -> None:
        # Count per-lane statements and loop back-edges so runaway loops
        # trip the same cap as the scalar core's per-thread accounting.
        self.steps += statements * (self.n if mask is None
                                    else int(np.count_nonzero(mask)))
        if self.steps > self._max_steps:
            raise KernelRuntimeError(
                f"kernel exceeded {self._max_steps} simulated statements")

    # -- expressions ---------------------------------------------------------

    def _expr_IntLit(self, e) -> Node:
        value = e.value
        return lambda mask: value

    _expr_FloatLit = _expr_IntLit

    def _expr_Ident(self, e) -> Node:
        env, name = self._env, e.name

        def load(mask):
            try:
                return env[name]
            except KeyError:
                raise KernelRuntimeError(
                    f"use of undefined variable {name!r}") from None
        return load

    def _expr_Member(self, e) -> Node:
        base, member = self.expr(e.base), e.member
        lane = "xyzw".index(member)

        def select(mask):
            vec = base(mask)
            if type(vec) is not LaneVec:
                raise KernelRuntimeError(
                    f"member .{member} of non-vector value")
            if lane >= vec.lanes:
                raise KernelRuntimeError(
                    f"member .{member} of float{vec.lanes} value")
            return vec.data[:, lane].copy()
        return select

    def _expr_Unary(self, e) -> Node:
        operand = self.expr(e.operand)
        scalar = self._op(UNARY_OPS, e.op)
        lanes = LANE_UNARY.get(e.op, scalar)

        def unary(mask):
            value = operand(mask)
            if type(value) is ndarray:
                return lanes(value)
            if type(value) is LaneVec:
                raise KernelRuntimeError(
                    f"unary {e.op!r} of a vector value")
            return scalar(value)
        return unary

    def _operator(self, op: str) -> Callable[[Value, Value, Mask], Value]:
        """A strict binary operator as ``apply(a, b, mask)``: the scalar
        table on two uniform operands, lane arithmetic otherwise."""
        scalar = self._op(BINARY_OPS, op)
        lanes = LANE_BINARY.get(op, scalar)
        divides = op in ("/", "%")

        def apply(a, b, mask):
            ta, tb = type(a), type(b)
            if ta is LaneVec or tb is LaneVec:
                raise KernelRuntimeError(
                    f"operator {op!r} is not defined on vector values")
            if ta is ndarray or tb is ndarray:
                if divides and mask is not None and tb is ndarray:
                    # Only an active lane's zero divisor is a fault.
                    b = np.where(mask, b, 1)
                return lanes(a, b)
            return scalar(a, b)
        return apply

    def _expr_Binary(self, e) -> Node:
        left, right = self.expr(e.left), self.expr(e.right)
        if e.op in ("&&", "||"):
            return self._logical(e.op == "&&", left, right)
        apply = self._operator(e.op)
        return lambda mask: apply(left(mask), right(mask), mask)

    @staticmethod
    def _logical(conj: bool, left: Node, right: Node) -> Node:
        """``&&`` / ``||``: the right side is evaluated only on the lanes
        the left side did not already decide."""
        def logical(mask):
            a = truth(left(mask))
            if type(a) is not ndarray:
                return flag(truth(right(mask))) if a == conj else int(a)
            need = narrow(mask, a if conj else ~a)
            if need is None:
                return flag(truth(right(None)))
            if need is False:
                return a.astype(np.int64)
            b = need & truth(right(need))
            return (b if conj else a | b).astype(np.int64)
        return logical

    def _expr_Ternary(self, e) -> Node:
        cond, then, other = map(self.expr, (e.cond, e.then, e.otherwise))

        def select(mask):
            c = truth(cond(mask))
            if type(c) is not ndarray:
                return then(mask) if c else other(mask)
            # Each arm is evaluated only where it is taken.
            taken = narrow(mask, c)
            if taken is None or taken is False:
                return other(mask) if taken is False else then(None)
            rest = narrow(mask, ~c)
            if rest is False:
                return then(taken)
            tv, ov = then(taken), other(rest)
            if type(tv) is LaneVec or type(ov) is LaneVec:
                if not (type(tv) is type(ov) and tv.lanes == ov.lanes):
                    raise KernelRuntimeError(
                        "ternary arms mix vector and scalar values")
                return LaneVec(np.where(taken[:, None], tv.data, ov.data))
            return np.where(taken, tv, ov)
        return select

    def _expr_Call(self, e) -> Node:
        name = e.name
        args = [self.expr(a) for a in e.args]
        if name in ("make_float2", "make_float4"):
            if len(args) != int(name[-1]):
                raise KernelRuntimeError(
                    f"{name} takes {name[-1]} arguments, got {len(args)}")
            full = self._full
            return lambda mask: LaneVec(np.stack(
                [as_float(full(a(mask))) for a in args], axis=1))
        scalar, lanes = BUILTIN_FUNCTIONS.get(name), LANE_CALLS.get(name)
        if scalar is None or lanes is None:
            raise KernelRuntimeError(f"unknown function {name!r}")

        def call(mask):
            values = [a(mask) for a in args]
            kinds = [type(v) for v in values]
            if LaneVec in kinds:
                raise KernelRuntimeError(f"{name}() of a vector value")
            return lanes(values, mask) if ndarray in kinds \
                else scalar(*values)
        return call

    # -- memory --------------------------------------------------------------

    def _resolve(self, ref: ArrayRef) -> Tuple[_SpaceView, Callable]:
        """``ref``'s slot and ``resolve(mask, is_store)``: the checked
        subscripts as a fancy index, lead included.

        Every active lane's subscript is bounds-checked per dimension; an
        inactive lane's is clamped so the full-width gather is safe.
        """
        name = ref.base.name
        view = self._views.get(name)
        if view is None:
            raise KernelRuntimeError(f"reference to unknown array {name!r}")
        subs = [self.expr(i) for i in ref.indices]
        if len(subs) != view.rank:
            raise IndexError(
                f"{view.space} array {name!r} has rank {view.rank}, "
                f"got {len(subs)} indices")
        lead = () if view.lead is None else (view.lead,)
        observe = self._observe \
            if self._profile is not None and view.space != "local" else None

        def out_of_range(ix, ext, dim):
            return IndexError(
                f"{view.space} array {name!r} index {ix} out of "
                f"range [0, {ext}) in dimension {dim}")

        def resolve(mask, is_store):
            dims = view.dims
            if dims is None:    # declared, but the declaration never ran
                raise KernelRuntimeError(
                    f"reference to unknown array {name!r}")
            sel = lead
            for dim, sub in enumerate(subs):
                ix, ext = as_int(sub(mask)), dims[dim]
                if type(ix) is ndarray:
                    if ix.min() < 0 or ix.max() >= ext:
                        bad = (ix < 0) | (ix >= ext)
                        faults = bad if mask is None else bad & mask
                        if faults.any():
                            raise out_of_range(int(ix[np.argmax(faults)]),
                                               ext, dim)
                        ix = np.where(bad, 0, ix)
                elif not 0 <= ix < ext:
                    raise out_of_range(ix, ext, dim)
                sel += (ix,)
            if observe is not None:
                observe(view, ref, sel[len(lead):], mask, is_store)
            return sel
        return view, resolve

    def _observe(self, view: _SpaceView, ref: ArrayRef, indices: tuple,
                 mask: Mask, is_store: bool) -> None:
        """Feed one masked access to the profiler (global/shared only).

        Addresses are row-major linear *element* indices over the array's
        logical dims, matching the lockstep memory stores'
        ``linear_address`` so cross-backend counters agree exactly.
        """
        addr = 0
        for ix, ext in zip(indices, view.dims):
            addr = addr * ext + ix
        self._profile.access_lanes(view.space, ref.base.name,
                                   self._full(addr), self._lanes_of(mask),
                                   is_store, ref)

    def _expr_ArrayRef(self, e) -> Node:
        view, resolve = self._resolve(e)
        n = self.n
        dtype = np.int64 if view.integral else np.float64

        def load(mask):
            data = view.array[resolve(mask, False)]
            if view.lanes > 1:
                if data.ndim == 1:      # one cell, read by every lane
                    data = np.tile(data, (n, 1))
                return LaneVec(data.astype(np.float64))
            # All-uniform subscripts without a lead read one cell.
            return data.astype(dtype) if type(data) is ndarray \
                else data.item()
        return load

    def _bind(self, name: str, value: Value, mask: Mask) -> None:
        """(Re)bind ``name`` for the active lanes, keeping others' values.

        Scalar lanes in the environment are never written in place, so
        values may share them freely; a vector owns its array (member
        stores write into it)."""
        env = self._env
        if type(value) is LaneVec:
            old = env.get(name)
            if mask is None:
                env[name] = LaneVec(value.data.copy())
            elif type(old) is LaneVec and old.lanes == value.lanes:
                old.data[mask] = value.data[mask]
            else:
                env[name] = LaneVec(np.where(mask[:, None], value.data, 0.0))
        elif mask is None:
            env[name] = value
        else:
            # Under a narrower mask even a uniform value becomes varying.
            old = env.get(name, 0)
            env[name] = np.where(mask, value,
                                 0 if type(old) is LaneVec else old)

    def _store(self, target: Expr, value: Node) -> Node:
        env = self._env
        if isinstance(target, Ident):
            name, bind = target.name, self._bind
            cast = CASTS.get(self._declared.get(name, "int"))

            def assign(mask):
                v = value(mask)
                if name not in env:
                    raise KernelRuntimeError(
                        f"store to undeclared variable {name!r}")
                bind(name, v if cast is None else cast(v), mask)
            return assign
        if isinstance(target, ArrayRef):
            view, resolve = self._resolve(target)
            name = target.base.name

            def store(mask):
                v = value(mask)
                got = v.lanes if type(v) is LaneVec else 1
                if got != view.lanes:
                    raise TypeError(
                        f"cannot store {f'float{got}' if got > 1 else 'scalar'}"
                        f" into {view.lanes}-lane array {name!r}")
                _scatter(view, resolve(mask, True),
                         v.data if got > 1 else v, mask)
            return store
        if isinstance(target, Member):
            base, member = target.base, target.member
            lane = "xyzw".index(member)
            if isinstance(base, Ident):
                name = base.name

                def set_member(mask):
                    v = as_float(value(mask))
                    vec = env.get(name)
                    if type(vec) is not LaneVec:
                        raise KernelRuntimeError(
                            f"member store to non-vector {name!r}")
                    if mask is None:
                        vec.data[:, lane] = v
                    else:
                        vec.data[mask, lane] = active(v, mask) \
                            if type(v) is ndarray else v
                return set_member
            if isinstance(base, ArrayRef):
                view, resolve = self._resolve(base)
                if view.lanes <= lane:
                    raise KernelRuntimeError(
                        f"member store .{member} to {view.lanes}-lane "
                        f"array {base.name!r}")

                def store_member(mask):
                    v = as_float(value(mask))
                    _scatter(view, resolve(mask, True) + (lane,), v, mask)
                return store_member
        raise KernelRuntimeError(f"invalid store target {target!r}")

    # -- statements ----------------------------------------------------------

    def _chain(self, parts: Sequence[Node], cost: int) -> Node:
        """Run ``parts`` in order, charging ``cost`` statements per active
        lane on entry (no statement can leave a body early, and the mask
        cannot change inside one)."""
        spend = self._spend

        def run(mask):
            spend(cost, mask)
            for part in parts:
                part(mask)
        return run

    def _stmt_DeclStmt(self, s) -> Node:
        name, type_name, bind = s.name, s.type.name, self._bind
        if s.is_array:
            return self._declare_array(s)
        self._declared[name] = type_name
        init = self.expr(s.init) if s.init is not None else None
        if type_name in CASTS:
            cast, zero = CASTS[type_name], CASTS[type_name](0)
            if init is None:
                return lambda mask: bind(name, zero, mask)
            return lambda mask: bind(name, cast(init(mask)), mask)
        n, lanes = self.n, s.type.lanes

        def declare(mask):
            value = init(mask) if init is not None \
                else LaneVec(np.zeros((n, lanes)))
            if type(value) is not LaneVec:
                raise KernelRuntimeError(
                    f"cannot initialize {type_name} from a scalar lane value")
            bind(name, value, mask)
        return declare

    def _declare_array(self, s: DeclStmt) -> Node:
        env, view = self._env, self._views[s.name]
        shared = s.shared
        rows = self._n_blocks if shared else self.n
        tail = (s.type.lanes,) if s.type.lanes > 1 else ()
        dtype = np.int32 if s.type.name == "int" else np.float32

        def declare(mask):
            dims = tuple(d if isinstance(d, int)
                         else _uniform(env[d], mask, f"extent {d!r}")
                         for d in s.dims)
            shape = (rows,) + dims + tail
            if view.array is None \
                    or not shared and view.array.shape != shape:
                # Shared: one allocation per block, zeroed once (the
                # lockstep interpreter allocates on first execution and
                # reuses).
                view.array, view.dims = np.zeros(shape, dtype), dims
            elif not shared:
                # Re-executed declaration (e.g. inside a loop body)
                # re-zeroes the active lanes' copies.
                view.array[slice(None) if mask is None else mask] = 0
        return declare

    def _stmt_AssignStmt(self, s) -> Node:
        value = self.expr(s.value)
        if s.op == "=":
            return self._store(s.target, value)
        apply, current = self._operator(s.op[:-1]), self.expr(s.target)

        def combined(mask):
            v = value(mask)
            return apply(current(mask), v, mask)
        return self._store(s.target, combined)

    def _stmt_SyncStmt(self, s) -> Node:
        """Check barrier convergence; data is already visible (no-op)."""
        profile, lanes_of = self._profile, self._lanes_of
        block_of, n_blocks = self._block_of, self._n_blocks
        per_block = self.n // n_blocks

        def barrier(mask):
            if profile is not None:
                profile.sync_lanes(lanes_of(mask))
            if mask is None or mask.all():
                return
            if s.scope == "global":
                raise BarrierError(
                    f"{int((~mask).sum())} thread(s) missed a __global_sync "
                    f"other threads reached")
            # Block scope: every block must arrive all-or-none.
            arrived = np.bincount(block_of[mask], minlength=n_blocks)
            partial = np.nonzero((arrived != 0) & (arrived != per_block))[0]
            if partial.size:
                b = int(partial[0])
                raise BarrierError(
                    f"block {b}: threads diverged at a barrier "
                    f"({int(arrived[b])}/{per_block} arrived)")
        return barrier

    def _stmt_IfStmt(self, s) -> Node:
        cond, then = self.expr(s.cond), self.body(s.then_body)
        other = self.body(s.else_body) if s.else_body else None
        profile, lanes_of, full = self._profile, self._lanes_of, self._full

        def branch(mask):
            c = truth(cond(mask))
            if profile is not None:
                profile.branch_lanes(s, lanes_of(mask), full(c))
            if type(c) is not ndarray:
                # A uniform condition: one branch, the mask unchanged.
                if c:
                    then(mask)
                elif other is not None:
                    other(mask)
                return
            taken = narrow(mask, c)
            if taken is not False:
                then(taken)
            if other is not None and taken is not None:
                rest = mask if taken is False else narrow(mask, ~c)
                if rest is not False:
                    other(rest)
        return branch

    @staticmethod
    def _loop(cond: Node, body: Node) -> Node:
        """``while (cond) body`` over a per-lane live mask — ``body``
        already pays the back-edge.  Lanes drop out as their condition
        goes false; a uniform condition keeps or ends them all."""
        def loop(mask):
            live = mask
            while True:
                c = truth(cond(live))
                if type(c) is ndarray:
                    live = narrow(live, c)
                    if live is False:
                        return
                elif not c:
                    return
                body(live)
        return loop


class VectorizedInterpreter:
    """Executes one kernel with all launch threads as NumPy lanes.

    API-compatible with :class:`repro.sim.interp.Interpreter` for the
    supported kernel class; construction is cheap, and
    ``unsupported_reasons`` can be inspected before :meth:`run`.
    """

    def __init__(self, kernel: Kernel, trace=None,
                 max_steps: int = MAX_STEPS_DEFAULT, profile=None):
        if trace is not None:
            raise UnsupportedKernelError(
                kernel.name, ["per-access trace hooks need per-thread "
                              "execution order; use the lockstep backend"])
        self._kernel = kernel
        self._profile = profile    # repro.obs.profile.ProfileCollector
        self._max_steps = max_steps
        self._steps = 0     # per-lane statements the last run was charged
        self._slicing = slice_phases(kernel)
        self.unsupported_reasons = unsupported_reasons(kernel, self._slicing)

    def run(self, config: LaunchConfig, arrays: Dict[str, ndarray],
            scalars: Optional[Dict[str, object]] = None) -> None:
        """Execute the kernel; ``arrays`` are mutated in place."""
        if self.unsupported_reasons:
            raise UnsupportedKernelError(self._kernel.name,
                                         self.unsupported_reasons)
        lowering = _Lowering(self._kernel, config, arrays,
                             dict(scalars or {}), self._max_steps,
                             self._profile)
        body = self._kernel.body
        if body and isinstance(body[-1], ReturnStmt):
            body = body[:-1]    # the one supported form: end of kernel
        try:
            lowering.body(body)(None)
        finally:
            self._steps = lowering.steps
