"""Warp-vectorized execution backend: all threads of a launch as NumPy lanes.

The lockstep interpreter (:mod:`repro.sim.interp`) walks the kernel AST
once per simulated thread — a 256-thread block over a 16x16 grid walks it
~65k times per launch.  But the kernels this compiler produces have
exactly the structure the paper's Section 4 describes: within a barrier
phase every thread executes the same straight-line statements over affine
index lanes.  This backend exploits that: it slices the kernel into
barrier phases once (:mod:`repro.sim.phases`, the same slicing the race
detector uses) and evaluates every statement for *all* threads of the
launch simultaneously as flat lane vectors —

* ``idx``/``idy``/``tidx``/``bidx``/... become ``int64`` index vectors of
  length ``N`` (one lane per thread of the whole launch);
* ``if`` becomes masked select: both branches execute under complementary
  lane masks, and per-lane short-circuit masks keep ``&&``/``||``/``?:``
  from evaluating guarded divisions or out-of-bounds loads, exactly like
  the lockstep interpreter's per-thread short circuits;
* ``for``/``while`` iterate with a per-lane live mask — lanes drop out as
  their condition goes false, so ragged (thread-dependent) loops work;
* ``__syncthreads()`` is a no-op for data (statement-at-a-time execution
  makes every store visible immediately) but *checks* the mask: an
  unconditional barrier reached by a strict subset of a block's lanes is
  the same divergence the lockstep scheduler reports, and raises the same
  :class:`~repro.sim.interp.BarrierError`.

Bit-exactness with lockstep is a hard contract (the cross-backend
differential suite and ``fuzz --backend both`` enforce it):

* float locals are ``float64`` lanes — the lockstep interpreter computes
  in Python ``float`` (an IEEE double) and only narrows to ``float32`` at
  array stores, so this backend does the same;
* integer division/modulo truncate toward zero (:func:`repro.sim.values.
  c_div` semantics) and raise ``ZeroDivisionError`` only for lanes that
  are actually active;
* ``sinf``/``cosf``/``expf``/``logf`` call ``math.*`` per active lane:
  NumPy's vectorized transcendentals may differ from libm in the last
  ulp, and the contract is bit-identical outputs, not "close".

Not every kernel is vectorizable this way.  ``unsupported_reasons``
classifies the two constructs whose lockstep semantics a phase-sliced
evaluator cannot reproduce — barriers under ``if`` guards (the lockstep
scheduler synchronizes threads by barrier *count*, not site, so divergent
sites can legally pair up) and barrier-stepped loops with thread- or
data-dependent bounds.  The ``auto`` backend in :mod:`repro.sim.backend`
falls back to lockstep on those; requesting ``vectorized`` explicitly
raises :class:`UnsupportedKernelError`.

Scope note: for *racy* kernels (same-phase conflicting accesses, which
the static verifier reports and the paper's transforms never emit) the
two backends may legitimately differ — lockstep runs each thread of a
phase to completion in thread order, while this backend interleaves at
statement granularity.  The differential harness therefore only compares
backends on verifier-clean kernels.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.lang.astnodes import (
    ArrayRef,
    AssignStmt,
    Binary,
    Block,
    Call,
    DeclStmt,
    Expr,
    ExprStmt,
    FloatLit,
    ForStmt,
    Ident,
    IfStmt,
    IntLit,
    Kernel,
    Member,
    ReturnStmt,
    Stmt,
    SyncStmt,
    Ternary,
    Unary,
    WhileStmt,
    early_returns,
    walk_exprs,
)
from repro.lang.builtins import BUILTIN_FUNCTIONS
from repro.sim.core import MAX_STEPS_DEFAULT
from repro.sim.interp import BarrierError, KernelRuntimeError, LaunchConfig
from repro.sim.phases import PhaseSlicing, slice_phases

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
        if isinstance(loop.init, DeclStmt) and loop.init.init is not None:
            out.append(loop.init.init)
        elif isinstance(loop.init, AssignStmt):
            out.append(loop.init.value)
        if loop.cond is not None:
            out.append(loop.cond)
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
    # Deduplicate while preserving order.
    seen = set()
    out = []
    for r in reasons:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


class _LaneVec:
    """A float2/float4 value for every lane: an ``(N, lanes)`` array."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = data

    @property
    def lanes(self) -> int:
        return self.data.shape[1]

    def member(self, name: str) -> np.ndarray:
        return self.data[:, "xyzw".index(name)].copy()

    def copy(self) -> "_LaneVec":
        return _LaneVec(self.data.copy())


LaneValue = Union[np.ndarray, _LaneVec]


class _SpaceView:
    """One array's storage plus the per-lane leading index (if any).

    Global arrays are shared by every lane (no leading index); shared
    arrays carry a per-lane *block* index; local arrays a per-lane
    *thread* index.  Loads/stores fancy-index with the lead prepended.
    """

    __slots__ = ("space", "array", "lead", "lanes")

    def __init__(self, space: str, array: np.ndarray,
                 lead: Optional[np.ndarray], lanes: int):
        self.space = space
        self.array = array
        self.lead = lead
        self.lanes = lanes

    def dims(self) -> Tuple[int, ...]:
        shape = self.array.shape
        if self.lead is not None:
            shape = shape[1:]
        return shape[:-1] if self.lanes > 1 else shape


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
        self._steps = 0
        self._slicing = slice_phases(kernel)
        self.unsupported_reasons = unsupported_reasons(kernel, self._slicing)

    # -- public API ----------------------------------------------------------

    def run(self, config: LaunchConfig, arrays: Dict[str, np.ndarray],
            scalars: Optional[Dict[str, object]] = None) -> None:
        """Execute the kernel; ``arrays`` are mutated in place."""
        if self.unsupported_reasons:
            raise UnsupportedKernelError(self._kernel.name,
                                         self.unsupported_reasons)
        scalars = dict(scalars or {})
        gx, gy = config.grid
        bx, by = config.block
        n = config.total_threads
        self._n = n
        self._steps = 0

        # Lane id vectors: lane order is (bidy, bidx, tidy, tidx), the same
        # nesting order the lockstep interpreter spawns threads in.
        lane = np.arange(n, dtype=np.int64)
        tidx = lane % bx
        tidy = (lane // bx) % by
        bidx = (lane // (bx * by)) % gx
        bidy = lane // (bx * by * gx)
        self._block_of = bidy * gx + bidx       # shared-memory lead index
        self._n_blocks = gx * gy
        self._lane = lane                        # local-array lead index

        env: Dict[str, LaneValue] = {}
        for p in self._kernel.scalar_params():
            if p.name not in scalars:
                raise KeyError(f"missing scalar argument {p.name!r}")
            value = scalars[p.name]
            dtype = np.int64 if p.type.name == "int" else np.float64
            env[p.name] = np.full(n, value, dtype=dtype)
        ids = {"tidx": tidx, "tidy": tidy, "bidx": bidx, "bidy": bidy,
               "idx": bidx * bx + tidx, "idy": bidy * by + tidy,
               "bdimx": np.full(n, bx, np.int64),
               "bdimy": np.full(n, by, np.int64),
               "gdimx": np.full(n, gx, np.int64),
               "gdimy": np.full(n, gy, np.int64)}
        env.update(ids)
        self._env = env

        self._global: Dict[str, _SpaceView] = {}
        for p in self._kernel.array_params():
            if p.name not in arrays:
                raise KeyError(f"missing array argument {p.name!r}")
            self._global[p.name] = _SpaceView("global", arrays[p.name],
                                              None, p.type.lanes)
        self._shared: Dict[str, _SpaceView] = {}
        self._local: Dict[str, _SpaceView] = {}

        mask = np.ones(n, dtype=bool)
        body = self._kernel.body
        if body and isinstance(body[-1], ReturnStmt):
            body = body[:-1]    # the one supported form: end of kernel
        self._exec_stmts(body, mask)

    # -- statements -----------------------------------------------------------

    def _exec_stmts(self, stmts: Sequence[Stmt], mask: np.ndarray) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, mask)

    def _count_step(self, mask: np.ndarray) -> None:
        # Count per-lane statements and loop back-edges so runaway loops
        # trip the same cap as the scalar core's per-thread accounting.
        self._steps += np.count_nonzero(mask)
        if self._steps > self._max_steps:
            raise KernelRuntimeError(
                f"kernel exceeded {self._max_steps} simulated statements")

    def _exec_stmt(self, stmt: Stmt, mask: np.ndarray) -> None:
        self._count_step(mask)
        if isinstance(stmt, DeclStmt):
            self._exec_decl(stmt, mask)
        elif isinstance(stmt, AssignStmt):
            self._exec_assign(stmt, mask)
        elif isinstance(stmt, ExprStmt):
            self._eval(stmt.expr, mask)
        elif isinstance(stmt, SyncStmt):
            self._exec_sync(stmt, mask)
        elif isinstance(stmt, IfStmt):
            cond = self._truthy(self._eval(stmt.cond, mask))
            if self._profile is not None:
                self._profile.branch_lanes(stmt, mask, cond)
            then_mask = mask & cond
            else_mask = mask & ~cond
            if then_mask.any():
                self._exec_stmts(stmt.then_body, then_mask)
            if else_mask.any():
                self._exec_stmts(stmt.else_body, else_mask)
        elif isinstance(stmt, ForStmt):
            if stmt.init is not None:
                self._exec_stmt(stmt.init, mask)
            live = mask
            while True:
                if stmt.cond is not None:
                    live = live & self._truthy(self._eval(stmt.cond, live))
                if not live.any():
                    break
                self._exec_stmts(stmt.body, live)
                if stmt.update is not None:
                    self._exec_stmt(stmt.update, live)
                self._count_step(live)
        elif isinstance(stmt, WhileStmt):
            live = mask
            while True:
                live = live & self._truthy(self._eval(stmt.cond, live))
                if not live.any():
                    break
                self._exec_stmts(stmt.body, live)
                self._count_step(live)
        elif isinstance(stmt, Block):
            self._exec_stmts(stmt.body, mask)
        else:
            raise KernelRuntimeError(f"cannot execute {type(stmt).__name__}")

    def _exec_sync(self, stmt: SyncStmt, mask: np.ndarray) -> None:
        """Check barrier convergence; data is already visible (no-op)."""
        if self._profile is not None:
            self._profile.sync_lanes(mask)
        if mask.all():
            return
        if stmt.scope == "global":
            raise BarrierError(
                f"{int((~mask).sum())} thread(s) missed a __global_sync "
                f"other threads reached")
        # Block scope: every block must arrive all-or-none.
        arrived = np.zeros(self._n_blocks, dtype=np.int64)
        np.add.at(arrived, self._block_of[mask], 1)
        per_block = self._n // self._n_blocks
        partial = np.nonzero((arrived != 0) & (arrived != per_block))[0]
        if partial.size:
            b = int(partial[0])
            raise BarrierError(
                f"block {b}: threads diverged at a barrier "
                f"({int(arrived[b])}/{per_block} arrived)")

    def _exec_decl(self, stmt: DeclStmt, mask: np.ndarray) -> None:
        if stmt.is_array:
            dims = []
            for d in stmt.dims:
                if isinstance(d, int):
                    dims.append(d)
                else:
                    dims.append(int(self._uniform(self._env[d], mask,
                                                  f"extent {d!r}")))
            lanes = stmt.type.lanes
            dtype = np.int32 if stmt.type.name == "int" else np.float32
            if stmt.shared:
                # One allocation per block, zeroed once (the lockstep
                # interpreter allocates on first execution and reuses).
                if stmt.name not in self._shared:
                    shape = (self._n_blocks,) + tuple(dims) \
                        + ((lanes,) if lanes > 1 else ())
                    self._shared[stmt.name] = _SpaceView(
                        "shared", np.zeros(shape, dtype), self._block_of,
                        lanes)
            else:
                shape = (self._n,) + tuple(dims) \
                    + ((lanes,) if lanes > 1 else ())
                dtype = np.int32 if stmt.type.name == "int" else np.float32
                view = self._local.get(stmt.name)
                if view is None or view.array.shape != shape:
                    view = _SpaceView("local", np.zeros(shape, dtype),
                                      self._lane, lanes)
                    self._local[stmt.name] = view
                else:
                    # Re-executed declaration (e.g. inside a loop body)
                    # re-zeroes the active lanes' copies.
                    view.array[mask] = 0
            return
        if stmt.init is not None:
            value = self._eval(stmt.init, mask)
        elif stmt.type.name in ("float2", "float4"):
            value = _LaneVec(np.zeros((self._n, stmt.type.lanes)))
        else:
            value = np.zeros(self._n)
        value = self._cast_scalar(value, stmt.type.name)
        self._bind(stmt.name, value, mask)

    def _uniform(self, value: LaneValue, mask: np.ndarray,
                 what: str) -> int:
        """A per-lane value that must agree across the active lanes."""
        if isinstance(value, _LaneVec):
            raise KernelRuntimeError(f"vector value used as {what}")
        active = value[mask]
        if active.size == 0:
            return 0
        first = active[0]
        if (active != first).any():
            raise KernelRuntimeError(
                f"{what} differs between threads of the launch")
        return int(first)

    def _cast_scalar(self, value: LaneValue, type_name: str) -> LaneValue:
        if type_name == "int":
            return self._as_int(value)
        if type_name == "float":
            return self._as_float(value)
        if isinstance(value, _LaneVec):
            return value
        raise KernelRuntimeError(
            f"cannot initialize {type_name} from a scalar lane value")

    def _bind(self, name: str, value: LaneValue, mask: np.ndarray) -> None:
        """(Re)bind ``name`` for the active lanes, keeping others' values."""
        old = self._env.get(name)
        if isinstance(value, _LaneVec):
            if isinstance(old, _LaneVec) and old.lanes == value.lanes:
                old.data[mask] = value.data[mask]
            else:
                self._env[name] = value.copy() if mask.all() \
                    else _LaneVec(np.where(mask[:, None], value.data, 0.0))
            return
        value = self._full(value)
        if mask.all():
            self._env[name] = value.copy()
            return
        if isinstance(old, np.ndarray) and not isinstance(old, _LaneVec):
            if old.dtype == value.dtype:
                old[mask] = value[mask]
            else:
                # A guarded assignment changed the value's type for the
                # active lanes only; keep the inactive lanes' old values,
                # promoted to float (numerically exact for int64 < 2**53).
                self._env[name] = np.where(mask, self._as_float(value),
                                           self._as_float(old))
        else:
            self._env[name] = np.where(mask, value, value.dtype.type(0))

    def _exec_assign(self, stmt: AssignStmt, mask: np.ndarray) -> None:
        value = self._eval(stmt.value, mask)
        if stmt.op != "=":
            current = self._eval(stmt.target, mask)
            op = stmt.op[0]
            if op == "+":
                value = self._add(current, value)
            elif op == "-":
                value = self._sub(current, value)
            elif op == "*":
                value = self._mul(current, value)
            elif op == "/":
                value = self._c_div(current, value, mask)
        self._store(stmt.target, value, mask)

    # -- lvalues --------------------------------------------------------------

    def _store(self, target: Expr, value: LaneValue,
               mask: np.ndarray) -> None:
        if isinstance(target, Ident):
            if target.name not in self._env:
                raise KernelRuntimeError(
                    f"store to undeclared variable {target.name!r}")
            old = self._env[target.name]
            if isinstance(old, np.ndarray) \
                    and old.dtype.kind == "i" \
                    and not isinstance(value, _LaneVec):
                value = self._as_int(value)
            self._bind(target.name, value, mask)
            return
        if isinstance(target, ArrayRef):
            view, indices = self._resolve(target, mask)
            self._emit_profile(view, target, indices, mask, True)
            self._scatter(view, indices, value, mask, target.name)
            return
        if isinstance(target, Member):
            base = target.base
            lane = "xyzw".index(target.member)
            if isinstance(base, Ident):
                vec = self._env.get(base.name)
                if not isinstance(vec, _LaneVec):
                    raise KernelRuntimeError(
                        f"member store to non-vector {base.name!r}")
                vec.data[mask, lane] = self._as_float(value)[mask]
                return
            if isinstance(base, ArrayRef):
                view, indices = self._resolve(base, mask)
                self._emit_profile(view, base, indices, mask, True)
                if view.lanes <= lane:
                    raise KernelRuntimeError(
                        f"member store .{target.member} to {view.lanes}-lane "
                        f"array {base.name!r}")
                full = indices + (np.full(self._n, lane, np.int64),)
                sel = tuple(ix[mask] for ix in full)
                if view.lead is not None:
                    sel = (view.lead[mask],) + sel
                view.array[sel] = self._as_float(value)[mask]
                return
        raise KernelRuntimeError(f"invalid store target {target!r}")

    def _resolve(self, ref: ArrayRef,
                 mask: np.ndarray) -> Tuple[_SpaceView, Tuple[np.ndarray, ...]]:
        name = ref.base.name
        view = self._local.get(name) or self._shared.get(name) \
            or self._global.get(name)
        if view is None:
            raise KernelRuntimeError(f"reference to unknown array {name!r}")
        dims = view.dims()
        if len(ref.indices) != len(dims):
            raise IndexError(
                f"{view.space} array {name!r} has rank {len(dims)}, "
                f"got {len(ref.indices)} indices")
        indices = []
        for i, (expr, ext) in enumerate(zip(ref.indices, dims)):
            ix = self._as_int(self._eval(expr, mask))
            active = ix[mask]
            bad = (active < 0) | (active >= ext)
            if bad.any():
                first = int(active[np.argmax(bad)])
                raise IndexError(
                    f"{view.space} array {name!r} index {first} out of "
                    f"range [0, {ext}) in dimension {i}")
            # Clamp the inactive lanes so the full-width gather is safe.
            indices.append(np.where(mask, ix, 0) if not mask.all() else ix)
        return view, tuple(indices)

    def _emit_profile(self, view: _SpaceView, ref: ArrayRef,
                      indices: Tuple[np.ndarray, ...],
                      mask: np.ndarray, is_store: bool) -> None:
        """Feed one masked access to the profiler (global/shared only).

        Addresses are row-major linear *element* indices over the array's
        logical dims, matching the lockstep memory stores'
        ``linear_address`` so cross-backend counters agree exactly.
        """
        if self._profile is None or view.space not in ("global", "shared"):
            return
        addr = np.zeros(self._n, np.int64)
        for ix, ext in zip(indices, view.dims()):
            addr = addr * ext + ix
        self._profile.access_lanes(view.space, ref.base.name, addr, mask,
                                   is_store, ref)

    def _gather(self, view: _SpaceView, indices: Tuple[np.ndarray, ...],
                mask: np.ndarray) -> LaneValue:
        sel: Tuple[np.ndarray, ...] = indices
        if view.lead is not None:
            sel = (view.lead,) + sel
        data = view.array[sel]
        if view.lanes > 1:
            return _LaneVec(data.astype(np.float64))
        return data.astype(np.int64 if view.array.dtype.kind == "i"
                           else np.float64)

    def _scatter(self, view: _SpaceView, indices: Tuple[np.ndarray, ...],
                 value: LaneValue, mask: np.ndarray, name: str) -> None:
        if view.lanes > 1:
            if not isinstance(value, _LaneVec) \
                    or value.lanes != view.lanes:
                got = (f"float{value.lanes}" if isinstance(value, _LaneVec)
                       else "scalar")
                raise TypeError(
                    f"cannot store {got} into {view.lanes}-lane "
                    f"array {name!r}")
            payload = value.data[mask]
        else:
            if isinstance(value, _LaneVec):
                raise TypeError(
                    f"cannot store float{value.lanes} into 1-lane "
                    f"array {name!r}")
            payload = self._full(value)[mask]
        sel = tuple(ix[mask] for ix in indices)
        if view.lead is not None:
            sel = (view.lead[mask],) + sel
        view.array[sel] = payload

    # -- expressions ----------------------------------------------------------

    def _full(self, value) -> np.ndarray:
        """Broadcast a python scalar to a lane vector (vectors pass through)."""
        if isinstance(value, np.ndarray):
            return value
        dtype = np.int64 if isinstance(value, (int, np.integer)) \
            else np.float64
        return np.full(self._n, value, dtype)

    def _as_int(self, value) -> np.ndarray:
        value = self._full(value)
        if value.dtype.kind == "i":
            return value
        return np.trunc(value).astype(np.int64)  # C cast: toward zero

    def _as_float(self, value) -> np.ndarray:
        value = self._full(value)
        if value.dtype.kind == "f":
            return value
        return value.astype(np.float64)

    @staticmethod
    def _truthy(value: LaneValue) -> np.ndarray:
        if isinstance(value, _LaneVec):
            raise KernelRuntimeError("vector value used as a condition")
        return value != 0

    def _eval(self, expr: Expr, mask: np.ndarray) -> LaneValue:
        if isinstance(expr, IntLit):
            return np.full(self._n, expr.value, np.int64)
        if isinstance(expr, FloatLit):
            return np.full(self._n, expr.value, np.float64)
        if isinstance(expr, Ident):
            try:
                return self._env[expr.name]
            except KeyError:
                raise KernelRuntimeError(
                    f"use of undefined variable {expr.name!r}") from None
        if isinstance(expr, ArrayRef):
            view, indices = self._resolve(expr, mask)
            self._emit_profile(view, expr, indices, mask, False)
            return self._gather(view, indices, mask)
        if isinstance(expr, Member):
            base = self._eval(expr.base, mask)
            if isinstance(base, _LaneVec):
                if "xyzw".index(expr.member) >= base.lanes:
                    raise KernelRuntimeError(
                        f"member .{expr.member} of float{base.lanes} value")
                return base.member(expr.member)
            raise KernelRuntimeError(
                f"member .{expr.member} of non-vector value")
        if isinstance(expr, Unary):
            val = self._eval(expr.operand, mask)
            if isinstance(val, _LaneVec):
                raise KernelRuntimeError(
                    f"unary {expr.op!r} of a vector value")
            if expr.op == "-":
                return -val
            if expr.op == "+":
                return val
            if expr.op == "!":
                return np.where(val != 0, 0, 1).astype(np.int64)
        if isinstance(expr, Binary):
            return self._eval_binary(expr, mask)
        if isinstance(expr, Ternary):
            cond = self._truthy(self._eval(expr.cond, mask))
            return self._masked_select(expr.then, expr.otherwise,
                                       mask & cond, mask & ~cond)
        if isinstance(expr, Call):
            return self._eval_call(expr, mask)
        raise KernelRuntimeError(f"cannot evaluate {type(expr).__name__}")

    def _masked_select(self, then: Expr, otherwise: Expr,
                       then_mask: np.ndarray,
                       else_mask: np.ndarray) -> LaneValue:
        """Per-lane ``?:`` that only evaluates each arm where it is taken."""
        tv = self._eval(then, then_mask) if then_mask.any() else None
        ev = self._eval(otherwise, else_mask) if else_mask.any() else None
        if tv is None and ev is None:
            return np.zeros(self._n, np.int64)
        if isinstance(tv, _LaneVec) or isinstance(ev, _LaneVec):
            if tv is None or ev is None:
                return tv if ev is None else ev
            if not (isinstance(tv, _LaneVec) and isinstance(ev, _LaneVec)
                    and tv.lanes == ev.lanes):
                raise KernelRuntimeError(
                    "ternary arms mix vector and scalar values")
            return _LaneVec(np.where(then_mask[:, None], tv.data, ev.data))
        if tv is None:
            return ev
        if ev is None:
            return tv
        tv, ev = self._full(tv), self._full(ev)
        if tv.dtype.kind == "f" or ev.dtype.kind == "f":
            tv, ev = self._as_float(tv), self._as_float(ev)
        return np.where(then_mask, tv, ev)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _c_div(self, a: np.ndarray, b: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
        a, b = self._full(a), self._full(b)
        if a.dtype.kind == "i" and b.dtype.kind == "i":
            if (b[mask] == 0).any():
                raise ZeroDivisionError("integer division by zero in kernel")
            safe = np.where(b == 0, 1, b)
            q = np.floor_divide(a, safe)
            # C semantics: truncate toward zero, not toward -inf.
            rem = a - q * safe
            fix = (rem != 0) & ((a < 0) != (safe < 0))
            return q + fix
        if (self._as_float(b)[mask] == 0.0).any():
            raise ZeroDivisionError("float division by zero")
        fb = self._as_float(b)
        return self._as_float(a) / np.where(fb == 0.0, 1.0, fb)

    def _c_mod(self, a: np.ndarray, b: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
        a, b = self._full(a), self._full(b)
        if a.dtype.kind != "i" or b.dtype.kind != "i":
            raise TypeError("'%' requires integer operands in the kernel "
                            "language")
        if (b[mask] == 0).any():
            raise ZeroDivisionError("integer modulo by zero in kernel")
        return a - self._c_div(a, b, mask) * b

    def _eval_binary(self, expr: Binary, mask: np.ndarray) -> LaneValue:
        op = expr.op
        if op in ("&&", "||"):
            left = self._truthy(self._eval(expr.left, mask))
            # Per-lane short circuit: the right side only evaluates on
            # lanes the left side did not already decide.
            need = mask & (left if op == "&&" else ~left)
            if need.any():
                right = self._truthy(self._eval(expr.right, need))
            else:
                right = np.zeros(self._n, dtype=bool)
            if op == "&&":
                out = left & np.where(need, right, False)
            else:
                out = left | np.where(need, right, False)
            return out.astype(np.int64)
        left = self._eval(expr.left, mask)
        right = self._eval(expr.right, mask)
        if isinstance(left, _LaneVec) or isinstance(right, _LaneVec):
            raise KernelRuntimeError(
                f"operator {op!r} is not defined on vector values")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return self._c_div(left, right, mask)
        if op == "%":
            return self._c_mod(left, right, mask)
        if op in ("<", ">", "<=", ">=", "==", "!="):
            fn = {"<": np.less, ">": np.greater, "<=": np.less_equal,
                  ">=": np.greater_equal, "==": np.equal,
                  "!=": np.not_equal}[op]
            return fn(left, right).astype(np.int64)
        li, ri = self._as_int(left), self._as_int(right)
        if op == "&":
            return li & ri
        if op == "|":
            return li | ri
        if op == "^":
            return li ^ ri
        if op == "<<":
            return li << ri
        if op == ">>":
            return li >> ri
        raise KernelRuntimeError(f"unknown operator {op!r}")

    # -- builtin calls ---------------------------------------------------------

    def _eval_call(self, expr: Call, mask: np.ndarray) -> LaneValue:
        args = [self._eval(a, mask) for a in expr.args]
        if expr.name in ("make_float2", "make_float4"):
            lanes = 2 if expr.name == "make_float2" else 4
            if len(args) != lanes:
                raise KernelRuntimeError(
                    f"{expr.name} takes {lanes} arguments, got {len(args)}")
            cols = [self._as_float(a) for a in args]
            return _LaneVec(np.stack(cols, axis=1))
        if expr.name not in BUILTIN_FUNCTIONS:
            raise KernelRuntimeError(f"unknown function {expr.name!r}")
        return self._call_builtin(expr.name, args, mask)

    def _call_builtin(self, name: str, args: List[LaneValue],
                      mask: np.ndarray) -> np.ndarray:
        for a in args:
            if isinstance(a, _LaneVec):
                raise KernelRuntimeError(
                    f"{name}() of a vector value")
        args = [self._full(a) for a in args]
        if name in ("min", "fminf"):
            return self._min_max(args, np.minimum)
        if name in ("max", "fmaxf"):
            return self._min_max(args, np.maximum)
        if name in ("fabsf", "abs"):
            return np.abs(args[0])
        if name == "sqrtf":
            x = self._as_float(args[0])
            if (x[mask] < 0).any():
                raise ValueError("math domain error")
            return np.sqrt(np.where(mask, x, 0.0))
        if name == "rsqrtf":
            x = self._as_float(args[0])
            if (x[mask] < 0).any():
                raise ValueError("math domain error")
            root = np.sqrt(np.where(mask, x, 1.0))
            if (root[mask] == 0.0).any():
                raise ZeroDivisionError("float division by zero")
            return 1.0 / np.where(root == 0.0, 1.0, root)
        if name == "floorf":
            # math.floor returns a python int, so lanes become integers.
            return np.floor(self._as_float(args[0])).astype(np.int64)
        if name == "int":
            return self._as_int(args[0])
        if name == "float":
            return self._as_float(args[0])
        if name in ("sinf", "cosf", "expf", "logf"):
            return self._libm_lanes(name, args[0], mask)
        raise KernelRuntimeError(f"unknown function {name!r}")

    @staticmethod
    def _min_max(args: List[np.ndarray], fn) -> np.ndarray:
        out = args[0]
        for a in args[1:]:
            out = fn(out, a)
        return out

    def _libm_lanes(self, name: str, arg: np.ndarray,
                    mask: np.ndarray) -> np.ndarray:
        """Transcendentals via ``math.*`` per active lane.

        The lockstep interpreter calls libm on python floats; NumPy's
        vectorized versions can differ in the last ulp, which would break
        the bit-exact cross-backend contract.  These are rare in kernels
        (only the FFT suite uses them), so the per-lane loop is fine.
        """
        fn = {"sinf": math.sin, "cosf": math.cos,
              "expf": math.exp, "logf": math.log}[name]
        x = self._as_float(arg)
        out = np.zeros(self._n, np.float64)
        active = np.nonzero(mask)[0]
        vals = x[active]
        out[active] = [fn(float(v)) for v in vals]
        return out
