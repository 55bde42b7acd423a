"""The scalar execution core: per-thread C semantics, defined once.

:func:`lower` turns a kernel's AST into Python closures, one time per
launch.  An expression or statement lowers to a plain callable
``f(thread)`` unless it can reach a **sequence point** — a place where
the thread may be suspended — in which case it lowers to a generator
function that yields there:

* a barrier is always a sequence point (it yields its ``SyncStmt``);
* when the caller asks for ``preempt``, so is every access to a
  ``__shared__`` array (after its subscripts are evaluated, before the
  memory is touched) and every loop back-edge (both yield ``None``).

Which parts of a kernel can suspend is known statically — shared arrays
from the ``DeclStmt``s, barriers and loops from the statement kinds — so
straight-line code pays nothing for the scheduling it never needs, and
the two scalar drivers differ only in the ``preempt`` they pass:
:class:`repro.sim.interp.Interpreter` runs each thread to its next
barrier, :class:`repro.sim.scheduled.ScheduledInterpreter` steps warps
one sequence point at a time under a scheduler.  Arithmetic comes from
the operator table in :mod:`repro.sim.values`.

:func:`launch` is the set-up both drivers share: argument checks, global
memory binding, the ten predefined ids, one :class:`Thread` per
simulated thread with its generator ready to run.
"""

from __future__ import annotations

from inspect import isgeneratorfunction as _suspends
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.lang.astnodes import (
    ArrayRef,
    DeclStmt,
    Expr,
    Ident,
    IntLit,
    Kernel,
    Member,
    Stmt,
    SyncStmt,
    early_returns,
    walk_stmts,
)
from repro.lang.builtins import BUILTIN_FUNCTIONS
from repro.sim.memory import GlobalMemory, LocalMemory, SharedMemory
from repro.sim.values import (
    BINARY_OPS,
    UNARY_OPS,
    Float2,
    Float4,
    default_value,
    truth,
)

__all__ = ["MAX_STEPS_DEFAULT", "KernelRuntimeError", "NodeLowering",
           "Thread", "launch", "lower"]

MAX_STEPS_DEFAULT = 50_000_000


class KernelRuntimeError(Exception):
    """A runtime fault inside the simulated kernel."""


class Thread:
    """One simulated thread: locals, ids, its memories, and its coroutine
    with where that is stopped (``at`` a barrier, ``done``, or neither)."""

    __slots__ = ("env", "block", "thread", "lane", "gmem", "shared", "local",
                 "path", "run", "at", "done")

    def __init__(self, env: Dict[str, object], block, thread, lane: int,
                 gmem: GlobalMemory, shared: SharedMemory, program: Callable):
        self.env = env
        self.block = block
        self.thread = thread
        # Launch-linear lane id and structural loop-iteration path, used by
        # the profiler to reconstruct the vectorized backend's half-warp
        # instruction instances (see repro.obs.profile).
        self.lane = lane
        self.path: List[int] = []
        self.gmem = gmem
        self.shared = shared
        self.local = LocalMemory()
        self.run: Iterator = program(self)
        self.at: Optional[SyncStmt] = None
        self.done = False

    @property
    def waiting(self) -> Optional[str]:
        """Scope of the barrier this thread is stopped at, if any."""
        return self.at.scope if self.at is not None else None

    @property
    def runnable(self) -> bool:
        return self.at is None and not self.done

    def step(self) -> None:
        """Run to the next sequence point, leaving a barrier just passed."""
        try:
            self.at = next(self.run)
        except StopIteration:
            self.at, self.done = None, True


def _budget(limit: int) -> Callable[[int], None]:
    """The launch-wide statement allowance as a ``spend(n)`` function: one
    step per statement entered and per loop back-edge, so every runaway
    loop trips it."""
    left = limit

    def spend(n: int) -> None:
        nonlocal left
        left -= n
        if left < 0:
            raise KernelRuntimeError(
                f"kernel exceeded {limit} simulated statements "
                f"(runaway loop?)")
    return spend


# ---------------------------------------------------------------------------
# Combinators: every node kind below is written once in terms of these
# ---------------------------------------------------------------------------

def _self(thread):
    """The running thread as an operand, for primitives that need it."""
    return thread


def _noop(*values):
    return None


def _same(value):
    return value


def _exit(thread):
    """End of kernel; a part that makes any body a coroutine."""
    return
    yield


def _const(value) -> Callable:
    return lambda thread: value


def _apply(fn: Callable, args: Sequence[Callable]) -> Callable:
    """Strict application: evaluate ``args`` left to right, then ``fn``
    on their values.  ``fn`` may itself suspend (a preemptible access)."""
    flags = [_suspends(a) for a in args]
    fn_suspends = _suspends(fn)
    if not (fn_suspends or any(flags)):
        if len(args) == 1:
            a, = args
            return lambda thread: fn(a(thread))
        if len(args) == 2:
            a, b = args
            return lambda thread: fn(a(thread), b(thread))
        if len(args) == 3:
            a, b, c = args
            return lambda thread: fn(a(thread), b(thread), c(thread))
        return lambda thread: fn(*[a(thread) for a in args])
    steps = list(zip(args, flags))

    def run(thread):
        vals = []
        for a, suspends in steps:
            vals.append((yield from a(thread)) if suspends else a(thread))
        if fn_suspends:
            return (yield from fn(*vals))
        return fn(*vals)
    return run


def _branch(cond: Callable, then: Callable, other: Callable) -> Callable:
    """Lazy selection: evaluate ``cond``, then exactly one arm."""
    cs, ts, es = _suspends(cond), _suspends(then), _suspends(other)
    if not (cs or ts or es):
        return lambda thread: then(thread) if cond(thread) else other(thread)

    def run(thread):
        if (yield from cond(thread)) if cs else cond(thread):
            return (yield from then(thread)) if ts else then(thread)
        return (yield from other(thread)) if es else other(thread)
    return run


def _preemptible(fn: Callable) -> Callable:
    """``fn`` with a sequence point in front of it."""
    def run(*operands):
        yield None
        return fn(*operands)
    return run


_SPACE_ATTR = {"global": "gmem", "shared": "shared", "local": "local"}

#: What a store to a declared ``int`` / ``float`` does to the value.
_SCALAR_CASTS: Dict[str, Callable] = {"int": int, "float": float}

_VECTOR_CONSTRUCTORS = {
    "make_float2": lambda *a: Float2(float(a[0]), float(a[1])),
    "make_float4": lambda *a: Float4(*map(float, a)),
}


class NodeLowering:
    """What every lowering starts from: an AST node goes to the method
    named after its class, an operator to its entry in a table, and the
    statements that only compose others are written in terms of the
    subclass's ``_chain(parts, cost)`` and ``_loop(cond, body)``."""

    _chain: Callable[[Sequence[Callable], int], Callable]
    _loop: Callable[[Callable, Callable], Callable]

    def _node(self, kind: str, node):
        method = getattr(self, f"_{kind}_{type(node).__name__}", None)
        if method is None:
            verb = "evaluate" if kind == "expr" else "execute"
            raise KernelRuntimeError(f"cannot {verb} {type(node).__name__}")
        return method(node)

    def expr(self, node: Expr) -> Callable:
        return self._node("expr", node)

    def stmt(self, node: Stmt) -> Callable:
        return self._node("stmt", node)

    @staticmethod
    def _op(table: Dict[str, Callable], op: str) -> Callable:
        try:
            return table[op]
        except KeyError:
            raise KernelRuntimeError(f"unknown operator {op!r}") from None

    def body(self, stmts: Sequence[Stmt], extra: int = 0) -> Callable:
        """``stmts`` in order, charged one step each plus ``extra``."""
        return self._chain([self.stmt(s) for s in stmts], len(stmts) + extra)

    def _stmt_ExprStmt(self, s) -> Callable:
        return self.expr(s.expr)

    def _stmt_Block(self, s) -> Callable:
        return self.body(s.body)

    def _stmt_WhileStmt(self, s) -> Callable:
        return self._loop(self.expr(s.cond), self.body(s.body, extra=1))

    def _stmt_ForStmt(self, s) -> Callable:
        # The init first: it may declare the type the update stores to.
        init = self.stmt(s.init) if s.init is not None else None
        cond = self.expr(s.cond if s.cond is not None else IntLit(1))
        update = [s.update] if s.update is not None else []
        # The body pays the back-edge: one more step per iteration.
        loop = self._loop(cond, self.body([*s.body, *update], extra=1))
        return loop if init is None else self._chain([init, loop], 1)


class _Lowering(NodeLowering):
    """One kernel -> closures, under one launch's hooks and budget."""

    def __init__(self, kernel: Kernel, preempt: bool, max_steps: int,
                 trace, profile):
        if early_returns(kernel):
            raise KernelRuntimeError(
                f"kernel {kernel.name!r}: 'return' is only supported as "
                f"the final statement of the kernel body")
        self._preempt = preempt
        self._spend = _budget(max_steps)
        self._trace = trace
        self._profile = profile
        self._space = {p.name: "global" for p in kernel.array_params()}
        # Declared type of each scalar name, as of the statement being
        # lowered: a store casts to it, whatever value the name holds.
        self._declared = {p.name: p.type.name
                          for p in kernel.scalar_params()}
        for s in walk_stmts(kernel.body):
            if isinstance(s, DeclStmt) and s.is_array:
                self._space[s.name] = "shared" if s.shared else "local"

    # -- expressions ---------------------------------------------------------

    def _expr_IntLit(self, e) -> Callable:
        return _const(e.value)

    _expr_FloatLit = _expr_IntLit

    def _expr_Ident(self, e) -> Callable:
        name = e.name

        def load(thread):
            try:
                return thread.env[name]
            except KeyError:
                raise KernelRuntimeError(
                    f"use of undefined variable {name!r}") from None
        return load

    def _expr_ArrayRef(self, e) -> Callable:
        return self._access(e)

    def _expr_Member(self, e) -> Callable:
        member = e.member

        def select(value):
            if isinstance(value, (Float2, Float4)):
                return getattr(value, member)
            raise KernelRuntimeError(f"member .{member} of non-vector value")
        return _apply(select, [self.expr(e.base)])

    def _expr_Unary(self, e) -> Callable:
        return _apply(self._op(UNARY_OPS, e.op), [self.expr(e.operand)])

    def _expr_Binary(self, e) -> Callable:
        left, right = self.expr(e.left), self.expr(e.right)
        if e.op == "&&":
            return _branch(left, _apply(truth, [right]), _const(0))
        if e.op == "||":
            return _branch(left, _const(1), _apply(truth, [right]))
        return _apply(self._op(BINARY_OPS, e.op), [left, right])

    def _expr_Ternary(self, e) -> Callable:
        return _branch(self.expr(e.cond), self.expr(e.then),
                       self.expr(e.otherwise))

    def _expr_Call(self, e) -> Callable:
        fn = _VECTOR_CONSTRUCTORS.get(e.name) or BUILTIN_FUNCTIONS.get(e.name)
        if fn is None:
            raise KernelRuntimeError(f"unknown function {e.name!r}")
        return _apply(fn, [self.expr(a) for a in e.args])

    # -- memory --------------------------------------------------------------

    def _access(self, ref: ArrayRef, value: Optional[Callable] = None,
                member: Optional[str] = None) -> Callable:
        """``ref`` as a load or, given ``value``, a store (to one vector
        ``member``).  Subscripts are evaluated after the value; the hooks
        see the access once it has succeeded."""
        name, is_store = ref.base.name, value is not None
        space = self._space.get(name)
        if space is None:
            raise KernelRuntimeError(f"reference to unknown array {name!r}")
        memory = attrgetter(_SPACE_ATTR[space])
        trace = self._trace if space == "global" else None
        profile = self._profile if space != "local" else None

        def access(thread, *operands):
            mem = memory(thread)
            indices = tuple(map(int, operands[is_store:]))
            try:
                if not is_store:
                    out = mem.load(name, indices)
                elif member is None:
                    out = mem.store(name, indices, operands[0])
                else:
                    out = mem.store_member(name, indices, member,
                                           float(operands[0]))
            except KeyError:    # declared, but the declaration never ran
                raise KernelRuntimeError(
                    f"reference to unknown array {name!r}") from None
            if profile is not None or trace is not None:
                addr = mem.linear_address(name, indices)
                if profile is not None:
                    profile.access(space, name, addr, is_store, ref,
                                   tuple(thread.path), thread.lane)
                if trace is not None:
                    trace(name, addr, is_store, thread.block, thread.thread,
                          ref)
            return out

        fn = _preemptible(access) if self._preempt and space == "shared" \
            else access
        operands = [value] if is_store else []
        return _apply(fn, [_self, *operands, *map(self.expr, ref.indices)])

    def _store(self, target: Expr, value: Callable) -> Callable:
        if isinstance(target, Ident):
            name = target.name
            cast = _SCALAR_CASTS.get(self._declared.get(name, "int"), _same)

            def assign(thread, v):
                env = thread.env
                if name not in env:
                    raise KernelRuntimeError(
                        f"store to undeclared variable {name!r}")
                env[name] = cast(v)
            return _apply(assign, [_self, value])
        if isinstance(target, ArrayRef):
            return self._access(target, value)
        if isinstance(target, Member) and isinstance(target.base, ArrayRef):
            return self._access(target.base, value, target.member)
        if isinstance(target, Member) and isinstance(target.base, Ident):
            name, member = target.base.name, target.member

            def set_member(thread, v):
                vec = thread.env.get(name)
                if not isinstance(vec, (Float2, Float4)):
                    raise KernelRuntimeError(
                        f"member store to non-vector {name!r}")
                setattr(vec, member, float(v))
            return _apply(set_member, [_self, value])
        raise KernelRuntimeError(f"invalid store target {target!r}")

    # -- statements ----------------------------------------------------------

    def _chain(self, parts: Sequence[Callable], cost: int) -> Callable:
        """Run ``parts`` in order, charging ``cost`` steps on entry (no
        statement can leave a body early, so entry is as good as each)."""
        if not parts and not cost:
            return _noop
        spend = self._spend
        return _apply(_noop, [lambda thread: spend(cost), *parts])

    def _stmt_DeclStmt(self, s) -> Callable:
        name, type_name = s.name, s.type.name
        if s.is_array:
            dims, shared = s.dims, s.shared

            def declare(thread):
                shape = [d if isinstance(d, int) else int(thread.env[d])
                         for d in dims]
                if not shared:
                    thread.local.allocate(name, shape, type_name)
                elif not thread.shared.has(name):
                    # One allocation per block; later threads reuse it.
                    thread.shared.allocate(name, shape, type_name)
            return declare
        self._declared[name] = type_name
        cast = _SCALAR_CASTS.get(type_name, _same)

        def bind(thread, value):
            thread.env[name] = cast(value)
        init = self.expr(s.init) if s.init is not None \
            else lambda thread: default_value(type_name)
        return _apply(bind, [_self, init])

    def _stmt_AssignStmt(self, s) -> Callable:
        value = self.expr(s.value)
        if s.op != "=":
            op = self._op(BINARY_OPS, s.op[:-1])
            value = _apply(lambda v, current: op(current, v),
                           [value, self.expr(s.target)])
        return self._store(s.target, value)

    def _stmt_SyncStmt(self, s) -> Callable:
        profile = self._profile

        def barrier(thread):
            if profile is not None:
                profile.sync(thread.lane)
            yield s
        return barrier

    def _stmt_IfStmt(self, s) -> Callable:
        cond = self.expr(s.cond)
        if self._profile is not None:
            branch = self._profile.branch

            def observed(thread, value):
                taken = bool(value)
                branch(s, tuple(thread.path), thread.lane, taken)
                return taken
            cond = _apply(observed, [_self, cond])
        return _branch(cond, self.body(s.then_body), self.body(s.else_body))

    def _loop(self, cond: Callable, body: Callable) -> Callable:
        """``while (cond) body`` — ``body`` already pays the back-edge.
        The path entry counts structural iterations, aligning this
        thread's events with the vectorized backend's masked passes over
        the same loop."""
        preempt = self._preempt
        cs, bs = _suspends(cond), _suspends(body)
        if not (cs or bs or preempt):
            def run(thread):
                path = thread.path
                path.append(0)
                while cond(thread):
                    body(thread)
                    path[-1] += 1
                path.pop()
            return run

        def run(thread):
            path = thread.path
            path.append(0)
            while (yield from cond(thread)) if cs else cond(thread):
                if bs:
                    yield from body(thread)
                else:
                    body(thread)
                path[-1] += 1
                if preempt:
                    yield None
            path.pop()
        return run

    def _stmt_ReturnStmt(self, s) -> Callable:
        return _exit    # only the trailing one gets here


def lower(kernel: Kernel, *, preempt: bool,
          max_steps: int = MAX_STEPS_DEFAULT, trace=None,
          profile=None) -> Callable:
    """Lower ``kernel`` to a generator function ``program(thread)``.

    The generator yields the ``SyncStmt`` at each barrier and, under
    ``preempt``, ``None`` at every other sequence point.  ``trace`` and
    ``profile`` are the lockstep driver's hooks; ``max_steps`` bounds the
    statements the whole launch may execute.
    """
    lowering = _Lowering(kernel, preempt, max_steps, trace, profile)
    return lowering._chain([*map(lowering.stmt, kernel.body), _exit],
                           len(kernel.body))


def launch(kernel: Kernel, config, arrays: Dict[str, np.ndarray],
           scalars: Optional[Dict[str, object]], **lowering
           ) -> List[List[Thread]]:
    """Set up one launch: the threads of every block, ready to run.

    Blocks come in ``(bidy, bidx)`` order and threads in ``(tidy, tidx)``
    order within each, so the flattened list is launch-linear.
    ``lowering`` is passed to :func:`lower`.
    """
    scalars = dict(scalars or {})
    gmem = GlobalMemory()
    for p in kernel.array_params():
        if p.name not in arrays:
            raise KeyError(f"missing array argument {p.name!r}")
        gmem.bind(p.name, arrays[p.name], p.type.lanes)
    for p in kernel.scalar_params():
        if p.name not in scalars:
            raise KeyError(f"missing scalar argument {p.name!r}")
    program = lower(kernel, **lowering)

    gx, gy = config.grid
    bx, by = config.block
    blocks: List[List[Thread]] = []
    lane = 0
    for bidy in range(gy):
        for bidx in range(gx):
            shared = SharedMemory()
            members: List[Thread] = []
            for tidy in range(by):
                for tidx in range(bx):
                    env = {**scalars,
                           "tidx": tidx, "tidy": tidy,
                           "bidx": bidx, "bidy": bidy,
                           "bdimx": bx, "bdimy": by,
                           "gdimx": gx, "gdimy": gy,
                           "idx": bidx * bx + tidx,
                           "idy": bidy * by + tidy}
                    members.append(Thread(env, (bidx, bidy), (tidx, tidy),
                                          lane, gmem, shared, program))
                    lane += 1
            blocks.append(members)
    return blocks
