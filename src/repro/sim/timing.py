"""Static cost analysis: per-thread dynamic operation and traffic counts.

Walks a kernel once, multiplying each statement's cost by the trip counts
of its enclosing loops (triangular bounds use the midpoint of the enclosing
iterator) and by guard execution fractions (``if (tidx < 16)`` in a
64-wide block executes for a quarter of the threads).  Global accesses get
a transaction count per half warp from the same affine machinery the
compiler's coalescing check uses; shared accesses get a bank-conflict
degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.ir.access import AccessInfo, collect_accesses
from repro.ir.segments import HALF_WARP, segments_for_halfwarp
from repro.lang.astnodes import (
    ArrayRef,
    Binary,
    Call,
    Expr,
    Ident,
    IntLit,
    Kernel,
    Member,
    Ternary,
    Unary,
)
from repro.machine import GpuSpec
from repro.sim.interp import LaunchConfig


@dataclass
class GlobalTraffic:
    """Aggregated cost of one global access site."""

    access: AccessInfo
    execs_per_thread: float          # dynamic executions per thread
    transactions_per_halfwarp: int   # per execution
    bytes_per_halfwarp: float        # per execution
    partition_imbalance: float       # >= 1.0; 1.0 means perfectly spread

    def total_transactions(self, total_threads: int) -> float:
        return (self.execs_per_thread * self.transactions_per_halfwarp
                * total_threads / HALF_WARP)

    def total_bytes(self, total_threads: int) -> float:
        return (self.execs_per_thread * self.bytes_per_halfwarp
                * total_threads / HALF_WARP)


@dataclass
class KernelStats:
    """Everything the timing model needs, per kernel launch."""

    alu_ops_per_thread: float = 0.0
    shared_cycles_per_thread: float = 0.0    # incl. bank-conflict serialization
    syncs_per_thread: float = 0.0
    global_traffic: List[GlobalTraffic] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Execution-count estimation
# ---------------------------------------------------------------------------

def _trip_midpoint_env(access: AccessInfo,
                       outer_values: Mapping[str, float]) -> float:
    """Dynamic executions of an access = product of enclosing trip counts."""
    total = 1.0
    env: Dict[str, float] = dict(outer_values)
    for loop in access.loops:
        trips = _resolve_trips(loop, env)
        total *= trips
        mid = trips / 2.0 * (loop.step or 1)
        start = 0.0
        if loop.start is not None:
            try:
                start = loop.start.evaluate({k: int(v)
                                             for k, v in env.items()})
            except KeyError:
                start = 0.0
        env[loop.name] = start + mid
    return total


def _resolve_trips(loop, env: Mapping[str, float]) -> float:
    if loop.step is None or loop.step <= 0:
        return 16.0  # unknown structure: modest default
    start = 0.0
    if loop.start is not None:
        try:
            start = loop.start.evaluate({k: int(v) for k, v in env.items()})
        except KeyError:
            start = 0.0
    if loop.bound is None:
        return 16.0
    try:
        bound = loop.bound.evaluate({k: int(v) for k, v in env.items()})
    except KeyError:
        return 16.0
    return max(0.0, (bound - start) / loop.step)


def access_executions(access: AccessInfo, config: LaunchConfig) -> float:
    """Estimated dynamic executions per thread of one access site.

    The product of enclosing loop trip counts (triangular bounds sampled
    at the midpoint) and guard execution fractions — the multiplier the
    static model applies to every per-execution cost, and the first
    suspect when the profile drift gate (:mod:`repro.obs.report`) fires.
    """
    return (_trip_midpoint_env(access, {})
            * _access_exec_fraction(access, config))


def shared_conflict_degree(access: AccessInfo, machine: GpuSpec,
                           config: LaunchConfig) -> int:
    """Predicted bank-serialization degree of one shared access (>= 1):
    its half warp's addresses under the sampled bindings."""
    if not access.resolved:
        return 1
    bindings = _sample_bindings(access, config)
    t = np.arange(HALF_WARP)
    try:
        addrs = access.eval_addresses(
            {**bindings, "tidx": t,
             "idx": bindings.get("bidx", 0) * config.block[0] + t}).tolist()
    except (KeyError, ZeroDivisionError):
        return 1
    return bank_serialization(addrs, machine.shared_banks)


def guard_fraction(cond: Expr, config: LaunchConfig) -> float:
    """Estimated execution fraction of a guarded statement."""
    bx, by = config.block
    if isinstance(cond, Binary):
        if cond.op == "&&":
            return (guard_fraction(cond.left, config)
                    * guard_fraction(cond.right, config))
        if cond.op == "||":
            left = guard_fraction(cond.left, config)
            right = guard_fraction(cond.right, config)
            return min(1.0, left + right - left * right)
        if cond.op == "<" and isinstance(cond.left, Ident) \
                and isinstance(cond.right, IntLit):
            if cond.left.name == "tidx" and bx > 0:
                return min(1.0, cond.right.value / bx)
            if cond.left.name == "tidy" and by > 0:
                return min(1.0, cond.right.value / by)
        if cond.op in ("==", "!="):
            return 0.5
    return 1.0


def _access_exec_fraction(access: AccessInfo, config: LaunchConfig) -> float:
    frac = 1.0
    for g in access.guards:
        frac *= guard_fraction(g, config)
    return frac


# ---------------------------------------------------------------------------
# Transaction model
# ---------------------------------------------------------------------------

def transactions_for_access(access: AccessInfo, machine: GpuSpec,
                            config: LaunchConfig) -> Tuple[int, float]:
    """(transactions, bytes) one half warp needs per execution."""
    from repro.passes.coalesce_check import check_access
    lanes = access.elem.lanes
    if not access.resolved:
        # Unresolved (indirect) access: assume worst case.
        return HALF_WARP, HALF_WARP * 32.0
    verdict = check_access(access, block_dims=config.block)
    if verdict.coalesced:
        return 1, HALF_WARP * 4.0 * lanes
    if not machine.relaxed_coalescing:
        # G80: every non-coalesced half warp serializes into 16
        # transactions of (at least) 32 bytes.
        return HALF_WARP, HALF_WARP * 32.0
    segments = segments_for_halfwarp(access, _sample_bindings(access, config))
    count = max(1, len(segments))
    # Scattered accesses (one word per segment) move only 32-byte
    # transactions on GT200's relaxed coalescer.
    bytes_per = 32.0 if count >= 8 else 64.0
    return count, count * bytes_per


def _sample_bindings(access: AccessInfo,
                     config: LaunchConfig) -> Dict[str, int]:
    bindings: Dict[str, int] = {
        "bidx": 1, "bidy": 1, "tidy": 0,
        "bdimx": config.block[0], "bdimy": config.block[1],
        "gdimx": config.grid[0], "gdimy": config.grid[1],
        "idx": config.block[0], "idy": config.block[1],
    }
    env: Dict[str, float] = {}
    for loop in access.loops:
        trips = _resolve_trips(loop, env)
        start = 0.0
        if loop.start is not None:
            try:
                start = loop.start.evaluate(
                    {k: int(v) for k, v in env.items()})
            except KeyError:
                start = 0.0
        value = start + (loop.step or 1) * max(0, int(trips / 2))
        env[loop.name] = value
        bindings[loop.name] = int(value)
    for term in access.address.terms:
        if not term.startswith("@"):
            bindings.setdefault(term, 0)
    return bindings


def partition_imbalance(access: AccessInfo, machine: GpuSpec,
                        config: LaunchConfig) -> float:
    """Ratio of the busiest partition's load to the average (>= 1).

    Samples the half-warp base addresses of up to 64 concurrently-active
    X-neighboring blocks over a few loop iterations, following the paper's
    observation that camping happens across blocks (Section 3.7).
    """
    blocks = min(64, config.grid[0])
    if not access.resolved or blocks <= 1:
        return 1.0
    parts = machine.num_partitions
    halfwarps = max(1, config.block[0] // HALF_WARP)
    # One axis each: block, sampled half warp, loop iteration.
    bidx = np.arange(blocks)[:, None, None]
    tidx = np.arange(0, halfwarps, max(1, halfwarps // 8))[:, None] * HALF_WARP
    step = np.arange(4) * HALF_WARP
    axes = dict(_sample_bindings(access, config), bidx=bidx, tidx=tidx,
                idx=bidx * config.block[0] + tidx)
    axes.update((loop.name, step * (loop.step or 1)) for loop in access.loops)
    try:
        byte = access.eval_addresses(axes) * access.elem.size_bytes
    except (KeyError, ZeroDivisionError):
        return 1.0
    partition = byte // machine.partition_width_bytes % parts
    counts = np.bincount(partition.ravel(), minlength=parts)
    return float(counts.max() * parts / counts.sum())


# ---------------------------------------------------------------------------
# ALU / shared-memory cost walk
# ---------------------------------------------------------------------------

_CALL_COST = {"sqrtf": 4, "rsqrtf": 4, "sinf": 8, "cosf": 8, "expf": 8,
              "logf": 8, "fabsf": 1, "fminf": 1, "fmaxf": 1, "min": 1,
              "max": 1}


def _expr_alu_ops(expr: Expr, address_weight: float = 0.25) -> float:
    """Weighted instruction count of one expression.

    Arithmetic inside array subscripts is discounted (``address_weight``):
    real ISAs fold most address math into the memory instruction's
    addressing mode and the compiler strength-reduces induction variables.
    """
    if isinstance(expr, ArrayRef):
        ops = 0.5  # the load/store instruction's issue slot share
        for idx in expr.indices:
            ops += address_weight * _expr_alu_ops(idx, address_weight)
        return ops
    if isinstance(expr, Binary):
        own = 4.0 if expr.op in ("/", "%") else 1.0
        return (own + _expr_alu_ops(expr.left, address_weight)
                + _expr_alu_ops(expr.right, address_weight))
    if isinstance(expr, Unary):
        return 1.0 + _expr_alu_ops(expr.operand, address_weight)
    if isinstance(expr, Ternary):
        return (1.0 + _expr_alu_ops(expr.cond, address_weight)
                + _expr_alu_ops(expr.then, address_weight)
                + _expr_alu_ops(expr.otherwise, address_weight))
    if isinstance(expr, Call):
        return (_CALL_COST.get(expr.name, 2)
                + sum(_expr_alu_ops(a, address_weight) for a in expr.args))
    if isinstance(expr, Member):
        return _expr_alu_ops(expr.base, address_weight)
    return 0.0


def bank_serialization(addrs: Sequence[int], banks: int) -> int:
    """Serialization degree of one half-warp shared-memory instruction.

    ``addrs`` are the element addresses issued by the active threads of a
    half warp.  A fully-uniform address is a broadcast and conflict-free;
    otherwise the degree is the deepest pile-up on any one of the
    ``banks`` interleaved banks (GT200: 16 banks, 32-bit wide).
    """
    distinct = set(addrs)
    if len(distinct) <= 1:
        return 1  # broadcast (or a lone active thread) is conflict-free
    hits: Dict[int, int] = {}
    for addr in addrs:
        bank = addr % banks
        hits[bank] = hits.get(bank, 0) + 1
    return max(hits.values())


def analyze_kernel(kernel: Kernel, sizes: Mapping[str, int],
                   config: LaunchConfig, machine: GpuSpec) -> KernelStats:
    """Produce the full static cost profile of one kernel launch."""
    stats = KernelStats()
    accesses = collect_accesses(kernel, sizes)

    for acc in accesses:
        execs = access_executions(acc, config)
        if execs <= 0:
            continue
        if acc.space == "global":
            trans, byts = transactions_for_access(acc, machine, config)
            imb = partition_imbalance(acc, machine, config)
            stats.global_traffic.append(GlobalTraffic(
                access=acc, execs_per_thread=execs,
                transactions_per_halfwarp=trans,
                bytes_per_halfwarp=byts, partition_imbalance=imb))
        elif acc.space == "shared":
            degree = shared_conflict_degree(acc, machine, config)
            stats.shared_cycles_per_thread += execs * degree

    stats.alu_ops_per_thread = _count_alu(kernel, sizes, config)
    stats.syncs_per_thread = _count_syncs(kernel, sizes, config)
    return stats


def _count_alu(kernel: Kernel, sizes: Mapping[str, int],
               config: LaunchConfig) -> float:
    """Walk statements accumulating ALU ops x loop trips x guard fractions."""
    from repro.lang.astnodes import (AssignStmt, Block, DeclStmt, ExprStmt,
                                     ForStmt, IfStmt, SyncStmt, WhileStmt)
    from repro.ir.affine import AffineExpr, NotAffine, affine_of
    from repro.lang.builtins import PREDEFINED_IDS
    from repro.lang.types import INT

    env: Dict[str, AffineExpr] = {
        n: AffineExpr.term(n) for n in PREDEFINED_IDS}
    for p in kernel.scalar_params():
        if p.type == INT and p.name in sizes:
            env[p.name] = AffineExpr.constant(sizes[p.name])
    values: Dict[str, float] = {}

    def trips_of(stmt: ForStmt) -> float:
        name = stmt.iter_name()
        if name is None or stmt.cond is None:
            return 16.0
        try:
            if stmt.start() is None:
                return 16.0
            start_form = affine_of(stmt.start(), env)
            start = start_form.evaluate(
                {k: int(v) for k, v in values.items()})
        except (NotAffine, KeyError):
            start = 0
        from repro.ir.access import _loop_step, _loop_bound
        step = _loop_step(stmt, name) or 1

        def try_affine(e):
            try:
                return affine_of(e, env)
            except NotAffine:
                return None

        bound_form = _loop_bound(stmt, name, try_affine)
        if bound_form is None:
            return 16.0
        try:
            bound = bound_form.evaluate(
                {k: int(v) for k, v in values.items()})
        except KeyError:
            return 16.0
        return max(0.0, (bound - start) / step)

    def walk(stmts, mult: float) -> float:
        ops = 0.0
        for s in stmts:
            if isinstance(s, DeclStmt):
                if s.init is not None:
                    ops += mult * (_expr_alu_ops(s.init) + 1)
            elif isinstance(s, AssignStmt):
                ops += mult * (_expr_alu_ops(s.target)
                               + _expr_alu_ops(s.value) + 1)
            elif isinstance(s, ExprStmt):
                ops += mult * _expr_alu_ops(s.expr)
            elif isinstance(s, IfStmt):
                frac = guard_fraction(s.cond, config)
                ops += mult * (_expr_alu_ops(s.cond) + 1)
                ops += walk(s.then_body, mult * frac)
                ops += walk(s.else_body, mult * (1.0 - frac)
                            if s.else_body else 0.0)
            elif isinstance(s, ForStmt):
                trips = trips_of(s)
                name = s.iter_name()
                saved = values.get(name)
                if name is not None:
                    values[name] = trips / 2.0
                    env[name] = AffineExpr.term(name)
                ops += mult * trips * 3  # loop overhead: cmp, inc, branch
                ops += walk(s.body, mult * trips)
                if name is not None:
                    if saved is None:
                        values.pop(name, None)
                    else:
                        values[name] = saved
            elif isinstance(s, WhileStmt):
                ops += walk(s.body, mult * 16.0)
            elif isinstance(s, Block):
                ops += walk(s.body, mult)
            elif isinstance(s, SyncStmt):
                ops += mult * 4
        return ops

    return walk(kernel.body, 1.0)


def _count_syncs(kernel: Kernel, sizes: Mapping[str, int],
                 config: LaunchConfig) -> float:
    from repro.lang.astnodes import ForStmt, SyncStmt, Block, IfStmt

    def walk(stmts, mult: float) -> float:
        total = 0.0
        for s in stmts:
            if isinstance(s, SyncStmt):
                total += mult
            elif isinstance(s, ForStmt):
                total += walk(s.body, mult * 16.0)
            elif isinstance(s, Block):
                total += walk(s.body, mult)
            elif isinstance(s, IfStmt):
                total += walk(s.then_body, mult) + walk(s.else_body, mult)
        return total

    return walk(kernel.body, 1.0)
