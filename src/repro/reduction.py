"""The reduction compilation path (rd in Table 1, Figures 13/14).

Naive reduction kernels use the grid-wide barrier the paper supports in
naive code (Section 3)::

    #pragma output a
    __global__ void rd(float a[n], int n) {
        for (int s = n / 2; s > 0; s = s / 2) {
            if (idx < s)
                a[idx] += a[idx + s];
            __global_sync();
        }
    }

Real GPUs have no grid barrier, so the compiler performs *kernel fission*:
the grid-synchronized tree becomes (1) a block-local kernel in which each
thread first accumulates ``thread_merge`` elements (the thread-merge
optimization applied to reductions) and the block then reduces through
shared memory, and (2) repeated relaunches of the same kernel over the
per-block partials until one value remains.  An optional *map stage* —
taken from statements before the first ``__global_sync`` — supports the
complex-number variant of Figure 14 in three load styles:

* ``direct``      — the naive loads are already coalesced (plain rd);
* ``vectorized``  — Section 3.1 applied: one ``float2`` load per element
  pair, data goes straight to registers;
* ``staged``      — vectorization disabled (Figure 14's
  ``optimized_wo_vec``): the strided pair loads are made coalesced through
  shared-memory staging, costing extra shared-memory traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lang.astnodes import (
    AssignStmt,
    ArrayRef,
    Binary,
    ForStmt,
    Ident,
    IfStmt,
    Kernel,
    Stmt,
    SyncStmt,
)
from repro.lang.parser import parse_kernel
from repro.lang.printer import print_kernel
from repro.machine import GTX280, GpuSpec
from repro.passes.base import PassError
from repro.sim.backend import run_kernel
from repro.sim.interp import LaunchConfig


@dataclass
class ReductionPlan:
    """Parameters of the fissioned reduction."""

    block_threads: int = 256
    thread_merge: int = 32          # elements accumulated per thread
    load_style: str = "direct"      # 'direct' | 'vectorized' | 'staged'


def _is_halving_loop(stmt: Stmt, array: str) -> bool:
    """Matches ``for (s = n/2; s > 0; s /= 2) { if (idx < s) A[idx] += A[idx+s]; gsync }``."""
    if not isinstance(stmt, ForStmt):
        return False
    body = [s for s in stmt.body if not isinstance(s, SyncStmt)]
    if len(body) != 1 or not isinstance(body[0], IfStmt):
        return False
    guarded = body[0].then_body
    if len(guarded) != 1 or not isinstance(guarded[0], AssignStmt):
        return False
    assign = guarded[0]
    return (assign.op == "+=" and isinstance(assign.target, ArrayRef)
            and assign.target.base.name == array)


def recognize_reduction(kernel: Kernel) -> Optional[str]:
    """Return the reduced array's name if the kernel is a global-sync
    reduction (possibly with a map prologue), else None."""
    outputs = kernel.output_names()
    candidates = outputs or [p.name for p in kernel.array_params()]
    for stmt in kernel.body:
        if isinstance(stmt, ForStmt):
            for name in candidates:
                if _is_halving_loop(stmt, name):
                    return name
    return None


# ---------------------------------------------------------------------------
# Generated kernels
# ---------------------------------------------------------------------------

def _tree_source(block: int) -> str:
    """The in-block shared-memory tree (unrolled strides are not needed —
    the kernel language supports the halving while-style for loop)."""
    return f"""
    for (int st = {block // 2}; st > 0; st = st / 2) {{
        if (tidx < st)
            sdata[tidx] += sdata[tidx + st];
        __syncthreads();
    }}
    if (tidx == 0)
        partial[bidx] = sdata[0];
"""


def block_reduce_source(plan: ReductionPlan) -> str:
    """Stage-1 kernel: map + per-thread accumulate + block tree."""
    b, t = plan.block_threads, plan.thread_merge
    chunk = b * t
    if plan.load_style == "direct":
        body = f"""
__global__ void rd_block(float a[n], float partial[nb], int n, int nb) {{
    __shared__ float sdata[{b}];
    float acc = 0;
    for (int j = 0; j < {t}; j++) {{
        int pos = bidx * {chunk} + j * {b} + tidx;
        if (pos < n)
            acc += a[pos];
    }}
    sdata[tidx] = acc;
    __syncthreads();
{_tree_source(b)}
}}
"""
    elif plan.load_style == "vectorized":
        # One float2 per element pair: coalesced, straight to registers.
        body = f"""
__global__ void rd_block(float2 a[n], float partial[nb], int n, int nb) {{
    __shared__ float sdata[{b}];
    float acc = 0;
    for (int j = 0; j < {t}; j++) {{
        int pos = bidx * {chunk} + j * {b} + tidx;
        if (pos < n) {{
            float2 f0 = a[pos];
            acc += fabsf(f0.x) + fabsf(f0.y);
        }}
    }}
    sdata[tidx] = acc;
    __syncthreads();
{_tree_source(b)}
}}
"""
    elif plan.load_style == "staged":
        # Figure 14's optimized_wo_vec: the strided pair a[2*pos] /
        # a[2*pos+1] is staged through shared memory in two coalesced
        # chunks, then consumed at stride 2 (extra shared-memory traffic).
        body = f"""
__global__ void rd_block(float a[n2], float partial[nb], int n2, int nb) {{
    __shared__ float sdata[{b}];
    __shared__ float stage[{2 * b}];
    float acc = 0;
    for (int j = 0; j < {t}; j++) {{
        int base = bidx * {2 * chunk} + j * {2 * b};
        if (base + tidx < n2) {{
            stage[tidx] = a[base + tidx];
            stage[{b} + tidx] = a[base + {b} + tidx];
        }}
        __syncthreads();
        if (base + 2 * tidx < n2)
            acc += fabsf(stage[2 * tidx]) + fabsf(stage[2 * tidx + 1]);
        __syncthreads();
    }}
    sdata[tidx] = acc;
    __syncthreads();
{_tree_source(b)}
}}
"""
    else:
        raise PassError(f"unknown load style {plan.load_style!r}")
    return body


def partial_reduce_source(block: int) -> str:
    """Stage-2 kernel: plain sum over the partials array."""
    return f"""
__global__ void rd_partial(float a[n], float partial[nb], int n, int nb) {{
    __shared__ float sdata[{block}];
    float acc = 0;
    for (int pos = bidx * {block} + tidx; pos < n; pos = pos + {block} * gdimx)
        acc += a[pos];
    sdata[tidx] = acc;
    __syncthreads();
{_tree_source(block)}
}}
"""


@dataclass
class CompiledReduction:
    """The fissioned program: stage-1 kernel + relaunched stage-2 kernel."""

    name: str
    plan: ReductionPlan
    stage1: Kernel
    stage2: Kernel
    n_elements: int                 # logical elements (pairs count as one)
    machine: GpuSpec
    log: List[str] = field(default_factory=list)
    # Degradation history of a resilient compile: one dict per attempt
    # ({'block_threads', 'thread_merge', 'error'|'ok'}).  None when the
    # compile was not resilient.
    resilience: Optional[List[Dict[str, object]]] = None

    @property
    def stage1_source(self) -> str:
        return print_kernel(self.stage1)

    @property
    def stage2_source(self) -> str:
        return print_kernel(self.stage2)

    def stage1_grid(self) -> int:
        chunk = self.plan.block_threads * self.plan.thread_merge
        return max(1, -(-self.n_elements // chunk))

    def launches(self) -> List[Tuple[str, LaunchConfig, int]]:
        """(kernel, config, input_size) for every launch of the program."""
        out = [("stage1",
                LaunchConfig(grid=(self.stage1_grid(), 1),
                             block=(self.plan.block_threads, 1)),
                self.n_elements)]
        size = self.stage1_grid()
        block = self.plan.block_threads
        while size > 1:
            grid = max(1, min(64, -(-size // block)))
            out.append(("stage2",
                        LaunchConfig(grid=(grid, 1), block=(block, 1)),
                        size))
            size = grid
        return out

    def run(self, data: np.ndarray,
            backend: Optional[str] = None,
            profile: Optional[List] = None) -> float:
        """Reduce ``data`` on the functional simulator; returns the result.

        ``data`` is the flat float32 input (for the complex styles, the
        interleaved re/im array of ``2 * n_elements`` floats).  When
        ``profile`` is a list, every launch of the fissioned program
        appends a ``(label, KernelProfile)`` pair to it (labels from
        :meth:`launches`), so callers see the dynamic counters of the
        whole multi-launch reduction.
        """
        plan = self.plan
        launches = self.launches()
        _, config1, _ = launches[0]
        nb = config1.grid[0]
        partial = np.zeros(max(nb, 1), dtype=np.float32)
        if plan.load_style == "direct":
            arrays = {"a": data, "partial": partial}
            scalars = {"n": self.n_elements, "nb": nb}
        elif plan.load_style == "vectorized":
            arrays = {"a": data.reshape(-1, 2), "partial": partial}
            scalars = {"n": self.n_elements, "nb": nb}
        else:
            arrays = {"a": data, "partial": partial}
            scalars = {"n2": 2 * self.n_elements, "nb": nb}
        collector = self._collector(profile, self.stage1, config1)
        used = run_kernel(self.stage1, config1, arrays, scalars,
                          backend=backend, profile=collector)
        if collector is not None:
            profile.append(("stage1", collector.finalize(used)))
        current = partial
        for _, config, size in launches[1:]:
            nxt = np.zeros(config.grid[0], dtype=np.float32)
            collector = self._collector(profile, self.stage2, config)
            used = run_kernel(self.stage2, config,
                              {"a": current, "partial": nxt},
                              {"n": size, "nb": config.grid[0]},
                              backend=backend, profile=collector)
            if collector is not None:
                profile.append(("stage2", collector.finalize(used)))
            current = nxt
        return float(current[0])

    @staticmethod
    def _collector(profile: Optional[List], kernel: Kernel,
                   config: LaunchConfig):
        if profile is None:
            return None
        from repro.obs.profile import ProfileCollector
        return ProfileCollector(kernel, config)


def compile_reduction(source: str, n_elements: int,
                      machine: GpuSpec = GTX280,
                      plan: Optional[ReductionPlan] = None,
                      vectorize: bool = True,
                      *,
                      resilient: bool = False,
                      validate: bool = False,
                      faults: Optional[object] = None,
                      cleanup: bool = True) -> CompiledReduction:
    """Compile a global-sync reduction kernel into a fissioned program.

    ``vectorize=False`` with a complex-pair naive kernel produces the
    ``staged`` style (Figure 14's ``optimized_wo_vec``).

    ``resilient`` turns failures at the ``reduction`` fission site —
    injected faults, unexpected exceptions, validation mismatches — into
    a degradation ladder that halves ``thread_merge`` (then the block
    size) and retries; ``validate`` differentially checks the fissioned
    program against an exact integer sum (mismatch raises
    :class:`PassError` when not resilient); ``faults`` is an armed
    :class:`repro.resilience.faults.FaultPlan`.
    """
    naive = parse_kernel(source)
    array = recognize_reduction(naive)
    if array is None:
        raise PassError("kernel is not a recognizable global-sync reduction")
    plan = plan or ReductionPlan()
    log = [f"reduction: recognized halving tree over array {array!r}"]

    # Detect a complex-pair map prologue: accesses a[2*idx] / a[2*idx+1].
    from repro.ir.access import collect_accesses
    from repro.passes.vectorize import find_pairs
    sizes = {p.name: 1 << 20 for p in naive.scalar_params()}
    pairs = find_pairs(collect_accesses(naive, sizes))
    if pairs:
        if vectorize:
            plan.load_style = "vectorized"
            log.append("reduction: complex pairs vectorized into float2 "
                       "loads (Section 3.1)")
        else:
            plan.load_style = "staged"
            log.append("reduction: vectorization disabled; strided pair "
                       "loads staged through shared memory (Section 3.3)")
    else:
        plan.load_style = "direct"

    attempts: Optional[List[Dict[str, object]]] = [] if resilient else None
    while True:
        try:
            compiled = _build_reduction(naive.name, plan, n_elements,
                                        machine, list(log), faults=faults,
                                        validate=validate, cleanup=cleanup)
            if attempts is not None:
                attempts.append({"block_threads": plan.block_threads,
                                 "thread_merge": plan.thread_merge,
                                 "ok": True})
                compiled.resilience = attempts
            return compiled
        except Exception as exc:
            if not resilient:
                raise
            attempts.append({"block_threads": plan.block_threads,
                             "thread_merge": plan.thread_merge,
                             "error": f"{type(exc).__name__}: {exc}"})
            log.append(f"resilience: reduction attempt "
                       f"(block={plan.block_threads}, thread merge "
                       f"{plan.thread_merge}) rolled back: {exc}")
            # Degradation ladder: halve the per-thread merge first (the
            # cheap knob), then the block size; give up below one warp.
            if plan.thread_merge > 1:
                plan = ReductionPlan(block_threads=plan.block_threads,
                                     thread_merge=plan.thread_merge // 2,
                                     load_style=plan.load_style)
            elif plan.block_threads > 32:
                plan = ReductionPlan(block_threads=plan.block_threads // 2,
                                     thread_merge=1,
                                     load_style=plan.load_style)
            else:
                raise PassError(
                    f"reduction degradation ladder exhausted: {exc}"
                ) from exc


def _build_reduction(name: str, plan: ReductionPlan, n_elements: int,
                     machine: GpuSpec, log: List[str],
                     faults: Optional[object] = None,
                     validate: bool = False,
                     cleanup: bool = True) -> CompiledReduction:
    """One rung of the reduction ladder: build, optionally corrupt
    (fault injection), then optionally validate the fissioned program."""
    if faults is not None:
        faults.check_raise("reduction")
    log.append(f"reduction: kernel fission into block tree "
               f"(block={plan.block_threads}, thread merge "
               f"{plan.thread_merge}) + relaunch over partials")
    stage1 = parse_kernel(block_reduce_source(plan))
    stage2 = parse_kernel(partial_reduce_source(plan.block_threads))
    compiled = CompiledReduction(name=name, plan=plan, stage1=stage1,
                                 stage2=stage2, n_elements=n_elements,
                                 machine=machine, log=log)
    # Proof-carrying cleanup of stage 1 under its actual launch geometry:
    # when the element count divides the per-block chunk exactly, the
    # dataflow engine proves the ragged bounds guard always-true, and the
    # cleanup pass deletes it and folds the index into the load (the form
    # a tuned library ships).  Stage 2
    # is relaunched with shrinking n/grid, so no single geometry covers
    # it — it is never cleaned.
    if cleanup:
        from repro.passes.simplify import cleanup_kernel
        nb = compiled.stage1_grid()
        if plan.load_style == "staged":
            stage1_sizes = {"n2": 2 * n_elements, "nb": nb}
        else:
            stage1_sizes = {"n": n_elements, "nb": nb}
        cleaned = cleanup_kernel(stage1, stage1_sizes,
                                 (plan.block_threads, 1), (nb, 1))
        for proof in cleaned.proofs:
            log.append(f"cleanup: {proof.render()}")
    if faults is not None and faults.trip("corrupt", "reduction"):
        from repro.resilience.faults import corrupt_kernel
        desc = corrupt_kernel(compiled.stage1)
        log.append(f"fault: corrupted reduction stage-1 kernel "
                   f"({desc or 'no array access found'})")
    if faults is not None and faults.trip("budget", "reduction"):
        raise PassError("injected budget exhaustion at 'reduction'")
    if validate:
        from repro.resilience.validate import validate_reduction
        failure = validate_reduction(compiled)
        if failure is not None:
            raise PassError(f"reduction validation failed: {failure}")
    return compiled
