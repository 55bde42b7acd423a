"""Top-level compiler driver: naive kernel in, optimized kernel + launch out.

Mirrors the paper's Figure 1 pipeline::

    naive kernel
      -> vectorization (3.1)
      -> coalescing check + conversion (3.2, 3.3)     [plan, then generate]
      -> data-sharing analysis (3.4)
      -> thread / thread-block merge (3.5)
      -> partition-camping elimination (3.7)
      -> data prefetching (3.6, skipped under register pressure)
      -> optimized kernel + launch configuration

Thread-block merge is realized by *regenerating* the staging for the merged
block shape (see :mod:`repro.passes.coalesce_transform`), so the driver
first plans on a scratch copy and then rebuilds from the naive kernel.

Every stage can be disabled independently, which is how the Figure 12
step-dissection benchmark measures each optimization's contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.lang.astnodes import Kernel, SyncStmt, walk_stmts
from repro.lang.parser import parse_kernel
from repro.lang.printer import print_kernel
from repro.lang.semantic import check_kernel
from repro.machine import GTX280, GpuSpec
from repro.passes.base import CompilationContext, PassError
from repro.passes.coalesce_transform import CoalesceTransformPass, HALF_WARP
from repro.passes.launch import LaunchPass, LaunchPlan
from repro.passes.merge import ThreadMergePass
from repro.passes.partition import PartitionCampingPass
from repro.passes.prefetch import PrefetchPass
from repro.passes.sharing import MergePlan, plan_merges
from repro.passes.vectorize import VectorizePass
from repro.sim.backend import run_kernel
from repro.sim.differential import lanes_view
from repro.sim.interp import Launch, LaunchConfig


@dataclass(frozen=True)
class CompileOptions:
    """Stage toggles and merge-factor overrides.

    ``None`` factors mean "let the planner choose" (the empirical search of
    Section 4 sweeps them via :mod:`repro.explore`).
    """

    enable_vectorize: bool = True
    enable_coalesce: bool = True
    enable_merge: bool = True
    enable_prefetch: bool = True
    enable_partition: bool = True
    # Proof-carrying deletion of redundant guards/barriers (dataflow).
    enable_cleanup: bool = True

    block_merge_x: Optional[int] = None   # blocks merged along X (xN)
    block_merge_y: Optional[int] = None
    thread_merge_x: Optional[int] = None  # work items per thread along X
    thread_merge_y: Optional[int] = None

    # Section 4.1: the compiler tries 128 / 256 / 512 threads per block.
    target_threads: int = 256

    # Run the static verifier (repro.analysis) on the transformed kernel:
    # error findings raise PassError, warnings join the decision trace.
    verify: bool = False

    # -- resilience (repro.resilience, DESIGN.md 5.5) -----------------------
    # ``resilient`` checkpoints every optimization site and rolls a failing
    # pass back instead of aborting; ``validate`` additionally re-verifies
    # and differentially simulates the kernel after each pass (implies
    # resilient); ``pass_budget_s`` is the per-pass wall-clock budget
    # (overrun = rollback); ``faults`` is an armed FaultPlan for chaos
    # testing (duck-typed to keep this module import-light).
    resilient: bool = False
    validate: bool = False
    pass_budget_s: Optional[float] = None
    faults: Optional[object] = None

    def fingerprint(self) -> Dict[str, object]:
        """A canonical, JSON-stable identity of these options.

        This is the options component of the compile service's
        content-addressed cache key (:mod:`repro.serve.store`), so it
        must cover *every* field that can change the compiled artifact.
        ``faults`` is an armed :class:`repro.resilience.faults.FaultPlan`
        (mutable, unhashable); its identity is the sorted spec list, so
        a fault-injected compile never shares a cache entry with a clean
        one.
        """
        from dataclasses import fields
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "faults":
                value = sorted(value.specs()) if value is not None else None
            out[f.name] = value
        return out


#: The passes the cumulative stages turn on, in pipeline order.
_STAGE_PASSES = ("vectorize", "coalesce", "merge", "prefetch", "partition")

#: The cumulative stages of the Figure 12 dissection, in pipeline order:
#: ``naive`` runs no optimization pass, ``+P`` adds pass P to the stage
#: before it, and ``+partition`` is the full pipeline.
STAGES: Tuple[str, ...] = ("naive",) + tuple(f"+{p}" for p in _STAGE_PASSES)

#: Command-line stage names: each stage without its ``+``, and ``full``.
STAGE_CHOICES: Dict[str, str] = {**{s.lstrip("+"): s for s in STAGES},
                                 "full": STAGES[-1]}


def stage_options(stage: str,
                  base: Optional[CompileOptions] = None) -> CompileOptions:
    """``base`` (default: all passes on) with every pass after ``stage``
    turned off."""
    later = _STAGE_PASSES[STAGES.index(stage):]
    return replace(base or CompileOptions(),
                   **{f"enable_{p}": False for p in later})


def uses_global_sync(kernel: Kernel) -> bool:
    return any(isinstance(s, SyncStmt) and s.scope == "global"
               for s in walk_stmts(kernel.body))


@dataclass
class CompileAttempt:
    """One rung of the degradation ladder: a full pipeline attempt.

    Every ``_compile_once`` invocation — including the failed ones the
    block-size retry loop discards — leaves one of these on the final
    :class:`CompiledKernel`, so ``--explain`` can show the complete
    degradation history with each attempt's trace and PassError.
    """

    target_threads: int
    trace: object                        # the attempt's Tracer
    floor: bool = False                  # the all-optimizations-off rung
    error: Optional[str] = None          # PassError text if the rung failed
    ok: bool = False


@dataclass
class CompiledKernel:
    """The compiler's output: optimized AST, source text, launch config."""

    name: str
    kernel: Kernel
    config: LaunchConfig
    plan: LaunchPlan
    ctx: CompilationContext
    merge_plan: Optional[MergePlan]
    source: str
    # Degradation history (resilient compiles; empty/None otherwise).
    attempts: List[CompileAttempt] = field(default_factory=list)
    resilience: Optional[object] = None  # repro.resilience ResilienceReport

    @property
    def log(self) -> List[str]:
        return self.ctx.log

    @property
    def trace(self):
        """The structured compilation trace (:class:`repro.obs.trace.Tracer`)."""
        return self.ctx.trace

    def size_bindings(self) -> Dict[str, int]:
        """Scalar size bindings, with vector-halved extents adjusted."""
        out = dict(self.ctx.sizes)
        for name in self.ctx.halved_extents:
            out[name] = out[name] // 2
        return out

    def launch_plan(self) -> List[Launch]:
        """The program's one launch (see :class:`~repro.sim.interp.Launch`)."""
        return [Launch("", self.kernel, self.config, self.size_bindings(),
                       vector_lanes=2 if self.ctx.vectorized else 1,
                       registers=self.ctx.est_registers)]

    def run(self, arrays: Dict[str, np.ndarray],
            scalars: Optional[Dict[str, object]] = None,
            trace=None, backend: Optional[str] = None,
            profile=None, scheduler=None) -> str:
        """Execute on the functional simulator; ``arrays`` mutate in place.

        Float arrays for ``float2`` parameters may be passed flat; they are
        viewed as ``(n/2, 2)`` automatically.  ``backend`` selects the
        execution backend (see :mod:`repro.sim.backend`); the default
        follows the process-wide setting.  ``profile`` accepts a
        :class:`repro.obs.profile.ProfileCollector` that both backends
        feed with dynamic hardware counters.  Returns the name of the
        backend that ran.
        """
        bound = lanes_view(self.kernel, arrays)
        merged = self.size_bindings()
        if scalars:
            merged.update(scalars)
        args = {p.name: merged[p.name]
                for p in self.kernel.scalar_params()}
        return run_kernel(self.kernel, self.config, bound, args,
                          backend=backend, trace=trace, profile=profile,
                          scheduler=scheduler)

    def profile(self, arrays: Dict[str, np.ndarray],
                scalars: Optional[Dict[str, object]] = None,
                backend: Optional[str] = None):
        """Run once under a profiler; returns the ``KernelProfile``.

        Inputs are copied first, so the caller's arrays are untouched and
        the same data can be profiled across backends or stages.
        """
        from repro.obs.profile import ProfileCollector
        collector = ProfileCollector(self.kernel, self.config)
        copied = {name: np.array(a, copy=True)
                  for name, a in arrays.items()}
        used = self.run(copied, scalars, backend=backend, profile=collector)
        return collector.finalize(used)


def compile_kernel(source: Union[str, Kernel],
                   sizes: Dict[str, int],
                   domain: Tuple[int, int],
                   machine: GpuSpec = GTX280,
                   options: Optional[CompileOptions] = None,
                   ) -> CompiledKernel:
    """Compile one naive kernel (see module docstring)."""
    options = options or CompileOptions()
    naive = parse_kernel(source) if isinstance(source, str) else source
    check_kernel(naive, mode="naive")
    if uses_global_sync(naive):
        raise PassError(
            "kernels with __global_sync take the reduction path; use "
            "repro.reduction.compile_reduction")

    # Retry with smaller blocks when a staging layout exceeds shared memory
    # or the thread cap (the compiler tries 512/256/128... threads,
    # Section 4.1).  In resilient mode this loop is the *outer* rung of
    # the degradation ladder (DESIGN.md 5.5): per-pass rollback handles
    # everything else, and an all-optimizations-off floor sits below it.
    resilient = options.resilient or options.validate
    attempts: List[CompileAttempt] = []
    target = options.target_threads
    last_error: Optional[PassError] = None
    while target >= HALF_WARP:
        try:
            return _compile_once(naive, sizes, domain, machine,
                                 replace(options, target_threads=target),
                                 attempts=attempts)
        except PassError as exc:
            if attempts and attempts[-1].error is None:
                attempts[-1].error = str(exc)
            last_error = exc
            target //= 2
    if resilient:
        floor = replace(stage_options("naive", options),
                        target_threads=HALF_WARP)
        return _compile_once(naive, sizes, domain, machine, floor,
                             attempts=attempts, floor=True)
    raise last_error


def _naive_block(domain: Tuple[int, int],
                 machine: GpuSpec) -> Tuple[int, int]:
    """A plain programmer's launch for the un-optimized kernel: 16x16 for
    2-D domains, 256x1 for 1-D, clamped to tile the domain exactly."""
    if domain[1] > 1:
        block = [HALF_WARP, HALF_WARP]
    else:
        block = [min(256, max(HALF_WARP, domain[0])), 1]
    while block[0] > HALF_WARP and domain[0] % block[0]:
        block[0] //= 2
    while block[1] > 1 and domain[1] % block[1]:
        block[1] //= 2
    return (block[0], block[1])


def naive_launch(domain: Tuple[int, int], machine: GpuSpec) -> LaunchConfig:
    """The launch of the un-optimized kernel: :func:`_naive_block`, and
    a grid rounded up to cover the domain (as ``ctx.grid`` rounds)."""
    block = _naive_block(domain, machine)
    return LaunchConfig(grid=(max(1, -(-domain[0] // block[0])),
                              max(1, -(-domain[1] // block[1]))),
                        block=block)


def _compile_once(naive: Kernel, sizes: Dict[str, int],
                  domain: Tuple[int, int], machine: GpuSpec,
                  options: CompileOptions,
                  attempts: Optional[List[CompileAttempt]] = None,
                  floor: bool = False) -> CompiledKernel:
    ctx = CompilationContext(kernel=naive.clone(), sizes=dict(sizes),
                             domain=domain, machine=machine)
    ctx.faults = options.faults

    # Resilient compiles run every optimization site under a checkpointing
    # guard (repro.resilience); the default pipeline gets a pass-through
    # guard so its behavior is exactly the historical one.
    resilient = options.resilient or options.validate
    res_report = None
    if resilient:
        from repro.resilience.pipeline import PassGuard
        from repro.resilience.report import ResilienceReport
        res_report = ResilienceReport(target_threads=options.target_threads,
                                      validated=options.validate,
                                      floor=floor)
        validator = None
        if options.validate:
            from repro.resilience.validate import PipelineValidator
            validator = PipelineValidator(naive, sizes, domain, machine,
                                          report=res_report)
        guard = PassGuard(ctx, report=res_report, faults=options.faults,
                          validator=validator,
                          budget_s=options.pass_budget_s,
                          final_rung=floor
                          or options.target_threads <= HALF_WARP)
    else:
        from repro.resilience.pipeline import NullGuard
        guard = NullGuard()

    if attempts is not None:
        for prior in attempts:
            if prior.error:
                ctx.note(f"resilience: attempt at {prior.target_threads} "
                         f"target threads failed ({prior.error}); retrying "
                         f"at {options.target_threads}",
                         rule="resilience.retry",
                         target_threads=prior.target_threads)
        if floor:
            ctx.trace.rollback(
                "resilience: all block-size rungs failed; compiling at the "
                "no-optimization floor", site="pipeline", cause="pass-error")
        attempts.append(CompileAttempt(
            target_threads=options.target_threads, trace=ctx.trace,
            floor=floor))

    # -- stage 1: vectorization on the naive kernel -------------------------
    if options.enable_vectorize:
        guard.run_site("vectorize", lambda: VectorizePass()(ctx),
                       retryable=True)
    else:
        guard.skip_site("vectorize", "disabled")

    # -- stages 2+3: plan merges on a scratch staging, then generate the
    # staging for the final block shape (one rollback unit: the plan is
    # useless without its transform and vice versa) ------------------------
    merge_plan: Optional[MergePlan] = None
    coalesced = False
    if options.enable_coalesce:
        def _coalesce() -> None:
            nonlocal merge_plan
            block = (HALF_WARP, 1)
            with ctx.trace.span("plan"):
                plan = plan_merges(ctx.kernel, ctx.sizes, domain, machine)
                for r in plan.reasons:
                    ctx.note(f"plan: {r}", rule="plan.sharing")
            if options.enable_merge:
                block = _choose_block(plan, options, domain, machine)
            CoalesceTransformPass(block=block)(ctx)
            merge_plan = plan
        coalesced = guard.run_site("coalesce", _coalesce, retryable=True)
    else:
        guard.skip_site("coalesce", "disabled")
    if not coalesced:
        merge_plan = None
        ctx.block = _naive_block(domain, machine)

    # -- stage 4: thread merge ----------------------------------------------
    if options.enable_merge and merge_plan is not None:
        plan = merge_plan

        def _merge() -> None:
            tm_y = _thread_merge_factor(
                options.thread_merge_y, plan.thread_merge_y,
                domain[1], ctx.block[1], default=16)
            tm_x = _thread_merge_factor(
                options.thread_merge_x, plan.thread_merge_x,
                domain[0], ctx.block[0], default=4)
            if tm_y > 1:
                ThreadMergePass("y", tm_y)(ctx)
            if tm_x > 1:
                ThreadMergePass("x", tm_x)(ctx)
        guard.run_site("merge", _merge, retryable=True)
    elif options.enable_merge and options.enable_coalesce:
        guard.skip_site("merge", "dependency", "coalesce was rolled back")
    else:
        guard.skip_site("merge", "disabled")

    # -- stage 5: partition camping -----------------------------------------
    if options.enable_partition:
        guard.run_site("partition", lambda: PartitionCampingPass()(ctx),
                       retryable=True)
    else:
        guard.skip_site("partition", "disabled")

    # -- stage 6: prefetch (register budget permitting) ----------------------
    if options.enable_prefetch:
        if options.enable_coalesce and not coalesced:
            guard.skip_site("prefetch", "dependency",
                            "coalesce was rolled back")
        elif ctx.partition_fix == "offset":
            ctx.note("prefetch: skipped (address-offset rotation makes the "
                     "next-iteration source non-affine)",
                     rule="prefetch.skip.partition-offset")
            guard.skip_site("prefetch", "policy", "partition offset fix")
        elif not _registers_allow_prefetch(ctx):
            ctx.note("prefetch: skipped, registers already consumed by "
                     "thread merge (Section 6.2)",
                     rule="prefetch.skip.registers",
                     est_registers=ctx.est_registers)
            guard.skip_site("prefetch", "policy", "register budget")
        else:
            guard.run_site("prefetch", lambda: PrefetchPass()(ctx),
                           retryable=True)
    else:
        guard.skip_site("prefetch", "disabled")

    # -- stage 7: index-expression cleanup ------------------------------------
    from repro.passes.simplify import ProofCleanupPass, SimplifyPass
    guard.run_site("simplify", lambda: SimplifyPass()(ctx), retryable=True)

    # -- stage 7b: proof-carrying guard/barrier elimination -------------------
    if options.enable_cleanup:
        guard.run_site("cleanup", lambda: ProofCleanupPass()(ctx),
                       retryable=True)
    else:
        guard.skip_site("cleanup", "disabled")

    # -- stage 8: launch parameters ------------------------------------------
    launch = LaunchPass()
    launch(ctx)
    check_kernel(ctx.kernel, mode="optimized")
    compiled = CompiledKernel(
        name=ctx.kernel.name, kernel=ctx.kernel, config=launch.plan.config,
        plan=launch.plan, ctx=ctx, merge_plan=merge_plan,
        source=print_kernel(ctx.kernel),
        attempts=list(attempts or ()), resilience=res_report)

    # -- stage 9: optional static verification --------------------------------
    if options.verify:
        from repro.analysis import verify_compiled
        with ctx.trace.span("verify"):
            report = verify_compiled(compiled)
            for diag in report.warnings + report.infos:
                ctx.warn(f"verify: {diag.render()}",
                         rule=f"verify.{diag.analysis}",
                         stmt=diag.stmt,
                         severity=str(diag.severity),
                         array=diag.array or "",
                         analysis=diag.analysis)
                ctx.trace.count("findings")
        if report.has_errors:
            raise PassError(
                "static verification failed:\n"
                + report.render(min_severity=report.errors[0].severity))
    if attempts:
        attempts[-1].ok = True
    if res_report is not None:
        ctx.note(f"resilience: {res_report.summary_line()}",
                 rule="resilience.summary",
                 dropped=len(res_report.dropped), floor=res_report.floor)
    return compiled


# ---------------------------------------------------------------------------
# Planner heuristics
# ---------------------------------------------------------------------------

def _choose_block(plan: MergePlan, options: CompileOptions,
                  domain: Tuple[int, int], machine: GpuSpec
                  ) -> Tuple[int, int]:
    if plan.transpose_tile:
        return (HALF_WARP, HALF_WARP)
    bx_factor = 1
    if plan.block_merge_x or plan.block_for_threads:
        bx_factor = options.block_merge_x or \
            max(1, options.target_threads // HALF_WARP)
    elif options.block_merge_x:
        bx_factor = options.block_merge_x
    by = 1
    if plan.block_merge_y:
        by = options.block_merge_y or 4
    elif options.block_merge_y:
        by = options.block_merge_y
    bx = HALF_WARP * bx_factor
    # Respect the domain and the hardware block-size cap.
    while bx > HALF_WARP and bx > domain[0]:
        bx //= 2
    while by > 1 and by > domain[1]:
        by //= 2
    while bx * by > machine.max_threads_per_block and bx > HALF_WARP:
        bx //= 2
    while bx * by > machine.max_threads_per_block and by > 1:
        by //= 2
    # The block must tile the output domain exactly (naive kernels carry
    # no boundary guards; the paper's inputs are padded multiples).
    while bx > HALF_WARP and domain[0] % bx:
        bx //= 2
    while by > 1 and domain[1] % by:
        by //= 2
    return (bx, by)


def _thread_merge_factor(override: Optional[int], planned: bool,
                         extent: int, block_dim: int, default: int) -> int:
    factor = override if override is not None else (default if planned else 1)
    if factor <= 1:
        return 1
    # The merged coverage must divide the domain extent.
    while factor > 1 and extent % (block_dim * factor):
        factor //= 2
    return max(1, factor)


def _registers_allow_prefetch(ctx: CompilationContext) -> bool:
    machine = ctx.machine
    threads = ctx.threads_per_block
    if threads == 0:
        return False
    # Aim to keep at least two blocks resident per SM (latency hiding).
    budget = machine.registers_per_sm // (threads * 2)
    # Prefetch double-buffers every (replicated) G2S load through its own
    # register temp — after an N-way thread merge that is ~N new registers
    # (paper Section 6.2: the reason prefetching is usually skipped).
    temps = max(1, ctx.thread_merge[0] * ctx.thread_merge[1])
    return ctx.est_registers + temps <= budget


def compile_stages(source: Union[str, Kernel], sizes: Dict[str, int],
                   domain: Tuple[int, int], machine: GpuSpec = GTX280,
                   options: Optional[CompileOptions] = None,
                   ) -> Dict[str, CompiledKernel]:
    """Compile cumulative optimization stages (the Figure 12 dissection).

    Returns kernels for: ``naive`` (parsed, block 16x1), ``+vectorize``,
    ``+coalesce``, ``+merge``, ``+prefetch``, ``+partition`` (= full).
    """
    return {stage: compile_kernel(source, sizes, domain, machine,
                                  stage_options(stage, options))
            for stage in STAGES}
