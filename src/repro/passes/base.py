"""Pass infrastructure: the shared compilation context and pass protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang.astnodes import ForStmt, Kernel, Stmt
from repro.machine import GTX280, GpuSpec
from repro.obs.trace import Tracer


class PassError(Exception):
    """A pass could not apply (unsupported kernel shape, bad config)."""


@dataclass
class StagedLoad:
    """Bookkeeping for one shared-memory staging introduced by the
    coalescing transform (a *G2S* load in the paper's terminology)."""

    shared_name: str                  # the __shared__ array
    source_array: str                 # the global array it stages
    case: str                         # 'R' | 'C' | 'T' | 'S' (DESIGN.md 5)
    load_stmts: List[Stmt]            # the G2S assignment statement(s)
    shared_elems: int                 # size for the occupancy calculator
    idx_dependent: bool               # does the load address involve idx?
    idy_dependent: bool               # ... or idy?


@dataclass
class CompilationContext:
    """Everything the pipeline threads through its passes.

    ``kernel`` is rewritten in place (each pass replaces ``kernel.body``);
    the rest records the decisions the later passes and the performance
    model need.  ``trace`` is the structured event stream (spans, timed
    passes, decision records with provenance — :mod:`repro.obs.trace`);
    ``log`` renders it as the human-readable decision trace the case-study
    example prints (paper Section 5).
    """

    kernel: Kernel
    sizes: Dict[str, int]
    domain: Tuple[int, int]              # fine-grain work items along (X, Y)
    machine: GpuSpec = GTX280

    # Thread-block dimensions built up by the passes.  The naive kernel is
    # one work item per thread with no block structure; coalescing sets
    # X=16 (one half warp per block, Section 3.3).
    block: Tuple[int, int] = (1, 1)

    # Aggregation factors applied by the merge pass.
    block_merge: Tuple[int, int] = (1, 1)    # blocks merged along (X, Y)
    thread_merge: Tuple[int, int] = (1, 1)   # work items per thread (X, Y)

    staged_loads: List[StagedLoad] = field(default_factory=list)
    main_loop: Optional[ForStmt] = None      # the strip-mined loop, if any
    prefetch_applied: bool = False
    partition_fix: Optional[str] = None      # 'offset' | 'diagonal' | None
    vectorized: bool = False
    # Symbolic array extents halved by vectorization: callers must bind
    # these size parameters to half the scalar-element count.
    halved_extents: set = field(default_factory=set)

    # Estimated per-thread register usage (updated by merge/prefetch).
    est_registers: int = 8

    trace: Tracer = field(default_factory=Tracer)

    # An armed repro.resilience.faults.FaultPlan (duck-typed here so the
    # pass layer needs no resilience import): each pass consults it on
    # entry and raises an injected fault if one is armed at its site.
    faults: Optional[object] = None

    @property
    def log(self) -> List[str]:
        """The rendered decision log (a view over ``trace``)."""
        return self.trace.render_lines()

    def note(self, message: str, *, rule: str = "", stmt=None,
             before: str = "", after: str = "", **details) -> None:
        """Record a decision; ``message`` is what the rendered log shows.

        The keyword fields are structured provenance: ``rule`` is a
        machine-readable id of the heuristic that fired, ``stmt`` anchors
        the decision to a printed source line, ``before``/``after`` are
        rewrite snippets, and extra keywords land in the event's details.
        """
        self.trace.decision(message, rule=rule, stmt=stmt, before=before,
                            after=after, details=details or None)

    def warn(self, message: str, *, rule: str = "", stmt=None,
             location: str = "", **details) -> None:
        """Record a warning (verifier findings, launch advisories)."""
        self.trace.warning(message, rule=rule, stmt=stmt, location=location,
                           details=details or None)

    # -- derived quantities --------------------------------------------------

    @property
    def work_per_block(self) -> Tuple[int, int]:
        """Output elements covered by one thread block along (X, Y)."""
        return (self.block[0] * self.thread_merge[0],
                self.block[1] * self.thread_merge[1])

    @property
    def grid(self) -> Tuple[int, int]:
        wx, wy = self.work_per_block
        gx = max(1, -(-self.domain[0] // wx))
        gy = max(1, -(-self.domain[1] // wy))
        return gx, gy

    @property
    def threads_per_block(self) -> int:
        return self.block[0] * self.block[1]

    def shared_mem_bytes(self) -> int:
        """Shared memory the current kernel body declares, in bytes."""
        from repro.lang.astnodes import DeclStmt, walk_stmts
        total = 0
        for stmt in walk_stmts(self.kernel.body):
            if isinstance(stmt, DeclStmt) and stmt.shared:
                elems = 1
                for d in stmt.dims:
                    elems *= d if isinstance(d, int) else self.sizes.get(d, 1)
                total += elems * stmt.type.size_bytes
        return total


class Pass:
    """A named transformation over a :class:`CompilationContext`.

    Calling the pass (rather than ``run`` directly) wraps execution in a
    timed trace span, so decisions emitted inside attribute to the pass
    and the trace records where compile time went.
    """

    name = "pass"

    #: The resilience site this pass belongs to ('' = not a guarded
    #: site).  Fault injection (repro.resilience.faults) keys on this.
    site = ""

    def run(self, ctx: CompilationContext) -> None:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, ctx: CompilationContext) -> None:
        with ctx.trace.span(self.name):
            if self.site and ctx.faults is not None:
                ctx.faults.check_raise(self.site)
            self.run(ctx)
