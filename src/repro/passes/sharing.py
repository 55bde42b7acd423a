"""Merge planning: data sharing -> merge decisions (Sections 3.4 / 3.5.3).

The planner runs the coalescing transform on a *scratch clone* of the naive
kernel (with the default 16x1 block), classifies every remaining global
load as G2S (feeds shared memory) or G2R (feeds registers), intersects
block footprints along X and Y, and applies the paper's selection rules:

* sharing caused by a **G2S** access -> **thread-block merge** (the shared
  memory already holds the data; widening the block extends its reach);
* sharing caused by a **G2R** access -> **thread merge** (registers hold
  the reused value, Figure 7);
* a block with too few threads -> thread-block merge even without sharing
  (Section 3.5.3's last rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.access import collect_accesses
from repro.ir.dependence import SharingKind, analyze_sharing
from repro.lang.astnodes import ArrayRef, AssignStmt, Kernel
from repro.passes.base import CompilationContext, PassError
from repro.passes.coalesce_transform import CoalesceTransformPass, HALF_WARP


@dataclass
class MergePlan:
    """The planner's decisions, before factors are fixed."""

    block_merge_x: bool = False
    block_merge_y: bool = False
    thread_merge_x: bool = False
    thread_merge_y: bool = False
    block_for_threads: bool = False    # merge just to reach enough threads
    transpose_tile: bool = False       # block pinned at 16x16 by T staging
    reasons: List[str] = field(default_factory=list)

    def any_merge(self) -> bool:
        return (self.block_merge_x or self.block_merge_y
                or self.thread_merge_x or self.thread_merge_y
                or self.block_for_threads)


def plan_merges(naive_kernel: Kernel, sizes: Dict[str, int],
                domain: Tuple[int, int], machine) -> MergePlan:
    """Analyze a naive kernel and decide merge directions."""
    scratch = CompilationContext(kernel=naive_kernel.clone(), sizes=dict(sizes),
                                 domain=domain, machine=machine)
    CoalesceTransformPass(block=(HALF_WARP, 1)).run(scratch)
    plan = MergePlan()
    shared_names = {s.shared_name for s in scratch.staged_loads}
    if any(s.case == "T" for s in scratch.staged_loads):
        plan.transpose_tile = True
        plan.reasons.append("transpose tile pins the block at 16x16")

    accesses = collect_accesses(scratch.kernel, scratch.sizes)
    sharings = analyze_sharing(
        [a for a in accesses if a.space == "global"],
        block_dims=scratch.block)

    # Thread merge along Y is unsound when staging indexes rows relative to
    # the block base (tidy-relative aprons/tiles) — see ThreadMergePass.
    tm_y_allowed = not any(s.case in ("S", "T") and s.idy_dependent
                           for s in scratch.staged_loads)

    for s in sharings:
        if s.unevaluable is not None:
            # Refused detectably: no footprint, so no merge rests on it.
            line = (f"load {s.access.array}: footprint not evaluable "
                    f"({s.unevaluable}); no merge decided from it")
            if line not in plan.reasons:
                plan.reasons.append(line)
        if s.kind is SharingKind.NONE:
            continue
        is_g2s = (isinstance(s.access.stmt, AssignStmt)
                  and isinstance(s.access.stmt.target, ArrayRef)
                  and s.access.stmt.target.base.name in shared_names)
        kind = "G2S" if is_g2s else "G2R"
        desc = (f"{kind} load {s.access.array} shares data along "
                f"{s.direction.upper()} ({s.kind.value})")
        if s.direction == "x" and domain[0] <= HALF_WARP:
            continue
        if s.direction == "y" and domain[1] <= 1:
            continue
        if is_g2s:
            if s.direction == "x":
                if not plan.block_merge_x:
                    plan.reasons.append(desc + " -> thread-block merge X")
                plan.block_merge_x = True
            else:
                if plan.transpose_tile:
                    continue
                if not plan.block_merge_y:
                    plan.reasons.append(desc + " -> thread-block merge Y")
                plan.block_merge_y = True
        else:
            if s.direction == "y":
                if tm_y_allowed:
                    if not plan.thread_merge_y:
                        plan.reasons.append(desc + " -> thread merge Y")
                    plan.thread_merge_y = True
                else:
                    if not plan.block_merge_y:
                        plan.reasons.append(
                            desc + " -> thread-block merge Y (thread merge "
                            "blocked by tidy-relative staging)")
                    plan.block_merge_y = True
            else:
                # G2R sharing along X: registers cannot be shared across
                # threads of different X positions without replicating the
                # whole column; prefer a block merge so shared memory can
                # be introduced (Section 3.5.3's register-pressure rule).
                if not plan.block_merge_x:
                    plan.reasons.append(desc + " -> thread-block merge X")
                plan.block_merge_x = True

    if not plan.any_merge() and not plan.transpose_tile:
        plan.block_for_threads = True
        plan.reasons.append(
            "no inter-block sharing; thread-block merge along X only to "
            "reach enough threads per block (Section 3.5.3)")
    return plan
