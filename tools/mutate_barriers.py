"""Barrier mutation harness: a measured kill-rate floor for the race stack.

Mutation testing for the race-detection stack itself: take the compiled
suite kernels whose correctness *depends* on their barriers (mm/tp
stages with shared staging, the fissioned reduction's stage-1 kernel),
break each ``__syncthreads()`` one at a time — drop it, or move it one
statement earlier/later past a shared-memory access — and ask whether
anything notices.  A mutant is *killed* when

1. the static verifier reports an error on it (``verifier:<analysis>``);
2. the lockstep run errors or its bits differ from the unmutated
   kernel's (``differential:<why>``); or
3. some seeded schedule disagrees with the mutant's own lockstep run
   (``schedule:seed=K``) — the mutant is racy even though one
   interleaving happens to produce the right answer.

Move-mutants are only generated when the statement being swapped past
touches shared memory: moving a barrier past a register-only statement
is an equivalent mutant no oracle could (or should) kill, and counting
it would turn the kill rate into noise.

The measured floor is **90%**: ``tests/test_mutation_kill.py`` fails the
build if the stack kills fewer, and running this file directly prints
the per-target kill table::

    PYTHONPATH=src python tools/mutate_barriers.py [--schedules K]

Exit code 1 when the kill rate is below the floor (CI-friendly).
"""

from __future__ import annotations

import argparse
import copy
import sys
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis import verify_kernel
from repro.compiler import compile_stages
from repro.kernels import naive
from repro.kernels.suite import ALGORITHMS
from repro.lang.astnodes import (
    ArrayRef,
    DeclStmt,
    Kernel,
    Stmt,
    SyncStmt,
    child_stmt_lists,
    walk_exprs,
    walk_exprs_of_stmt,
    walk_stmts,
)
from repro.machine import GTX280
from repro.obs.trace import snippet
from repro.reduction import ReductionPlan, compile_reduction
from repro.sim.differential import compare, run, schedule_sweep
from repro.sim.interp import Launch, LaunchConfig
from repro.sim.scheduled import schedule_plan

#: The kill-rate floor the whole race-detection stack must clear.
KILL_FLOOR = 0.9


# ---------------------------------------------------------------------------
# Mutant generation
# ---------------------------------------------------------------------------

def shared_names(kernel: Kernel) -> set:
    """Names of ``__shared__`` declarations in the kernel body."""
    return {s.name for s in walk_stmts(kernel.body)
            if isinstance(s, DeclStmt) and s.shared}


def touches_shared(stmt: Stmt, names: set) -> bool:
    """Does any expression in ``stmt``'s subtree access a shared array?"""
    for sub in walk_stmts([stmt]):
        for top in walk_exprs_of_stmt(sub):
            for expr in walk_exprs(top):
                if isinstance(expr, ArrayRef) \
                        and expr.base.name in names:
                    return True
    return False


def _sync_sites(body: List[Stmt]) -> List[Tuple[List[Stmt], int]]:
    """Every (statement-list, index) holding a SyncStmt, in pre-order.

    The traversal is deterministic, so site ``b`` of a ``deepcopy`` is
    the copy of site ``b`` of the original — which is how mutations
    planned on the original are applied to fresh copies.
    """
    sites: List[Tuple[List[Stmt], int]] = []

    def walk(lst: List[Stmt]) -> None:
        for i, s in enumerate(lst):
            if isinstance(s, SyncStmt):
                sites.append((lst, i))
            for sub in child_stmt_lists(s):
                walk(sub)

    walk(body)
    return sites


def barrier_mutants(kernel: Kernel) -> Iterator[Tuple[Kernel, str]]:
    """Yield (mutant, description) for every barrier mutation.

    Per barrier: one *drop* mutant, plus a *move-earlier* / *move-later*
    mutant for each neighbouring statement that touches shared memory
    (swapping past anything else is behaviourally equivalent).
    """
    names = shared_names(kernel)
    sites = _sync_sites(kernel.body)
    for b in range(len(sites)):
        lst, i = sites[b]

        mutant = copy.deepcopy(kernel)
        mlst, mi = _sync_sites(mutant.body)[b]
        del mlst[mi]
        yield mutant, f"drop barrier #{b}"

        if i > 0 and touches_shared(lst[i - 1], names):
            mutant = copy.deepcopy(kernel)
            mlst, mi = _sync_sites(mutant.body)[b]
            mlst[mi - 1], mlst[mi] = mlst[mi], mlst[mi - 1]
            yield mutant, (f"move barrier #{b} earlier past "
                           f"'{snippet(lst[i - 1])}'")

        if i + 1 < len(lst) and touches_shared(lst[i + 1], names):
            mutant = copy.deepcopy(kernel)
            mlst, mi = _sync_sites(mutant.body)[b]
            mlst[mi], mlst[mi + 1] = mlst[mi + 1], mlst[mi]
            yield mutant, (f"move barrier #{b} later past "
                           f"'{snippet(lst[i + 1])}'")


# ---------------------------------------------------------------------------
# Kill logic
# ---------------------------------------------------------------------------

def kill_mutant(mutant: Kernel, sizes: Dict[str, int],
                config: LaunchConfig, arrays: Dict[str, np.ndarray],
                scalars: Dict[str, object],
                reference_out: Dict[str, np.ndarray],
                schedules: int = 8) -> Optional[str]:
    """Run the full race stack on one mutant; return the kill reason
    (``None`` = survivor)."""
    # 1. static verifier (races / divergence / bounds analyses).
    try:
        report = verify_kernel(mutant, sizes, tuple(config.block),
                               tuple(config.grid), machine=GTX280)
    except Exception as exc:
        return f"verifier:crash:{type(exc).__name__}"
    if report.errors:
        return f"verifier:{report.errors[0].analysis}"

    # 2. differential: mutant lockstep vs the unmutated kernel's bits.
    lockstep = run(mutant, config, arrays, scalars, backend="lockstep")
    if lockstep.exc is not None:
        return f"differential:{type(lockstep.exc).__name__}"
    mismatch = compare(lockstep.outputs, reference_out)
    if mismatch:
        # compare() names the array first: "array 'c': ...".
        return "differential:output:" + mismatch.split("'")[1]

    # 3. schedule oracle: any seeded interleaving that disagrees with
    #    the mutant's own lockstep bits proves the mutant racy.
    for seed, _, ev in schedule_sweep(mutant, config, arrays, scalars,
                                      schedule_plan(schedules)):
        if ev.exc is not None:
            return f"schedule:seed={seed}:{type(ev.exc).__name__}"
        if compare(ev, lockstep):
            return f"schedule:seed={seed}"
    return None


# ---------------------------------------------------------------------------
# Harness targets: suite kernels whose barriers carry the correctness
# ---------------------------------------------------------------------------

def _target(label: str, launch: Launch, arrays: Dict[str, np.ndarray]):
    """One harness target: (label, kernel, sizes, config, arrays,
    scalars) for a launch of a compiled program."""
    scalars = {p.name: launch.scalars[p.name]
               for p in launch.kernel.scalar_params()}
    return (label, launch.kernel, launch.scalars, launch.config, arrays,
            scalars)


def harness_targets(scale: int = 32):
    """(label, kernel, sizes, config, arrays, scalars) per barrier-carrying
    compiled kernel: every mm/tp stage that has barriers + rd stage 1."""
    for name in ("mm", "tp"):
        algo = ALGORITHMS[name]
        sizes = algo.sizes(scale)
        rng = np.random.default_rng(17)
        arrays = algo.make_arrays(rng, sizes)
        stages = compile_stages(algo.source, sizes, algo.domain(sizes),
                                GTX280)
        for stage_name, ck in stages.items():
            (launch,) = ck.launch_plan()
            if any(isinstance(s, SyncStmt)
                   for s in walk_stmts(launch.kernel.body)):
                yield _target(f"{name}/{stage_name}", launch,
                              {k: v.copy() for k, v in arrays.items()})

    n = 1 << 10
    cr = compile_reduction(naive.RD, n, GTX280,
                           ReductionPlan(block_threads=64, thread_merge=4))
    stage1 = cr.launch_plan()[0]
    rng = np.random.default_rng(17)
    data = rng.integers(0, 8, size=n).astype(np.float32)
    yield _target(f"rd/{stage1.label}", stage1,
                  {"a": data, "partial": np.zeros(stage1.config.grid[0],
                                                  dtype=np.float32)})


def run_harness(schedules: int = 8, scale: int = 32) -> Dict[str, object]:
    """Mutate every target and tally kills; returns the summary table."""
    table: List[Dict[str, object]] = []
    killed = total = 0
    for label, kernel, sizes, config, arrays, scalars in \
            harness_targets(scale):
        reference_out = run(kernel, config, arrays, scalars,
                            backend="lockstep").outputs
        # The unmutated kernel must pass the whole stack, or every kill
        # below would be vacuous (the oracle crying wolf, not catching
        # the mutation).
        baseline = kill_mutant(kernel, sizes, config, arrays, scalars,
                               reference_out, schedules=min(schedules, 2))
        if baseline is not None:
            raise RuntimeError(
                f"{label}: unmutated kernel already flagged ({baseline}); "
                f"mutation kills would be meaningless")
        for mutant, desc in barrier_mutants(kernel):
            reason = kill_mutant(mutant, sizes, config, arrays, scalars,
                                 reference_out, schedules=schedules)
            total += 1
            killed += reason is not None
            table.append({"target": label, "mutant": desc,
                          "killed_by": reason})
    rate = killed / total if total else 0.0
    return {"mutants": total, "killed": killed, "rate": rate,
            "floor": KILL_FLOOR, "table": table}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Barrier-mutation kill-rate harness.")
    parser.add_argument("--schedules", type=int, default=8,
                        help="seeded schedules per surviving mutant "
                             "(default 8)")
    parser.add_argument("--scale", type=int, default=32,
                        help="suite kernel scale (default 32)")
    args = parser.parse_args(argv)
    summary = run_harness(schedules=args.schedules, scale=args.scale)
    width = max(len(row["target"]) for row in summary["table"]) + 2
    for row in summary["table"]:
        status = row["killed_by"] or "SURVIVED"
        print(f"{row['target']:<{width}} {row['mutant']:<44} {status}")
    print(f"\nkill rate: {summary['killed']}/{summary['mutants']} "
          f"= {summary['rate']:.0%} (floor {KILL_FLOOR:.0%})")
    return 0 if summary["rate"] >= KILL_FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
