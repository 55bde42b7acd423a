"""Lint adapter: dataflow facts rendered as ``dataflow.*`` diagnostics.

The engine (:mod:`repro.analysis.dataflow.engine`) and the def-use pass
(:mod:`repro.analysis.dataflow.defuse`) compute facts; this module turns
them into :class:`~repro.analysis.diagnostics.Diagnostic` records so
``python -m repro lint`` reports them next to the race/bounds/banks
findings.  Every diagnostic carries a stable rule id:

======================================  ========  =============================
rule                                    severity  meaning
======================================  ========  =============================
``dataflow.uninit-read``                warning   a ``__shared__`` read covers
                                                  addresses no store writes
``dataflow.dead-store``                 warning   a ``__shared__`` store no
                                                  read ever observes
``dataflow.redundant-guard``            info      a guard the engine proves
                                                  always-true/always-false
``dataflow.redundant-barrier``          info      a barrier no cross-thread
                                                  dependence spans
======================================  ========  =============================

The two info rules are exactly what :class:`repro.passes.simplify.
ProofCleanupPass` deletes, so on post-cleanup stages they report nothing;
on earlier stages they preview what cleanup will remove.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.lang.astnodes import Kernel

#: Stable lint rule ids (distinct from the proof rules in ``proofs.py``,
#: which name the *justification*; these name the *finding*).
RULE_LINT_UNINIT = "dataflow.uninit-read"
RULE_LINT_DEAD = "dataflow.dead-store"
RULE_LINT_GUARD = "dataflow.redundant-guard"
RULE_LINT_BARRIER = "dataflow.redundant-barrier"

LINT_RULES = (RULE_LINT_UNINIT, RULE_LINT_DEAD,
              RULE_LINT_GUARD, RULE_LINT_BARRIER)


def _fmt_addrs(addrs: List[int], cap: int = 6) -> str:
    shown = ", ".join(str(a) for a in addrs[:cap])
    if len(addrs) > cap:
        shown += f", ... ({len(addrs)} total)"
    return shown


def check_dataflow(kernel: Kernel, sizes: Mapping[str, int],
                   block: Tuple[int, int], grid: Tuple[int, int] = (1, 1),
                   *, kernel_name: str = "", stage: str = "",
                   accesses=None, slicing=None) -> List[Diagnostic]:
    """Run the dataflow analyses and report findings as diagnostics.

    ``accesses``/``slicing`` accept the shared products of
    :func:`repro.ir.access.collect_accesses` and
    :func:`repro.sim.phases.slice_phases` so the verifier computes them
    once across all analyses.
    """
    from repro.analysis.dataflow.defuse import (
        removable_barriers,
        shared_defuse,
    )
    from repro.analysis.dataflow.engine import analyze_kernel

    name = kernel_name or kernel.name
    diags: List[Diagnostic] = []

    facts = analyze_kernel(kernel, sizes, block, grid)
    for verdict in facts.verdicts.values():
        if verdict.verdict is None:
            continue
        diags.append(Diagnostic(
            analysis="dataflow", rule=RULE_LINT_GUARD,
            severity=Severity.INFO,
            message=(f"guard '{verdict.cond_text}' is always "
                     f"{str(verdict.verdict).lower()}: {verdict.evidence}"),
            kernel=name, stage=stage, stmt=verdict.stmt))

    defuse = shared_defuse(kernel, sizes, block, grid, accesses=accesses)
    for access, missing in defuse.uninit_reads:
        diags.append(Diagnostic(
            analysis="dataflow", rule=RULE_LINT_UNINIT,
            severity=Severity.WARNING,
            message=(f"shared array {access.array!r}: read covers "
                     f"address(es) no store initializes: "
                     f"{_fmt_addrs(missing)}"),
            kernel=name, stage=stage, array=access.array,
            stmt=access.stmt))
    for access in defuse.dead_stores:
        diags.append(Diagnostic(
            analysis="dataflow", rule=RULE_LINT_DEAD,
            severity=Severity.WARNING,
            message=(f"shared array {access.array!r}: store is never "
                     f"read back within the kernel"),
            kernel=name, stage=stage, array=access.array,
            stmt=access.stmt))

    for barrier in removable_barriers(kernel, sizes, block, grid,
                                      accesses=accesses, slicing=slicing):
        arrays = ", ".join(barrier.affected_arrays) or "none"
        diags.append(Diagnostic(
            analysis="dataflow", rule=RULE_LINT_BARRIER,
            severity=Severity.INFO,
            message=(f"barrier spans no cross-thread dependence "
                     f"(affected arrays: {arrays}): {barrier.evidence}"),
            kernel=name, stage=stage, stmt=barrier.stmt))

    return diags
