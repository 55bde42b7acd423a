"""Dynamic confirmation of static race warnings via schedule search.

The static race detector (:mod:`repro.analysis.races`) is conservative:
it reports every pair of shared accesses that *may* co-execute in one
barrier phase, which admits false positives by design.  This module is
the other half of the cross-wire the ROADMAP asked for — it takes a
kernel the verifier flagged and *searches the schedule space* for an
interleaving that actually witnesses the race, using the scheduled
backend (:mod:`repro.sim.scheduled`) against a lockstep reference:

* differing output bits under some seeded schedule ⇒ ``'output'``
  witness (the classic lost-update / stale-read manifestation);
* a deadlock only the scheduled backend reports ⇒ ``'deadlock'``
  witness (barrier reachable by some but not all threads);
* any other error-family disagreement ⇒ ``'error'`` witness.

Inputs, launches and the comparison are the shared differential harness
(:mod:`repro.sim.differential`); default inputs are seeded from the
kernel name and its size bindings.

A returned :class:`ScheduleWitness` carries the (seed, scheduler) pair,
which — because :func:`repro.sim.scheduled.make_scheduler` is fully
deterministic — replays the exact interleaving.  ``None`` means the
budget was exhausted without a witness: the warning stands *refuted up
to K schedules*, not proven false.

:func:`assert_schedule_invariant` is the contrapositive driver, used on
stages the dataflow engine proved barrier-free or removable-barrier-safe
(PR 6): it raises if any schedule disagrees with lockstep, making those
proofs dynamically falsifiable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.lang.astnodes import Kernel
from repro.sim.differential import compare, inputs, run, schedule_sweep
from repro.sim.interp import LaunchConfig
from repro.sim.scheduled import DeadlockError, schedule_plan

__all__ = ["ScheduleWitness", "assert_schedule_invariant", "confirm_race"]


@dataclass(frozen=True)
class ScheduleWitness:
    """One interleaving that dynamically witnesses schedule-dependence."""

    seed: int
    scheduler: str               # 'rr' | 'random' | 'chaos'
    kind: str                    # 'output' | 'deadlock' | 'error'
    detail: str                  # human-readable disagreement description
    yields: int = 0              # sequence points executed in the run
    trace_tail: Tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed, "scheduler": self.scheduler,
                "kind": self.kind, "detail": self.detail,
                "yields": self.yields, "trace_tail": list(self.trace_tail)}

    def render(self) -> str:
        return (f"schedule witness ({self.scheduler!r} seed {self.seed}, "
                f"{self.yields} yields): {self.kind}: {self.detail}")


# ---------------------------------------------------------------------------
# The drivers
# ---------------------------------------------------------------------------

def confirm_race(kernel: Kernel, sizes: Dict[str, int],
                 block: Tuple[int, int], grid: Tuple[int, int], *,
                 schedules: int = 8,
                 seeds: Optional[Sequence[int]] = None,
                 scalars: Optional[Dict[str, object]] = None,
                 arrays: Optional[Dict[str, np.ndarray]] = None,
                 tracer=None) -> Optional[ScheduleWitness]:
    """Search K seeded schedules for an interleaving witnessing a race.

    Runs the kernel once on the lockstep backend as the reference, then
    under each planned (seed, scheduler) pair on the scheduled backend;
    the first disagreement — bits, deadlock, or error family — is
    returned as a :class:`ScheduleWitness`.  ``None`` ⇒ no witness found
    within the budget (refuted up to ``schedules`` interleavings).

    ``arrays`` defaults to deterministic inputs derived from the kernel
    identity; ``seeds`` overrides ``range(schedules)`` (how an explicit
    replay or a resumed campaign narrows the search).  ``tracer`` (a
    :class:`repro.obs.trace.Tracer`) receives one ``schedule`` event per
    run, so traces show which interleavings were searched.
    """
    config = LaunchConfig(grid=tuple(grid), block=tuple(block))
    scalars = sizes if scalars is None else scalars
    if arrays is None:
        arrays = inputs(kernel, sizes, zlib.crc32(
            f"{kernel.name}|{sorted(sizes.items())!r}".encode()))
    reference = run(kernel, config, arrays, scalars, backend="lockstep")
    plan = schedule_plan(schedules, seeds)
    for seed, sched_kind, ev in schedule_sweep(kernel, config, arrays,
                                               scalars, plan):
        mismatch = compare(ev, reference)
        witness: Optional[ScheduleWitness] = None
        if mismatch:
            kind = ("output" if ev.family == reference.family
                    else "deadlock" if isinstance(ev.exc, DeadlockError)
                    else "error")
            witness = ScheduleWitness(seed, sched_kind, kind, mismatch,
                                      ev.yields or 0, ev.trace_tail)
        if tracer is not None:
            verdict = witness.kind if witness else "agrees"
            tracer.schedule(
                f"schedule {sched_kind!r} seed {seed}: {verdict}",
                seed=seed, scheduler=sched_kind,
                details={"yields": ev.yields or 0, "verdict": verdict,
                         "kernel": kernel.name})
        if witness is not None:
            return witness
    return None


def assert_schedule_invariant(kernel: Kernel, sizes: Dict[str, int],
                              block: Tuple[int, int],
                              grid: Tuple[int, int], *,
                              schedules: int = 4,
                              seeds: Optional[Sequence[int]] = None,
                              scalars: Optional[Dict[str, object]] = None,
                              arrays: Optional[Dict[str, np.ndarray]] = None,
                              tracer=None) -> int:
    """Assert no schedule in the budget disagrees with lockstep.

    The dual of :func:`confirm_race`, used on kernels a static analysis
    claims schedule-invariant (barrier-free, or safe after proof-carrying
    barrier removal): raises :class:`AssertionError` carrying the full
    witness description if any seeded schedule diverges, otherwise
    returns the number of schedules checked.
    """
    witness = confirm_race(kernel, sizes, block, grid, schedules=schedules,
                           seeds=seeds, scalars=scalars, arrays=arrays,
                           tracer=tracer)
    if witness is not None:
        raise AssertionError(
            f"kernel {kernel.name!r} claimed schedule-invariant but "
            + witness.render())
    return len(schedule_plan(schedules, seeds))
