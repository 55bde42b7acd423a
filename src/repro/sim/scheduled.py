"""Scheduler-controlled interleaving backend: schedule-space race testing.

The lockstep interpreter (:mod:`repro.sim.interp`) and the vectorized
backend (:mod:`repro.sim.vectorized`) each realize exactly **one**
interleaving of a kernel's threads, so a miscompile that only manifests
under warp reordering — a missing barrier, a WAR hazard over a shared
tile, a divergent-guard double write — is invisible to every oracle
built on them.  This backend executes the same kernel under an
*adversarial* warp schedule:

* every thread is a Python generator that yields at **sequence points**
  — immediately before each shared-memory read or write, at every
  barrier arrival, and at every loop back-edge;
* threads are grouped into **warps** of :data:`WARP_THREADS` consecutive
  launch-linear threads of a block.  A warp is the unit of scheduling:
  one scheduler quantum advances each runnable thread of the picked warp
  by exactly one sequence point, in thread order (warp-synchronous SIMT
  stepping — intra-warp order is fixed, as on pre-Volta hardware; races
  strictly inside one warp are the static verifier's job);
* a pluggable :class:`Scheduler` picks which runnable warp advances
  next: :class:`RoundRobinScheduler` (fair), :class:`RandomScheduler`
  (seeded uniform), and :class:`ChaosScheduler` (priority-based — it
  starves one warp at a time, rotating the victim, which surfaces
  hazards that need one warp to fall far behind);
* barrier rendezvous is explicit bookkeeping: a ``__syncthreads`` warp
  blocks until **every** thread of its block is waiting at ``block``
  scope, a ``__global_sync`` until every thread of the grid is waiting
  at ``global`` scope.  A rendezvous that can never complete — a thread
  exited before the barrier, mixed scopes, a conditionally-skipped
  barrier — is a **deadlock**, reported by :class:`DeadlockError` with
  per-warp stack context (which barrier, under which guards, inside
  which loops, who already finished).

:class:`DeadlockError` subclasses :class:`~repro.sim.interp.BarrierError`
deliberately: the lockstep interpreter reports the same programs as
divergent barriers, so differential oracles can compare error *families*
across backends.  Barrier identity follows the lockstep semantics —
threads rendezvous by scope (arrival count), not by which syntactic
barrier they reached.

Determinism: for a fixed kernel, launch, inputs, scheduler kind, and
seed, the schedule trace and the outputs are bit-identical across runs
(pinned by ``tests/test_scheduled.py``), so every divergence the fuzz
oracle finds replays from its ``(scheduler, seed)`` metadata alone.

The lockstep backend realizes one point of this schedule lattice (all
warps of a block run to the barrier in thread order); see DESIGN.md 5.7
for the mapping of sequence points onto the paper's Section 4 barrier
semantics.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lang.astnodes import Kernel
from repro.sim import core
from repro.sim.core import MAX_STEPS_DEFAULT, KernelRuntimeError
from repro.sim.interp import BarrierError, LaunchConfig
from repro.sim.phases import BarrierSite, slice_phases

__all__ = [
    "SCHEDULER_KINDS",
    "WARP_THREADS",
    "ChaosScheduler",
    "DeadlockError",
    "RandomScheduler",
    "RoundRobinScheduler",
    "ScheduleResult",
    "ScheduledInterpreter",
    "Scheduler",
    "make_scheduler",
    "run_scheduled",
    "schedule_plan",
    "scheduler_kind_for_seed",
]

#: Threads per scheduling warp — the half-warp of the repo's segment and
#: bank models (DESIGN.md 5.3); consecutive launch-linear block threads.
WARP_THREADS = 16

#: Length of the schedule trace tail kept for replay diagnostics.
TRACE_TAIL = 32

#: Recognized scheduler kinds for :func:`make_scheduler`.
SCHEDULER_KINDS = ("rr", "random", "chaos")


class DeadlockError(BarrierError):
    """A warp waits at a barrier no runnable warp can ever reach.

    ``stuck`` carries structured per-warp context: for every warp with a
    blocked thread, which barrier it waits at (scope, printed guards and
    loops from the phase slicing) and which threads of its block exited
    without arriving.
    """

    def __init__(self, message: str, stuck: List[Dict[str, object]]):
        super().__init__(message)
        self.stuck = stuck


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------

class Scheduler:
    """Picks which runnable warp advances at each sequence point."""

    kind = "base"

    def __init__(self, seed: int = 0):
        self.seed = seed
        #: Filled by the interpreter after a run completes.
        self.last_result: Optional[ScheduleResult] = None

    def attach(self, n_warps: int) -> None:
        """Called once before the run with the total warp count."""

    def pick(self, runnable: Sequence[int], step: int) -> int:
        """Return one warp id from ``runnable`` (sorted, non-empty)."""
        raise NotImplementedError


class RoundRobinScheduler(Scheduler):
    """Fair rotation over runnable warps — the most lockstep-like point
    of the schedule space (bit-identical to lockstep on race-free
    kernels, pinned by the property tests)."""

    kind = "rr"

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._last = -1

    def pick(self, runnable: Sequence[int], step: int) -> int:
        for wid in runnable:
            if wid > self._last:
                self._last = wid
                return wid
        self._last = runnable[0]
        return runnable[0]


class RandomScheduler(Scheduler):
    """Seeded uniform choice among runnable warps."""

    kind = "random"

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._rng = random.Random(seed)

    def pick(self, runnable: Sequence[int], step: int) -> int:
        return runnable[self._rng.randrange(len(runnable))]


class ChaosScheduler(Scheduler):
    """Priority scheduler that starves one warp at a time.

    The starved warp rotates every ``quantum`` picks; while starved, a
    warp only runs when it is the sole runnable one (e.g. everyone else
    is blocked at a barrier it has not reached).  This drives the
    maximum drift between warps the barrier structure allows, which is
    exactly where missing-barrier and WAR hazards bite.
    """

    kind = "chaos"

    def __init__(self, seed: int = 0, quantum: int = 24):
        super().__init__(seed)
        self._rng = random.Random(seed)
        self._quantum = max(1, quantum)
        self._n_warps = 1

    def attach(self, n_warps: int) -> None:
        self._n_warps = max(1, n_warps)

    def pick(self, runnable: Sequence[int], step: int) -> int:
        starved = (step // self._quantum) % self._n_warps
        candidates = [w for w in runnable if w != starved]
        if not candidates:
            return runnable[0]
        return candidates[self._rng.randrange(len(candidates))]


def make_scheduler(kind: str, seed: int = 0) -> Scheduler:
    """Instantiate a scheduler by kind name (see :data:`SCHEDULER_KINDS`)."""
    if kind == "rr":
        return RoundRobinScheduler(seed)
    if kind == "random":
        return RandomScheduler(seed)
    if kind == "chaos":
        return ChaosScheduler(seed)
    raise ValueError(f"unknown scheduler kind {kind!r}; expected one of "
                     f"{', '.join(SCHEDULER_KINDS)}")


def scheduler_kind_for_seed(seed: int) -> str:
    """The deterministic seed -> scheduler-kind mapping the fuzz oracle
    uses, so a recorded seed alone replays the exact schedule (random
    and chaos lead — they are the finders; rr is the fairness control).
    """
    return ("random", "chaos", "rr")[seed % 3]


def schedule_plan(schedules: int,
                  seeds: Optional[Sequence[int]] = None
                  ) -> List[Tuple[int, str]]:
    """The (seed, scheduler-kind) list a K-schedule campaign runs.

    ``seeds`` overrides the default ``range(schedules)`` — this is how an
    interrupted campaign resumes from its recorded in-flight seeds.
    """
    chosen = list(seeds) if seeds is not None else list(range(schedules))
    return [(s, scheduler_kind_for_seed(s)) for s in chosen]


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------

@dataclass
class ScheduleResult:
    """Metadata of one scheduled run (enough to replay it)."""

    scheduler: str
    seed: int
    yields: int                     # scheduler quanta consumed
    n_warps: int
    trace_tail: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scheduler": self.scheduler,
            "seed": self.seed,
            "yields": self.yields,
            "n_warps": self.n_warps,
            "trace_tail": list(self.trace_tail),
        }


# ---------------------------------------------------------------------------
# Execution state
# ---------------------------------------------------------------------------

class _Warp:
    """A scheduling unit: WARP_THREADS consecutive threads of one block."""

    __slots__ = ("wid", "block", "threads")

    def __init__(self, wid: int, block: Tuple[int, int],
                 threads: List[core.Thread]):
        self.wid = wid
        self.block = block
        self.threads = threads

    @property
    def runnable(self) -> bool:
        return any(t.runnable for t in self.threads)

    def step(self) -> None:
        """Advance each runnable thread by one sequence point, in thread
        order (warp-synchronous stepping)."""
        for t in self.threads:
            if t.runnable:
                t.step()


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------

class ScheduledInterpreter:
    """Executes one kernel launch under a controlled warp schedule.

    The threads are the same :mod:`repro.sim.core` coroutines the
    lockstep :class:`~repro.sim.interp.Interpreter` runs, lowered with
    ``preempt=True`` — only the *interleaving* differs, which is the
    point: on a race-free kernel every schedule must produce the
    lockstep bits.
    """

    def __init__(self, kernel: Kernel, max_steps: int = MAX_STEPS_DEFAULT,
                 warp_size: int = WARP_THREADS):
        self._kernel = kernel
        self._max_steps = max_steps
        self._warp_size = max(1, warp_size)
        # Barrier context for deadlock reports (phases reuse: the same
        # slicing the race detector and vectorized backend consume).
        self._sites: Dict[int, BarrierSite] = {
            id(site.stmt): site for site in slice_phases(kernel).barriers}

    # -- public API ----------------------------------------------------------

    def run(self, config: LaunchConfig, arrays: Dict[str, np.ndarray],
            scalars: Optional[Dict[str, object]] = None,
            scheduler: Optional[Scheduler] = None,
            max_yields: Optional[int] = None) -> ScheduleResult:
        """Execute the kernel under ``scheduler``; arrays mutate in place."""
        sched = scheduler if scheduler is not None else RandomScheduler(0)
        blocks: Dict[Tuple[int, int], List[core.Thread]] = {}
        warps: List[_Warp] = []
        for members in core.launch(self._kernel, config, arrays, scalars,
                                   preempt=True, max_steps=self._max_steps):
            block = members[0].block
            blocks[block] = members
            for lo in range(0, len(members), self._warp_size):
                warps.append(_Warp(len(warps), block,
                                   members[lo:lo + self._warp_size]))

        all_threads = [t for members in blocks.values() for t in members]
        sched.attach(len(warps))
        by_id = {w.wid: w for w in warps}
        tail: deque = deque(maxlen=TRACE_TAIL)
        yields = 0
        cap = max_yields if max_yields is not None else self._max_steps
        while True:
            self._release_barriers(blocks, all_threads)
            runnable = sorted(w.wid for w in warps if w.runnable)
            if not runnable:
                if all(t.done for t in all_threads):
                    break
                raise self._deadlock(warps, blocks)
            wid = sched.pick(runnable, yields)
            if wid not in by_id or not by_id[wid].runnable:
                raise KernelRuntimeError(
                    f"scheduler {sched.kind!r} picked non-runnable warp "
                    f"{wid} (runnable: {runnable})")
            by_id[wid].step()
            tail.append(wid)
            yields += 1
            if yields > cap:
                raise KernelRuntimeError(
                    f"schedule exceeded {cap} quanta (runaway schedule?)")
        result = ScheduleResult(scheduler=sched.kind, seed=sched.seed,
                                yields=yields, n_warps=len(warps),
                                trace_tail=list(tail))
        sched.last_result = result
        return result

    # -- barrier rendezvous --------------------------------------------------

    def _release_barriers(self, blocks: Dict[Tuple[int, int],
                                             List[core.Thread]],
                          all_threads: List[core.Thread]) -> None:
        """Complete every rendezvous whose arrival set is full.

        A ``block`` barrier releases when *every* thread of the block is
        waiting at ``block`` scope; a ``global`` barrier when every
        thread of the grid is waiting at ``global`` scope.  A finished
        thread is never waiting, so a thread that exited before a
        barrier pins its block un-releasable — the deadlock detector
        reports it, matching the lockstep interpreter's BarrierError for
        the same program.
        """
        for members in blocks.values():
            if members and all(t.waiting == "block" for t in members):
                for t in members:
                    t.at = None
        if all_threads and all(t.waiting == "global" for t in all_threads):
            for t in all_threads:
                t.at = None

    def _deadlock(self, warps: List[_Warp],
                  blocks: Dict[Tuple[int, int],
                               List[core.Thread]]) -> DeadlockError:
        """Build the per-warp stack-context report for a stuck schedule."""
        from repro.obs.trace import snippet
        stuck: List[Dict[str, object]] = []
        lines: List[str] = []
        n_waiting = 0
        for warp in warps:
            waiting = [t for t in warp.threads if t.waiting is not None]
            if not waiting:
                continue
            n_waiting += len(waiting)
            t0 = waiting[0]
            site = self._sites.get(id(t0.at))
            context = ""
            if site is not None and site.guards:
                from repro.lang.printer import print_expr
                context += " under " + " && ".join(
                    f"({print_expr(g)})" for g in site.guards)
            if site is not None and site.loops:
                context += f" inside {len(site.loops)} loop(s)"
            barrier = snippet(t0.at) or "__syncthreads()"
            finished = [t.thread for t in blocks[warp.block] if t.done]
            entry = {
                "warp": warp.wid,
                "block": list(warp.block),
                "threads": [list(t.thread) for t in waiting],
                "scope": t0.waiting,
                "barrier": barrier,
                "context": context.strip(),
                "finished_in_block": [list(th) for th in finished[:4]],
            }
            stuck.append(entry)
            who = ", ".join(str(t.thread) for t in waiting[:4])
            more = f" (+{len(waiting) - 4} more)" if len(waiting) > 4 else ""
            line = (f"block {warp.block} warp {warp.wid}: thread(s) {who}"
                    f"{more} waiting at {barrier}{context}")
            if finished:
                line += (f"; {len(finished)} thread(s) of the block exited "
                         f"without arriving")
            lines.append(line)
        detail = "\n  ".join(lines)
        return DeadlockError(
            f"schedule deadlock: {n_waiting} thread(s) wait at a barrier "
            f"no runnable warp can reach\n  {detail}", stuck)


def run_scheduled(kernel: Kernel, config: LaunchConfig,
                  arrays: Dict[str, np.ndarray],
                  scalars: Optional[Dict[str, object]] = None,
                  scheduler: Optional[Scheduler] = None,
                  max_yields: Optional[int] = None) -> ScheduleResult:
    """Convenience wrapper: one scheduled launch; arrays mutate in place."""
    return ScheduledInterpreter(kernel).run(config, arrays, scalars,
                                            scheduler=scheduler,
                                            max_yields=max_yields)
