"""Barrier-phase slicing of a kernel body.

``__syncthreads()`` splits a block's execution into *phases*: two shared
memory accesses can only race if some execution of one can run concurrently
with some execution of the other, i.e. if no barrier separates them.  This
module assigns every statement a phase id such that statements with equal
(canonical) ids may co-execute.

This is the **single shared definition** of phase structure.  Two very
different consumers depend on it agreeing with itself:

* the static race detector (:mod:`repro.analysis.races`) groups shared
  accesses by canonical phase id, and
* the warp-vectorized simulator backend (:mod:`repro.sim.vectorized`)
  executes each phase as one straight-line lane-parallel slice.

Both must answer "does a conditional barrier split a phase?" the same
way, or a kernel the verifier calls racy could simulate deterministically
(and vice versa).  The shared answer, pinned by ``tests/test_phases.py``:
**no** — a barrier under an ``if`` guard separates nothing, because only
the guarded thread subset synchronizes.  The race detector therefore
stays conservative (false positives only), and the vectorized backend
refuses such kernels statically (``unsupported_reasons``) instead of
running past a barrier the lockstep interpreter would honor.

The slicing is a conservative structural approximation of the barrier CFG:

* a barrier in straight-line code starts a new phase;
* a loop whose body contains a barrier has a *back edge*: the region after
  its last barrier co-executes with the region before its first barrier in
  the next iteration, so the two phases are unioned (and with the region
  preceding / following the loop, which the first / last iteration adjoins);
* a barrier under an ``if`` does **not** split phases — only the threads
  taking the branch synchronize, so statements on either side may still
  co-execute.  (If the condition is thread-dependent that barrier is
  reported separately by :mod:`repro.analysis.divergence`.)

Loops that contain a phase-splitting barrier are recorded as *phased
loops*: within one merged phase, their iterator has (approximately) a
single common value across all threads, which the race detector exploits
to avoid false positives on barrier-stepped loops like the reduction tree
``for (st = 128; st > 0; st = st / 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple, Union

from repro.lang.astnodes import (
    Block,
    Expr,
    ForStmt,
    IfStmt,
    Kernel,
    Stmt,
    SyncStmt,
    WhileStmt,
)

LoopStmt = Union[ForStmt, WhileStmt]


@dataclass
class BarrierSite:
    """One ``__syncthreads()`` / ``__global_sync()`` with its context."""

    stmt: SyncStmt
    guards: Tuple[Expr, ...]        # enclosing if-conditions, outermost first
    loops: Tuple[LoopStmt, ...]     # enclosing loops, outermost first

    @property
    def conditional(self) -> bool:
        return bool(self.guards)


@dataclass
class PhaseSlicing:
    """Phase assignment for one kernel body."""

    barriers: List[BarrierSite] = field(default_factory=list)
    phased_loops: Set[int] = field(default_factory=set)   # id(loop stmt)
    _phase: Dict[int, int] = field(default_factory=dict)  # id(stmt) -> region
    _parent: Dict[int, int] = field(default_factory=dict)  # union-find
    n_regions: int = 0

    # -- union-find ---------------------------------------------------------

    def _find(self, region: int) -> int:
        root = region
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        while self._parent.get(region, region) != region:
            self._parent[region], region = root, self._parent[region]
        return root

    def _union(self, a: int, b: int) -> int:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)
        return min(ra, rb)

    # -- queries ------------------------------------------------------------

    def phase_of(self, stmt: Stmt) -> int:
        """Canonical phase id of ``stmt`` (0 if it was never assigned)."""
        return self._find(self._phase.get(id(stmt), 0))

    def same_phase(self, a: Stmt, b: Stmt) -> bool:
        return self.phase_of(a) == self.phase_of(b)

    def is_phased_loop(self, loop: Stmt) -> bool:
        """Does ``loop`` contain a phase-splitting (unconditional) barrier?"""
        return id(loop) in self.phased_loops


class _Slicer:
    def __init__(self, ignore: frozenset = frozenset()) -> None:
        self.slicing = PhaseSlicing()
        self._counter = 0
        self._guards: List[Expr] = []
        self._loops: List[LoopStmt] = []
        self._ignore = ignore  # id(SyncStmt) treated as absent

    def _new_region(self) -> int:
        self._counter += 1
        return self._counter

    def run(self, kernel: Kernel) -> PhaseSlicing:
        self._walk(kernel.body, 0)
        self.slicing.n_regions = self._counter + 1
        return self.slicing

    def _walk(self, body: Sequence[Stmt], cur: int) -> int:
        s = self.slicing
        for stmt in body:
            s._phase[id(stmt)] = cur
            if isinstance(stmt, SyncStmt):
                if id(stmt) in self._ignore:
                    continue
                s.barriers.append(BarrierSite(
                    stmt=stmt, guards=tuple(self._guards),
                    loops=tuple(self._loops)))
                if not self._guards:
                    cur = self._new_region()
                # A conditional barrier synchronizes only a thread subset;
                # conservatively it separates nothing.
            elif isinstance(stmt, IfStmt):
                self._guards.append(stmt.cond)
                self._walk(stmt.then_body, cur)
                self._walk(stmt.else_body, cur)
                self._guards.pop()
            elif isinstance(stmt, (ForStmt, WhileStmt)):
                self._loops.append(stmt)
                out = self._walk(stmt.body, cur)
                self._loops.pop()
                if s._find(out) != s._find(cur):
                    # Back edge: tail phase co-executes with the head phase
                    # of the next iteration (and the loop's surroundings).
                    s.phased_loops.add(id(stmt))
                    cur = s._union(cur, out)
                else:
                    cur = out
            elif isinstance(stmt, Block):
                cur = self._walk(stmt.body, cur)
        return cur


def slice_phases(kernel: Kernel,
                 ignore: frozenset = frozenset()) -> PhaseSlicing:
    """Compute the barrier-phase slicing of ``kernel``.

    ``ignore`` is a set of ``id(SyncStmt)`` values to treat as absent —
    the dataflow cleanup pass uses this to ask "what would the phase
    structure look like without this barrier?" before deleting it.
    """
    return _Slicer(ignore).run(kernel)
