"""Shared-memory def-use over barrier intervals, and barrier redundancy.

Three questions, all answered conservatively (a claim is only made when
it is provable; "don't know" stays silent):

* **Uninitialized shared reads** — a ``__shared__`` address some thread
  reads that *no* access in the kernel ever stores.  Addresses come from
  exhaustive concrete enumeration of block (0, 0) (shared memory is
  per-block, and every block runs the same program over the same shared
  extents, so block (0, 0) generalizes).  A claim requires exhaustive,
  trustworthy coverage of both the read and every store.

* **Dead shared stores** — a store site whose whole address set is
  disjoint from every read of that array.  Lint-level information only;
  the cleanup pass never acts on it (stores are cheap, and deleting one
  changes shared state a later PR's pass might begin reading).

* **Removable barriers** — an unconditional block-scope barrier that no
  cross-thread dependence spans.  The test is structural + geometric:
  re-slice the phase structure with the barrier ignored, find arrays
  whose access pairs the barrier was separating, and require each such
  array to be *provably thread-private* — every access resolves to one
  identical affine address form over launch ids only (no loop iterators,
  no opaque terms), and that form maps distinct threads of a block to
  distinct addresses.  Then no data flows between threads at all, so
  ordering them is a no-op.  (The reduction tree's ``sdata[tidx]`` vs
  ``sdata[tidx + st]`` has two *different* forms, one of them
  iterator-dependent — its barriers are correctly kept.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.ir.access import (AccessInfo, block_threads, collect_accesses,
                             launch_axes)
from repro.lang import astnodes as ast
from repro.lang.builtins import PREDEFINED_IDS
from repro.sim.phases import PhaseSlicing, slice_phases

# Enumeration budgets: beyond these we stay silent rather than sample.
_THREAD_CAP = 512
_LOOP_CAP = 64


@dataclass
class AddressSet:
    """Exhaustively enumerated addresses of one access site."""

    access: AccessInfo
    addresses: Set[int] = field(default_factory=set)
    exhaustive: bool = True


@dataclass
class DefUseReport:
    """Def-use findings for one kernel's shared arrays."""

    uninit_reads: List[Tuple[AccessInfo, List[int]]] = field(
        default_factory=list)
    dead_stores: List[AccessInfo] = field(default_factory=list)


@dataclass
class RemovableBarrier:
    """One barrier proven to span no cross-thread dependence."""

    stmt: ast.SyncStmt
    affected_arrays: Tuple[str, ...]
    evidence: str


def _enumerate_site(access: AccessInfo, block: Tuple[int, int],
                    grid: Tuple[int, int]) -> AddressSet:
    """All addresses ``access`` touches across block (0, 0)'s threads."""
    threads = block_threads(block, cap=_THREAD_CAP + 1)
    if len(threads) > _THREAD_CAP:
        return AddressSet(access, exhaustive=False)
    sweep = access.sweep(launch_axes(block, grid, threads), _LOOP_CAP)
    addresses = [] if sweep.address is None \
        else sweep.address[sweep.active].tolist()
    return AddressSet(access, set(addresses),
                      sweep.complete and sweep.trustworthy)


def shared_defuse(kernel: ast.Kernel, sizes: Mapping[str, int],
                  block: Tuple[int, int], grid: Tuple[int, int],
                  accesses: Optional[List[AccessInfo]] = None
                  ) -> DefUseReport:
    """Uninitialized-read / dead-store report for shared arrays.

    Order-insensitive by design: a read is only flagged when *no* store
    anywhere in the kernel covers its address, so temporal (read-then-
    write) violations are out of scope — that keeps every report a real
    defect even under loop-carried flow the walk order can't see.
    """
    if accesses is None:
        accesses = collect_accesses(kernel, sizes)
    report = DefUseReport()
    by_array: Dict[str, List[AccessInfo]] = {}
    for acc in accesses:
        if acc.space == "shared":
            by_array.setdefault(acc.array, []).append(acc)
    for name, accs in sorted(by_array.items()):
        stores = [a for a in accs if a.is_store]
        loads = [a for a in accs if not a.is_store]
        store_sets = [_enumerate_site(a, block, grid) for a in stores]
        stored: Set[int] = set()
        stores_exhaustive = all(s.exhaustive for s in store_sets)
        for s in store_sets:
            stored |= s.addresses
        # A compound assignment (s[i] += ...) reads its own target; the
        # collector records it as a store only, so treat it as a read too.
        read_sets = [_enumerate_site(a, block, grid) for a in loads]
        compound_reads = [
            _enumerate_site(a, block, grid) for a in stores
            if isinstance(a.stmt, ast.AssignStmt) and a.stmt.op != "="]
        read_addrs: Set[int] = set()
        reads_exhaustive = all(r.exhaustive
                               for r in read_sets + compound_reads)
        for r in read_sets + compound_reads:
            read_addrs |= r.addresses
        if stores_exhaustive:
            for rset in read_sets + compound_reads:
                if not rset.exhaustive:
                    continue
                missing = sorted(rset.addresses - stored)
                if missing:
                    report.uninit_reads.append((rset.access, missing))
        if reads_exhaustive:
            for sset in store_sets:
                if sset.exhaustive and sset.addresses \
                        and sset.addresses.isdisjoint(read_addrs):
                    report.dead_stores.append(sset.access)
    return report


def _thread_private(name: str, accs: List[AccessInfo],
                    block: Tuple[int, int], grid: Tuple[int, int]
                    ) -> Optional[str]:
    """Proof string if every access to ``name`` is thread-private, else None.

    Requires one identical affine address form across all sites, built
    from launch ids only, injective over the threads of a block.  The
    per-block offset contributed by ``bidx``/``bidy`` is constant within
    a block, so injectivity checked at block (0, 0) holds in every block.
    """
    forms = []
    for acc in accs:
        if acc.address is None:
            return None
        if any(term not in PREDEFINED_IDS for term in acc.address.terms):
            return None  # loop iterators / opaque terms: not loop-invariant
        forms.append(acc.address)
    if not forms:
        return None
    first = forms[0]
    if any(f != first for f in forms[1:]):
        return None
    threads = block_threads(block, cap=_THREAD_CAP + 1)
    if len(threads) > _THREAD_CAP:
        return None
    addrs = accs[0].eval_addresses(launch_axes(block, grid, threads))
    if np.unique(addrs).size < len(threads):
        return None
    return (f"{name}: single affine form over launch ids, "
            f"injective across {len(threads)} block threads")


def removable_barriers(kernel: ast.Kernel, sizes: Mapping[str, int],
                       block: Tuple[int, int], grid: Tuple[int, int],
                       accesses: Optional[List[AccessInfo]] = None,
                       slicing: Optional[PhaseSlicing] = None
                       ) -> List[RemovableBarrier]:
    """Unconditional block barriers provably spanning no dependence."""
    if accesses is None:
        accesses = collect_accesses(kernel, sizes)
    if slicing is None:
        slicing = slice_phases(kernel)
    by_array: Dict[str, List[AccessInfo]] = {}
    for acc in accesses:
        by_array.setdefault(acc.array, []).append(acc)

    # Accepted removals accumulate greedily: each candidate is judged
    # with every *previously accepted* barrier already ignored, so the
    # returned set is removable *simultaneously* — two adjacent barriers
    # are each redundant alone, but only one of the pair may go.
    accepted: set = set()
    out: List[RemovableBarrier] = []
    for site in slicing.barriers:
        if site.conditional or site.stmt.scope != "block":
            continue
        if site.loops:
            # An in-loop barrier orders *iterations*; the back-edge union
            # already made its neighborhood one phase, so the pairwise
            # comparison below cannot see what it separates.  Keep it.
            continue
        mod = slice_phases(kernel,
                           ignore=frozenset(accepted | {id(site.stmt)}))
        affected: List[str] = []
        for name, accs in sorted(by_array.items()):
            if not any(a.is_store for a in accs):
                continue  # read-only arrays carry no dependence
            separated = False
            for i in range(len(accs)):
                for j in range(i + 1, len(accs)):
                    a, b = accs[i], accs[j]
                    if not (a.is_store or b.is_store):
                        continue
                    if not slicing.same_phase(a.stmt, b.stmt) \
                            and mod.same_phase(a.stmt, b.stmt):
                        separated = True
                        break
                if separated:
                    break
            if separated:
                affected.append(name)
        proofs = []
        private = True
        for name in affected:
            proof = _thread_private(name, by_array[name], block, grid)
            if proof is None:
                private = False
                break
            proofs.append(proof)
        if not private:
            continue
        evidence = ("barrier separates no accesses" if not affected
                    else "; ".join(proofs))
        accepted.add(id(site.stmt))
        out.append(RemovableBarrier(
            stmt=site.stmt,
            affected_arrays=tuple(affected),
            evidence=evidence))
    return out
