"""Shared-memory race detection over barrier-delimited phases.

Two shared accesses race when (1) no barrier orders them — they share a
canonical phase from :mod:`repro.sim.phases` — and (2) two *distinct*
threads of the block touch the same element with at least one write.

The detector evaluates every access over all the block's threads at
once (:meth:`repro.ir.access.AccessInfo.sweep`) and relates, per (phase,
array) group containing a store, addresses to the threads writing and
reading them.  Loop iterators are handled two ways:

* iterators of *phased* loops (loops stepped by an unconditional barrier,
  e.g. the tiled ``for (i = 0; i < w; i += 16)`` main loop or the
  reduction tree's ``st`` loop) hold a **common** value across the block
  within one phase, so the detector fixes one assignment at a time —
  without this the reduction tree ``sdata[tidx] += sdata[tidx + st]``
  under ``if (tidx < st)`` would be a sea of false positives;
* all other (*free*) loop iterators are enumerated independently per
  access, since a barrier-free loop lets threads drift apart.

Guard conditions are evaluated per thread; a guard that cannot be
evaluated is conservatively treated as taken.  The phase abstraction
compares different iterations of a phased loop only at equal iterator
values, so cross-iteration races that a *present* trailing barrier
prevents are exactly the ones re-detected when that barrier is removed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.sim.phases import PhaseSlicing, slice_phases
from repro.ir.access import (AccessInfo, LoopInfo, block_threads,
                             collect_accesses, launch_axes)
from repro.lang.astnodes import Kernel

_THREAD_CAP = 512       # max threads enumerated per block
_LOOP_CAP = 8           # samples per loop level
_COMMON_CAP = 64        # max common phased-iterator assignments per group


def _phased_loops(group: Sequence[AccessInfo],
                  slicing: PhaseSlicing) -> List[LoopInfo]:
    """Phased-loop infos enclosing any access of the group, outermost
    first, deduplicated by iterator name."""
    seen: Dict[str, LoopInfo] = {}
    for acc in group:
        for info in acc.loops:
            if info.stmt is not None and slicing.is_phased_loop(info.stmt) \
                    and info.name not in seen:
                seen[info.name] = info
    return list(seen.values())


def _common_assignments(loops: Sequence[LoopInfo],
                        base: Mapping[str, int],
                        term_defs: Mapping[str, Tuple] = {},
                        env: Mapping[str, object] = {}
                        ) -> Optional[List[Dict[str, int]]]:
    """Sampled joint assignments of the phased iterators, or ``None`` if
    any phased loop cannot be evaluated without thread ids (a
    thread-dependent barrier loop — divergence reports that instead)."""
    out: List[Dict[str, int]] = [{}]
    for info in loops:
        nxt: List[Dict[str, int]] = []
        for partial in out:
            sample = info.sample({**base, **partial}, np.ones((), bool),
                                 _LOOP_CAP, term_defs, env)
            if sample is None:
                return None
            values, valid = sample[:2]
            for v in values[valid].tolist():
                combo = dict(partial)
                combo[info.name] = v
                nxt.append(combo)
                if len(nxt) >= _COMMON_CAP:
                    break
            if len(nxt) >= _COMMON_CAP:
                break
        out = nxt if nxt else [{}]
    return out


def check_races(kernel: Kernel, sizes: Mapping[str, int],
                block: Tuple[int, int], grid: Tuple[int, int] = (1, 1),
                *, kernel_name: str = "", stage: str = "",
                slicing: Optional[PhaseSlicing] = None,
                accesses: Optional[Sequence[AccessInfo]] = None
                ) -> List[Diagnostic]:
    """Detect same-phase WW / RW conflicts on ``__shared__`` arrays."""
    if slicing is None:
        slicing = slice_phases(kernel)
    if accesses is None:
        accesses = collect_accesses(kernel, sizes)
    shared = [a for a in accesses if a.space == "shared"]
    if not shared:
        return []

    groups: Dict[Tuple[int, str], List[AccessInfo]] = {}
    for acc in shared:
        key = (slicing.phase_of(acc.stmt), acc.array)
        groups.setdefault(key, []).append(acc)

    threads = block_threads(block, cap=_THREAD_CAP)
    diags: List[Diagnostic] = []
    for (phase, array), group in sorted(groups.items()):
        if not any(a.is_store for a in group):
            continue
        diags.extend(_check_group(group, array, slicing, block, grid,
                                  threads, kernel_name, stage))
    return diags


def _check_group(group: Sequence[AccessInfo], array: str,
                 slicing: PhaseSlicing, block: Tuple[int, int],
                 grid: Tuple[int, int], threads: Sequence[Tuple[int, int]],
                 kernel_name: str, stage: str) -> List[Diagnostic]:
    phased = _phased_loops(group, slicing)
    phased_names = tuple(info.name for info in phased)
    block_env: Dict[str, int] = {
        "bdimx": block[0], "bdimy": block[1],
        "gdimx": grid[0], "gdimy": grid[1], "bidx": 0, "bidy": 0,
    }
    block_env.update(group[0].sizes)
    assignments = _common_assignments(phased, block_env,
                                      group[0].term_defs,
                                      group[0].env_forms)
    if assignments is None:
        return []  # thread-dependent phased loop; divergence reports it

    bx, by = max(1, block[0]), max(1, block[1])
    axes = launch_axes(block, grid, threads)
    # Threads compare as (tidx, tidy) tuples; this key sorts the same way.
    keys = axes["tidx"] * by + axes["tidy"]
    reported: Set[str] = set()
    diags: List[Diagnostic] = []
    for common in assignments:
        touched: Dict[bool, List[tuple]] = {True: [], False: []}
        for site, acc in enumerate(group):
            sweep = acc.sweep({**axes, **common}, _LOOP_CAP,
                              skip=phased_names)
            if sweep.address is not None:
                key = keys.reshape((-1,) + (1,) * (sweep.active.ndim - 1))
                touched[acc.is_store].append((
                    sweep.address[sweep.active],
                    np.broadcast_to(key, sweep.active.shape)[sweep.active],
                    np.full(int(sweep.active.sum()), site)))
        w_addr, w_key, w_site = _pairs(touched[True])
        r_addr, r_key, r_site = _pairs(touched[False])
        found = []
        shared = np.flatnonzero(w_addr[1:] == w_addr[:-1])
        if "ww" not in reported and shared.size:
            i = shared[0]
            addr = int(w_addr[i])
            a, b = divmod(int(w_key[i]), by), divmod(int(w_key[i + 1]), by)
            found.append((addr, 0, "ww", Diagnostic(
                analysis="races", severity=Severity.ERROR,
                message=(f"write-write race on __shared__ "
                         f"{array}[{addr}]: threads {a} and {b} both "
                         f"store it in the same barrier phase"),
                kernel=kernel_name, stage=stage, array=array,
                stmt=group[int(w_site[w_addr == addr].min())].stmt,
                details={"address": addr, "threads": [list(a), list(b)],
                         "kind": "write-write",
                         "iterators": dict(common)})))
        other = np.flatnonzero(
            np.isin(r_addr, w_addr)
            & ~np.isin(r_addr * bx * by + r_key, w_addr * bx * by + w_key))
        if "rw" not in reported and other.size:
            i = other[0]
            addr = int(r_addr[i])
            writer = divmod(int(w_key[w_addr == addr][0]), by)
            reader = divmod(int(r_key[i]), by)
            found.append((addr, 1, "rw", Diagnostic(
                analysis="races", severity=Severity.ERROR,
                message=(f"read-write race on __shared__ {array}[{addr}]: "
                         f"thread {writer} stores it while thread {reader} "
                         f"reads it with no barrier between"),
                kernel=kernel_name, stage=stage, array=array,
                stmt=group[int(r_site[r_addr == addr].min())].stmt,
                details={"address": addr, "writer": list(writer),
                         "reader": list(reader), "kind": "read-write",
                         "iterators": dict(common)})))
        for _, _, kind, diag in sorted(found, key=lambda f: f[:2]):
            reported.add(kind)
            diags.append(diag)
        if {"ww", "rw"} <= reported:
            break
    return diags


def _pairs(found):
    """The distinct (address, thread key) pairs of ``found``'s accesses,
    sorted by address then thread, each with the first site touching it
    (``found`` comes in site order)."""
    if not found:
        return (np.zeros(0, np.int64),) * 3
    addr, key, site = (np.concatenate(column) for column in zip(*found))
    pairs, first = np.unique(np.stack([addr, key], 1), axis=0,
                             return_index=True)
    return pairs[:, 0], pairs[:, 1], site[first]
