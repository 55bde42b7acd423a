"""Shared-memory bank-conflict lint.

GT200 shared memory is interleaved across 16 one-word banks; a half warp
serializes when several of its threads hit distinct addresses in the same
bank (``bank = addr % 16``), with a fully-uniform address exempt as a
broadcast.  This lint replays that model — the same
:func:`repro.sim.timing.bank_serialization` degree the timing simulator
charges — over every ``__shared__`` access of the transformed kernel and
warns when an access serializes ≥ ``WARN_DEGREE``-way.  It is what
catches a dropped padding column (the 16×17 tile trick) after a pass
reshuffles indices.

Loop iterators are warp-uniform per instruction issue, so each sampled
iterator assignment is evaluated with a *common* value across the half
warp; threads whose guards evaluate false are inactive and excluded.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.ir.access import (AccessInfo, Axis, block_threads,
                             collect_accesses, launch_axes)
from repro.lang.astnodes import Kernel
from repro.machine import GTX280, GpuSpec
from repro.sim.timing import bank_serialization

#: Serialization degree at and above which the lint warns.
WARN_DEGREE = 4

_LOOP_CAP = 6
_ASSIGN_CAP = 24


def _iterator_assignments(acc: AccessInfo, base: Mapping[str, int]
                          ) -> List[Dict[str, int]]:
    """Sampled warp-common loop-iterator assignments for one access."""
    out: List[Dict[str, int]] = [{}]
    for info in acc.loops:
        nxt: List[Dict[str, int]] = []
        for partial in out:
            sample = info.sample({**base, **partial}, np.ones((), bool),
                                 _LOOP_CAP, acc.term_defs, acc.env_forms)
            if sample is None:
                # Thread-dependent loop start (a staging copy loop like
                # ``cb = tidx + 16*tidy``): evaluate it per thread later
                # by leaving the iterator unbound here.
                continue
            values, valid = sample[:2]
            for v in values[valid].tolist():
                combo = dict(partial)
                combo[info.name] = v
                nxt.append(combo)
                if len(nxt) >= _ASSIGN_CAP:
                    break
            if len(nxt) >= _ASSIGN_CAP:
                break
        out = nxt if nxt else out
    return out


def check_banks(kernel: Kernel, sizes: Mapping[str, int],
                block: Tuple[int, int], grid: Tuple[int, int] = (1, 1),
                *, kernel_name: str = "", stage: str = "",
                machine: Optional[GpuSpec] = None,
                accesses: Optional[Sequence[AccessInfo]] = None
                ) -> List[Diagnostic]:
    """Warn on shared accesses serializing ≥ :data:`WARN_DEGREE`-way."""
    if machine is None:
        machine = GTX280
    if accesses is None:
        accesses = collect_accesses(kernel, sizes)
    banks = machine.shared_banks
    halfwarp = block_threads(block, cap=16)
    if len(halfwarp) < 2:
        return []

    diags: List[Diagnostic] = []
    for acc in accesses:
        if acc.space != "shared":
            continue
        degree = _worst_degree(acc, block, grid, halfwarp, banks)
        if degree is not None and degree >= WARN_DEGREE:
            kind = "store" if acc.is_store else "load"
            diags.append(Diagnostic(
                analysis="banks", severity=Severity.WARNING,
                message=(f"{degree}-way bank conflict on __shared__ "
                         f"{kind} {acc.array!r} (half warp serializes "
                         f"over {banks} banks)"),
                kernel=kernel_name, stage=stage, array=acc.array,
                stmt=acc.stmt,
                details={"degree": degree, "banks": banks}))
    return diags


def _worst_degree(acc: AccessInfo, block: Tuple[int, int],
                  grid: Tuple[int, int],
                  halfwarp: Sequence[Tuple[int, int]],
                  banks: int) -> Optional[int]:
    block_env: Dict[str, int] = {
        "bdimx": block[0], "bdimy": block[1],
        "gdimx": grid[0], "gdimy": grid[1], "bidx": 0, "bidy": 0,
        "tidx": 0, "tidy": 0,
    }
    block_env.update(acc.sizes)
    assignments = _iterator_assignments(acc, block_env)[:_ASSIGN_CAP]
    # One point per (assignment, half-warp thread), assignments outermost.
    rows = np.repeat(np.arange(len(assignments)), len(halfwarp))
    bind: Dict[str, Axis] = {
        **launch_axes(block, grid, halfwarp * len(assignments)), **acc.sizes}
    for name in assignments[0]:
        bind[name] = np.array([a[name] for a in assignments])[rows]
    live = np.ones(rows.shape, bool)
    for info in acc.loops:
        if info.name in bind:
            continue
        # thread-dependent copy-loop iterator: take its first value for
        # each thread (one representative issue)
        sample = info.sample(bind, live, 1, acc.term_defs, acc.env_forms)
        if sample is None or not sample[1].any():
            return None
        values, valid = sample[:2]
        live = live & valid.any(-1)
        bind[info.name] = np.take_along_axis(
            values, np.argmax(valid, -1)[:, None], -1)[:, 0]
    sweep = acc.sweep({name: value[live] if isinstance(value, np.ndarray)
                       else value for name, value in bind.items()},
                      _LOOP_CAP)
    if sweep.address is None:
        return None
    rows = rows[live][sweep.active]
    addrs = sweep.address[sweep.active]
    degrees = [bank_serialization(addrs[rows == row].tolist(), banks)
               for row in range(len(assignments))
               if np.count_nonzero(rows == row) >= 2]
    return max(degrees, default=None)
