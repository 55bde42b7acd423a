"""Static out-of-bounds checking of array subscripts.

Every global and ``__shared__`` access is checked against the declared
extents resolved under the bound ``sizes`` (the information the paper's
``#pragma`` interface conveys).  Three tiers, cheapest first:

1. **Affine interval**: per-dimension range of the affine index form with
   thread ids, block ids and loop iterators replaced by their intervals.
   Guards are ignored, so this proves most plain accesses in bounds
   instantly but over-approximates guarded ones.
2. **Concrete witness search**: when the interval sticks out (e.g. the
   prefetch load ``a[idy][i + 16 + tidx]`` whose tail guard
   ``i + 16 < w`` is what keeps it legal), enumerate boundary threads and
   blocks and sampled loop iterations *with* guard filtering; a concrete
   out-of-range subscript is a hard ERROR with the witness attached.
3. **Verdict**: no witness and the sweep credibly covered the extremes
   (affine loops sampled at both endpoints, every guard evaluable) — the
   access is accepted; otherwise an INFO notes it was not proven.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.ir.access import (AccessInfo, block_threads, collect_accesses,
                             launch_axes)
from repro.ir.affine import AffineExpr
from repro.lang.astnodes import Kernel

Interval = Tuple[int, int]

_LOOP_CAP = 10


def _interval(form: AffineExpr,
              ranges: Mapping[str, Interval]) -> Optional[Interval]:
    lo = hi = form.const
    for name, coeff in form.terms.items():
        r = ranges.get(name)
        if r is None:
            return None
        if coeff >= 0:
            lo += coeff * r[0]
            hi += coeff * r[1]
        else:
            lo += coeff * r[1]
            hi += coeff * r[0]
    return (lo, hi)


def _term_ranges(access: AccessInfo, block: Tuple[int, int],
                 grid: Tuple[int, int]) -> Dict[str, Interval]:
    bx, by = block
    gx, gy = grid
    ranges: Dict[str, Interval] = {
        "tidx": (0, bx - 1), "tidy": (0, by - 1),
        "bidx": (0, gx - 1), "bidy": (0, gy - 1),
        "idx": (0, gx * bx - 1), "idy": (0, gy * by - 1),
        "bdimx": (bx, bx), "bdimy": (by, by),
        "gdimx": (gx, gx), "gdimy": (gy, gy),
    }
    for name, value in access.sizes.items():
        ranges[name] = (value, value)
    for info in access.loops:  # outermost first: inner may use outer
        if info.start is None or info.bound is None or info.step is None:
            continue
        start = _interval(info.start, ranges)
        bound = _interval(info.bound, ranges)
        if start is None or bound is None:
            continue
        ranges[info.name] = (start[0], max(start[0], bound[1] - 1))
    return ranges


def _interval_clean(access: AccessInfo,
                    ranges: Mapping[str, Interval]) -> bool:
    if len(access.ref.indices) != len(access.dims):
        return False
    for form, extent in zip(access.index_forms, access.dims):
        if form is None:
            return False
        iv = _interval(form, ranges)
        if iv is None or iv[0] < 0 or iv[1] >= extent:
            return False
    return True


def _boundary_threads(block: Tuple[int, int],
                      everywhere: bool) -> List[Tuple[int, int]]:
    if everywhere:
        return block_threads(block, cap=512)
    bx, by = block
    xs = sorted({0, bx // 2, bx - 1})
    ys = sorted({0, by // 2, by - 1})
    return [(tx, ty) for ty in ys for tx in xs]


def _corner_blocks(grid: Tuple[int, int]) -> List[Tuple[int, int]]:
    gx, gy = grid
    xs = sorted({0, gx - 1})
    ys = sorted({0, gy - 1})
    return [(bx, by) for by in ys for bx in xs]


def check_bounds(kernel: Kernel, sizes: Mapping[str, int],
                 block: Tuple[int, int], grid: Tuple[int, int] = (1, 1),
                 *, kernel_name: str = "", stage: str = "",
                 accesses: Optional[Sequence[AccessInfo]] = None
                 ) -> List[Diagnostic]:
    """Check every array subscript against its declared extents."""
    if accesses is None:
        accesses = collect_accesses(kernel, sizes)
    diags: List[Diagnostic] = []
    for acc in accesses:
        diag = _check_access(acc, block, grid, kernel_name, stage)
        if diag is not None:
            diags.append(diag)
    return diags


def _check_access(acc: AccessInfo, block: Tuple[int, int],
                  grid: Tuple[int, int], kernel_name: str,
                  stage: str) -> Optional[Diagnostic]:
    if len(acc.ref.indices) != len(acc.dims) or not acc.dims:
        return None

    # Tier 1: guard-free affine interval.
    ranges = _term_ranges(acc, block, grid)
    if _interval_clean(acc, ranges):
        return None

    # Tier 2: guard-filtered witness search, first witness in the order
    # blocks, threads, loop samples.
    blocks = _corner_blocks(grid)
    threads = _boundary_threads(
        block, everywhere=any(f is None for f in acc.index_forms))
    sweep = acc.sweep(launch_axes(block, grid, threads, blocks), _LOOP_CAP)
    if sweep.indices is not None:
        outside = np.stack([(index < 0) | (index >= extent) for index, extent
                            in zip(sweep.indices, acc.dims)], -1)
        hits = np.argwhere(outside.any(-1) & sweep.active)
        if hits.size:
            point = tuple(hits[0])
            values = [int(index[point]) for index in sweep.indices]
            dim = int(np.argmax(outside[point]))
            value, extent = values[dim], acc.dims[dim]
            tx, ty = threads[point[0] % len(threads)]
            bidx, bidy = blocks[point[0] // len(threads)]
            kind = "store to" if acc.is_store else "load from"
            return Diagnostic(
                analysis="bounds", severity=Severity.ERROR,
                message=(f"out-of-bounds {kind} {acc.space} array "
                         f"{acc.array!r}: index {value} of dimension {dim} "
                         f"exceeds extent {extent} (thread ({tx}, {ty}) of "
                         f"block ({bidx}, {bidy}))"),
                kernel=kernel_name, stage=stage, array=acc.array,
                stmt=acc.stmt,
                details={"dimension": dim, "index": value, "extent": extent,
                         "thread": [tx, ty], "block": [bidx, bidy],
                         "indices": values})

    # Tier 3: no witness found.
    if sweep.trustworthy:
        return None
    return Diagnostic(
        analysis="bounds", severity=Severity.INFO,
        message=(f"could not prove access to {acc.array!r} in bounds "
                 f"(index not statically evaluable)"),
        kernel=kernel_name, stage=stage, array=acc.array, stmt=acc.stmt,
        details={"extents": list(acc.dims)})
