"""Inter-thread-block data-sharing analysis (paper Section 3.4).

The compiler has already associated a coalesced segment range with every
global load; two thread blocks *share* data when those ranges overlap.  As
in the paper, we check neighboring blocks along the X and Y directions.

Two tests, both on the affine address form:

* **Full sharing** — the address change between block ``b`` and ``b+1``
  along the direction is zero (``coeff(bidx) + coeff(idx)*blockDim.x == 0``
  for X): the blocks read *identical* addresses.  Exact at any size.
* **Partial sharing** — otherwise, intersect the element sets touched by
  block 0 and its neighbour.  This catches stencil-halo overlap without the
  overstatement interval arithmetic would give for strided footprints.

The sets are a *sample*: every thread of the block, but at most 24 iterations
per loop and 4096 rows of the loop nest in nest order, a non-constant loop
start taken as 0, a free size in the address as 0.  The neighbour's set is
block 0's shifted by :func:`block_delta` unless an ``@`` term reads a block id.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.ir.access import AccessInfo
from repro.ir.affine import AffineExpr
from repro.ir.segments import HALF_WARP

# Caps on the footprint sample: iterations per loop, rows of the loop nest.
_LOOP_SAMPLE_CAP = 24
_ROW_CAP = 4096
# One sampled axis: equally long columns of the names that vary together.
_Axis = Dict[str, np.ndarray]
# The neighbouring block along each direction, and the ids it changes.
_NEIGHBOR = {"x": (1, 0), "y": (0, 1)}
_BLOCK_IDS = {"x": {"bidx", "idx"}, "y": {"bidy", "idy"}}


class SharingKind(Enum):
    NONE = "none"
    PARTIAL = "partial"
    FULL = "full"


@dataclass
class Sharing:
    """Sharing verdict for one access along one grid direction."""

    access: AccessInfo
    direction: str            # 'x' | 'y'
    kind: SharingKind
    block_delta: int          # address change between neighboring blocks
    overlap_fraction: float   # |footprint(b0) ∩ footprint(b1)| / |footprint(b0)|
    unevaluable: Optional[str]  # what left the footprint unknown (kind NONE)


def block_delta(address: AffineExpr, direction: str,
                block_dims: Tuple[int, int]) -> int:
    """Address change when the block id along ``direction`` increases by 1."""
    if direction == "x":
        return address.coeff("bidx") + address.coeff("idx") * block_dims[0]
    return address.coeff("bidy") + address.coeff("idy") * block_dims[1]


def _cross(outer: _Axis, inner: _Axis) -> _Axis:
    """Joint axis: each ``outer`` row with each ``inner`` row, outer first."""
    n_outer = len(next(iter(outer.values())))
    n_inner = len(next(iter(inner.values())))
    joint = {k: np.repeat(v, n_inner) for k, v in outer.items()}
    joint.update((k, np.tile(v, n_outer)) for k, v in inner.items())
    return joint


def _sample_axes(access: AccessInfo, block: Tuple[int, int],
                 block_dims: Tuple[int, int]) -> List[_Axis]:
    """One block's sample as independent axes: no address term reads two of
    them, so their contributions to the address add."""
    loops: List[_Axis] = []
    for loop in access.loops:
        constant = loop.start is not None and loop.start.is_constant
        start = loop.start.const if constant else 0
        count = _LOOP_SAMPLE_CAP
        if loop.bound is not None and loop.bound.is_constant and loop.step:
            count = min(count, -(-(loop.bound.const - start) // loop.step))
        loops.append({loop.name: start + (loop.step or 1)
                      * np.arange(max(1, count))})
    rows = np.prod([len(v) for axis in loops for v in axis.values()])
    if rows > _ROW_CAP or len({it.name for it in access.loops}) < len(loops):
        # Truncation and shadowing are defined on the row table: build it.
        loops = [reduce(lambda table, axis: {
            k: v[:_ROW_CAP] for k, v in _cross(table, axis).items()}, loops)]
    tidx, tidy = np.arange(block_dims[0]), np.arange(block_dims[1])
    axes = [{"tidx": tidx, "idx": block[0] * block_dims[0] + tidx},
            {"tidy": tidy, "idy": block[1] * block_dims[1] + tidy}] + loops
    for term in access.quasi_terms:
        reads = access.term_reads(term)
        coupled = [axis for axis in axes if reads & axis.keys()]
        if len(coupled) > 1:     # enumerate jointly what one term couples
            axes = [axis for axis in axes if not reads & axis.keys()]
            axes.append(reduce(_cross, coupled))
    return axes


def footprint_set(access: AccessInfo, block: Tuple[int, int],
                  block_dims: Tuple[int, int]) -> Set[int]:
    """Element addresses one thread block touches, on the module's sample.
    Raises KeyError or ZeroDivisionError where an ``@`` term has no value."""
    if access.address is None:
        raise ValueError(f"{access} has no resolved address")
    axes = _sample_axes(access, block, block_dims)
    origin = {t: 0 for t in access.address.terms
              if t not in access.quasi_terms and t not in access.sizes}
    origin.update(bidx=block[0], bidy=block[1],
                  bdimx=block_dims[0], bdimy=block_dims[1])
    origin.update((k, v[0]) for axis in axes for k, v in axis.items())
    first = access.eval_addresses(origin)
    addrs = {int(first)}
    for axis in axes:
        # An axis moves the address alike wherever the other axes stand.
        spread = set((access.eval_addresses({**origin, **axis})
                      - first).tolist())
        addrs = {a + d for a in addrs for d in spread}
    return addrs


def _neighbor_footprint(access: AccessInfo, direction: str, base: Set[int],
                        block_dims: Tuple[int, int]) -> Set[int]:
    """Footprint of block 1 along ``direction``, given block 0's."""
    if any(access.term_reads(t) & _BLOCK_IDS[direction]
           for t in access.quasi_terms):
        return footprint_set(access, _NEIGHBOR[direction], block_dims)
    delta = block_delta(access.address, direction, block_dims)
    return {a + delta for a in base}


def analyze_sharing(accesses: List[AccessInfo],
                    block_dims: Tuple[int, int] = (HALF_WARP, 1),
                    ) -> List[Sharing]:
    """Sharing verdicts for every resolved global *load* in ``accesses``."""
    results: List[Sharing] = []
    for acc in accesses:
        if acc.space != "global" or acc.is_store or not acc.resolved:
            continue
        base = None
        for direction in _NEIGHBOR:
            delta = block_delta(acc.address, direction, block_dims)
            kind, frac, fault = SharingKind.FULL, 1.0, None
            if delta:
                try:
                    if base is None:
                        base = footprint_set(acc, (0, 0), block_dims)
                    inter = len(base & _neighbor_footprint(
                        acc, direction, base, block_dims))
                    kind = SharingKind.PARTIAL if inter else SharingKind.NONE
                    frac = inter / len(base)
                except (KeyError, ZeroDivisionError) as exc:
                    kind, frac, fault = SharingKind.NONE, 0.0, str(exc.args[0])
            results.append(Sharing(acc, direction, kind, delta, frac, fault))
    return results


@dataclass
class ArraySharing:
    """Sharing verdict for *all* loads of one array along one direction:
    the halos of ``a[idy][idx-1]`` and ``a[idy][idx+1]`` overlap only when
    the unions over every load are intersected across neighboring blocks."""

    array: str
    direction: str
    kind: SharingKind
    overlap_fraction: float


def analyze_array_sharing(accesses: List[AccessInfo],
                          block_dims: Tuple[int, int] = (HALF_WARP, 1),
                          ) -> List[ArraySharing]:
    """Union-of-loads sharing per array (the stencil-halo detector)."""
    by_array: Dict[str, List[AccessInfo]] = {}
    for acc in accesses:
        if acc.space == "global" and acc.is_load and acc.resolved:
            by_array.setdefault(acc.array, []).append(acc)
    results: List[ArraySharing] = []
    for array, accs in sorted(by_array.items()):
        bases = [footprint_set(a, (0, 0), block_dims) for a in accs]
        base = set().union(*bases)
        for direction in _NEIGHBOR:
            inter = len(base & set().union(*(
                _neighbor_footprint(a, direction, b, block_dims)
                for a, b in zip(accs, bases))))
            kind = (SharingKind.FULL if inter == len(base) else
                    SharingKind.PARTIAL if inter else SharingKind.NONE)
            results.append(ArraySharing(array, direction, kind,
                                        inter / len(base)))
    return results
