"""Coalesced-segment math (paper Section 2/3.2).

A *coalesced segment* is a contiguous, aligned region that one half warp can
fetch in a single transaction: for ``float`` data it starts at a multiple of
64 bytes (16 elements) and spans 64 bytes.  Given a half warp's 16 addresses,
:func:`segments_for_halfwarp` returns the distinct segments touched — the
quantity the timing model charges for, and what the staging transform loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping

import numpy as np

from repro.ir.access import AccessInfo

HALF_WARP = 16
SEGMENT_ELEMS = 16  # one segment = 16 32-bit words = 64 bytes


@dataclass(frozen=True)
class Segment:
    """One aligned 64-byte window of an array, in element units."""

    array: str
    start: int          # element index, multiple of SEGMENT_ELEMS


def segments_for_addresses(array: str, addrs: Iterable[int],
                           elem_lanes: int = 1) -> List[Segment]:
    """Distinct segments covering ``addrs`` (element addresses).

    ``elem_lanes`` scales vector elements (float2=2 lanes) into 32-bit word
    units before segmenting, since segments are byte-addressed windows.
    """
    seen = {}
    for a in addrs:
        word = a * elem_lanes
        start = (word // SEGMENT_ELEMS) * SEGMENT_ELEMS
        span = max(1, elem_lanes)
        # a vector element may straddle into the next segment
        last = ((word + span - 1) // SEGMENT_ELEMS) * SEGMENT_ELEMS
        seen[start] = True
        seen[last] = True
    return [Segment(array, s) for s in sorted(seen)]


def segments_for_halfwarp(access: AccessInfo,
                          bindings: Mapping[str, int]) -> List[Segment]:
    """Segments one half warp touches for ``access`` under ``bindings``.

    ``bindings`` fixes every non-thread term (block ids, iterators).  The
    thread position ``t`` in the half warp drives both ``tidx`` and ``idx``
    (``idx = idx0 + t`` for threads of one warp, per the CUDA thread-id
    layout the paper describes in Section 2).
    """
    t = np.arange(HALF_WARP)
    addrs = access.eval_addresses({**bindings,
                                   "tidx": bindings.get("tidx", 0) + t,
                                   "idx": bindings.get("idx", 0) + t})
    return segments_for_addresses(access.array, addrs.tolist(),
                                  access.elem.lanes)
