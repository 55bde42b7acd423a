"""Memory-coalescing check (paper Section 3.2).

For each global access the compiler computes the addresses issued by the 16
threads of a half warp — and, when a loop iterator appears in the index, for
the first 16 iterator values — and tests the G80 rules:

* the 16 threads must touch 16 consecutive words (*offsets* 0..15), and
* the *base address* must be a multiple of 16 words (64 bytes),

for every sampled iterator value.  With affine addresses both conditions
reduce to coefficient arithmetic (see :class:`Verdict`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.ir.access import AccessInfo, Axis
from repro.ir.affine import AffineExpr
from repro.ir.segments import SEGMENT_ELEMS

# Thread ids other than the X-direction ones; their coefficients must keep
# the base segment-aligned because they are constant within a half warp but
# arbitrary across half warps.
_ROW_TERMS = ("idy", "tidy", "bidy")


@dataclass
class Verdict:
    """Coalescing verdict for one access."""

    access: AccessInfo
    coalesced: bool
    reason: str

    def __repr__(self) -> str:
        state = "coalesced" if self.coalesced else "NOT coalesced"
        return f"<{self.access}: {state} ({self.reason})>"


def check_access(access: AccessInfo,
                 block_dims: Tuple[int, int] = (16, 1)) -> Verdict:
    """Apply the Section 3.2 rules to one access.

    ``block_dims`` decomposes the absolute thread ids into their block
    components (``idx = bidx*bdimx + tidx``); with a 16x16 block, terms
    like ``idx - tidx + tidy`` correctly reduce to block-aligned bases.
    """
    if not access.resolved:
        return Verdict(access, False, "unresolved index (skipped)")
    bx, by = block_dims
    addr = access.address
    addr = addr.substitute("idx", AffineExpr({"bidx": bx, "tidx": 1}, 0))
    addr = addr.substitute("idy", AffineExpr({"bidy": by, "tidy": 1}, 0))
    if by == 1:
        addr = addr.substitute("tidy", AffineExpr.constant(0))
    if any(name.startswith("@") for name in addr.terms):
        return _check_by_evaluation(access)
    ct = addr.coeff("tidx")
    if ct != 1:
        if ct == 0:
            return Verdict(access, False,
                           "all threads read the same address (broadcast)")
        return Verdict(access, False,
                       f"per-thread stride is {ct} words, not 1")

    # Base alignment: every term that is constant within a half warp but
    # can take arbitrary values across half warps must keep the base a
    # multiple of 16 words.
    loop_names = {l.name for l in access.loops}
    misaligners = []
    if addr.const % SEGMENT_ELEMS:
        misaligners.append(f"constant offset {addr.const}")
    for name, coeff in addr.terms.items():
        if name == "tidx":
            continue
        if name in loop_names:
            loop = access.loop(name)
            step = loop.step if loop and loop.step else 1
            start = 0
            if loop and loop.start is not None and loop.start.is_constant:
                start = loop.start.const
            if (coeff * step) % SEGMENT_ELEMS \
                    or (coeff * start) % SEGMENT_ELEMS:
                misaligners.append(
                    f"loop index {name} (stride {coeff * step})")
        else:
            if coeff % SEGMENT_ELEMS:
                misaligners.append(f"{name} (stride {coeff})")
    if misaligners:
        return Verdict(access, False,
                       "base not 64-byte aligned for all values of: "
                       + ", ".join(misaligners))
    return Verdict(access, True, "16 consecutive, aligned words")


def _check_by_evaluation(access: AccessInfo) -> Verdict:
    """Numeric fallback for quasi-affine addresses (``%``/``/`` terms such
    as the partition rotation or warp-local ids): evaluate the 16 thread
    addresses at a few iterator samples and test the rules directly."""
    sample = np.arange(3)[:, None]
    t = np.arange(SEGMENT_ELEMS)
    axes: Dict[str, Axis] = {
        "bidx": sample, "bidy": sample, "tidy": 0, "idy": sample,
        "bdimx": SEGMENT_ELEMS, "bdimy": 1, "gdimx": 64, "gdimy": 64,
        "tidx": t, "idx": sample * SEGMENT_ELEMS + t}
    for loop in access.loops:
        start = loop.start.const if loop.start is not None \
            and loop.start.is_constant else 0
        axes[loop.name] = start + (loop.step or 1) * SEGMENT_ELEMS * sample
    try:
        rows = access.eval_addresses(axes)
    except (KeyError, ZeroDivisionError):
        return Verdict(access, False, "quasi-affine address not evaluable")
    for addrs in rows:
        base = int(addrs[0])
        if base % SEGMENT_ELEMS:
            return Verdict(access, False,
                           f"base address {base} not 64-byte aligned")
        if np.any(addrs != base + t):
            return Verdict(access, False,
                           "threads do not access consecutive words")
    return Verdict(access, True,
                   "16 consecutive, aligned words (by evaluation)")
