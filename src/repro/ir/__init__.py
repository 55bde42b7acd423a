"""Affine-analysis IR: the compiler's view of array accesses.

Everything the paper's compiler decides — coalescing (Section 3.2), staging
strategy (3.3), inter-block sharing (3.4), merge direction (3.5), partition
camping (3.7) — is a property of the *affine address function* of each global
array access.  This package provides:

* :mod:`repro.ir.affine` — affine forms over thread/block ids and iterators;
* :mod:`repro.ir.indices` — the paper's four-way index classification;
* :mod:`repro.ir.access` — per-access address functions and collection;
* :mod:`repro.ir.segments` — coalesced-segment (64-byte window) math;
* :mod:`repro.ir.dependence` — inter-thread-block data-sharing analysis.
"""

from repro.ir.affine import AffineExpr, NotAffine, affine_of
from repro.ir.indices import IndexClass, classify_index
from repro.ir.access import AccessInfo, collect_accesses
from repro.ir.segments import Segment, segments_for_halfwarp
from repro.ir.dependence import (ArraySharing, Sharing, SharingKind,
                                 analyze_array_sharing, analyze_sharing)

__all__ = [
    "AccessInfo",
    "AffineExpr",
    "ArraySharing",
    "IndexClass",
    "NotAffine",
    "Segment",
    "Sharing",
    "SharingKind",
    "affine_of",
    "analyze_array_sharing",
    "analyze_sharing",
    "classify_index",
    "collect_accesses",
    "segments_for_halfwarp",
]
