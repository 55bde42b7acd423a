"""Static kernel verification (the analysis phase over the pass pipeline).

The optimization passes emit ``__shared__`` staging and ``__syncthreads()``
barriers (Section 3.3) and rewrite the index arithmetic those barriers
protect (Sections 3.5-3.7).  This package checks the *output* of every
pipeline stage statically:

* :mod:`repro.analysis.races`      — shared-memory race detection over
  barrier-delimited phases;
* :mod:`repro.analysis.divergence` — barriers reachable under
  thread-dependent control flow;
* :mod:`repro.analysis.bounds`     — affine index ranges vs. declared
  array extents;
* :mod:`repro.analysis.banks`      — shared-memory bank-conflict lint;
* :mod:`repro.analysis.dataflow`   — abstract-interpretation dataflow
  framework (interval + stride lattices, affine access summaries,
  barrier-interval def-use, and proof objects for the cleanup pass);
* :mod:`repro.analysis.confirm`    — dynamic confirmation of race
  warnings by searching the warp-schedule space for a witnessing
  interleaving (the static detector's conservative findings become
  confirmed / refuted-up-to-budget).

:mod:`repro.analysis.verifier` orchestrates them over a shared
diagnostics framework (:mod:`repro.analysis.diagnostics`).
"""

from repro.analysis.confirm import (
    ScheduleWitness,
    assert_schedule_invariant,
    confirm_race,
)
from repro.analysis.dataflow import KernelFacts, analyze_kernel
from repro.analysis.dataflow.check import check_dataflow
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.sim.phases import PhaseSlicing, slice_phases
from repro.analysis.verifier import verify_compiled, verify_kernel

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "KernelFacts",
    "PhaseSlicing",
    "ScheduleWitness",
    "Severity",
    "analyze_kernel",
    "assert_schedule_invariant",
    "check_dataflow",
    "confirm_race",
    "slice_phases",
    "verify_compiled",
    "verify_kernel",
]
