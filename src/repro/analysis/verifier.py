"""Orchestration of the static kernel analyses.

:func:`verify_kernel` runs the race, divergence, bounds and bank checks
over one (kernel, sizes, launch) triple and merges their findings into a
single :class:`~repro.analysis.diagnostics.DiagnosticReport`; the phase
slicing and access collection are computed once and shared.
:func:`verify_compiled` adapts a :class:`~repro.compiler.CompiledKernel`
— using its *halved* size bindings so ``float2`` extents are checked as
the transformed kernel sees them, and its planned launch configuration.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.analysis.banks import check_banks
from repro.analysis.bounds import check_bounds
from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.divergence import check_divergence
from repro.sim.phases import slice_phases
from repro.analysis.races import check_races
from repro.ir.access import collect_accesses
from repro.lang.astnodes import Kernel
from repro.machine import GpuSpec


def verify_kernel(kernel: Kernel, sizes: Mapping[str, int],
                  block: Tuple[int, int], grid: Tuple[int, int] = (1, 1),
                  *, machine: Optional[GpuSpec] = None,
                  kernel_name: str = "", stage: str = "",
                  dataflow: bool = False) -> DiagnosticReport:
    """Run the race, divergence, bounds and bank analyses on one kernel
    under one launch.

    ``dataflow`` adds the abstract-interpretation lint (``dataflow.*``
    rules).  It is off by default: the fuzz oracle and compile-time
    verification predate it and pin their diagnostic sets; ``repro lint``
    turns it on.
    """
    name = kernel_name or kernel.name
    report = DiagnosticReport()
    slicing = slice_phases(kernel)
    accesses = collect_accesses(kernel, sizes)
    report.extend(check_divergence(kernel, kernel_name=name, stage=stage))
    report.extend(check_races(kernel, sizes, block, grid,
                              kernel_name=name, stage=stage,
                              slicing=slicing, accesses=accesses))
    report.extend(check_bounds(kernel, sizes, block, grid,
                               kernel_name=name, stage=stage,
                               accesses=accesses))
    report.extend(check_banks(kernel, sizes, block, grid,
                              kernel_name=name, stage=stage,
                              machine=machine, accesses=accesses))
    if dataflow:
        from repro.analysis.dataflow.check import check_dataflow
        report.extend(check_dataflow(kernel, sizes, block, grid,
                                     kernel_name=name, stage=stage,
                                     accesses=accesses, slicing=slicing))
    return report


def verify_compiled(compiled, stage: str = "",
                    dataflow: bool = False) -> DiagnosticReport:
    """Verify a compiled kernel under its planned launch configuration."""
    config = compiled.config
    return verify_kernel(
        compiled.kernel, compiled.size_bindings(),
        block=tuple(config.block), grid=tuple(config.grid),
        machine=compiled.ctx.machine, kernel_name=compiled.name,
        stage=stage, dataflow=dataflow)
