"""Functional interpreter: runs kernel ASTs on a simulated grid.

Every thread is a Python generator that yields at barriers (built by
:mod:`repro.sim.core`, which owns the per-thread semantics); the lockstep
scheduler here advances all threads of the grid phase by phase, which
gives exact CUDA barrier semantics:

* ``__syncthreads`` — every live thread of the *block* must reach the same
  barrier (divergent barriers raise :class:`BarrierError`, a real bug on
  hardware);
* ``__global_sync`` — every live thread of the *grid* must reach it (the
  naive-kernel grid barrier the paper supports, Section 3).

Execution order within a phase is sequential per thread, so data written
before a barrier is visible after it, exactly as on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.lang.astnodes import ArrayRef, Kernel
from repro.sim import core
from repro.sim.core import MAX_STEPS_DEFAULT, KernelRuntimeError


class BarrierError(KernelRuntimeError):
    """Threads reached different barriers (divergent __syncthreads)."""


@dataclass(frozen=True)
class LaunchConfig:
    """Grid and block dimensions for one kernel launch."""

    grid: Tuple[int, int] = (1, 1)
    block: Tuple[int, int] = (16, 1)

    @property
    def threads_per_block(self) -> int:
        return self.block[0] * self.block[1]

    @property
    def total_threads(self) -> int:
        return self.threads_per_block * self.grid[0] * self.grid[1]

    def __str__(self) -> str:
        return (f"grid({self.grid[0]}, {self.grid[1]}) x "
                f"block({self.block[0]}, {self.block[1]})")


@dataclass
class Launch:
    """One kernel launch of a compiled program.

    A program is a list of these: one for an ordinary compiled kernel,
    several for a fissioned reduction or a staged FFT.  Whatever runs,
    prices, profiles or verifies a program reads its launches from that
    list.  ``label`` names the launch within a multi-launch program
    (``''`` for a program of one launch, which takes its stage's name);
    ``scalars`` binds the kernel's scalar parameters; ``vector_lanes`` and
    ``registers`` are what the timing model needs beyond the kernel
    (``registers=None``: estimate them from the kernel).
    """

    label: str
    kernel: Kernel
    config: LaunchConfig
    scalars: Dict[str, int]
    vector_lanes: int = 1
    registers: Optional[int] = None


# Trace event: (array, linear_addr, is_store, (bidx, bidy), (tidx, tidy), site)
TraceHook = Callable[[str, int, bool, Tuple[int, int], Tuple[int, int],
                      ArrayRef], None]


class Interpreter:
    """Executes one kernel over a launch configuration."""

    def __init__(self, kernel: Kernel, trace: Optional[TraceHook] = None,
                 max_steps: int = MAX_STEPS_DEFAULT, profile=None):
        self._kernel = kernel
        self._trace = trace
        self._profile = profile    # repro.obs.profile.ProfileCollector
        self._max_steps = max_steps

    def run(self, config: LaunchConfig, arrays: Dict[str, np.ndarray],
            scalars: Optional[Dict[str, object]] = None) -> None:
        """Execute the kernel; ``arrays`` are mutated in place.

        ``arrays`` maps array-parameter names to numpy arrays (float32 /
        int32; vector element types use a trailing lane axis).  ``scalars``
        binds the scalar parameters.
        """
        blocks = core.launch(self._kernel, config, arrays, scalars,
                             preempt=False, max_steps=self._max_steps,
                             trace=self._trace, profile=self._profile)
        self._schedule([t for members in blocks for t in members])

    def _schedule(self, threads: List[core.Thread]) -> None:
        """Advance every live thread to its next barrier, phase by phase,
        checking that the threads of a block agree on where they stopped."""
        live = threads
        while live:
            # Where each thread stops: 'block' | 'global', None = exited.
            by_block: Dict[Tuple[int, int], Set[Optional[str]]] = {}
            for t in live:
                t.step()
                by_block.setdefault(t.block, set()).add(t.waiting)
            for block, kinds in by_block.items():
                if len(kinds) > 1:
                    raise BarrierError(
                        f"block {block}: threads diverged at a barrier "
                        f"({sorted(str(k) for k in kinds)})")
            if any("global" in kinds for kinds in by_block.values()):
                for block, kinds in by_block.items():
                    if "global" not in kinds:
                        raise BarrierError(
                            f"block {block} missed a __global_sync other "
                            f"blocks reached")
            live = [t for t in live if not t.done]


def launch(kernel: Kernel, config: LaunchConfig,
           arrays: Dict[str, np.ndarray],
           scalars: Optional[Dict[str, object]] = None,
           trace: Optional[TraceHook] = None) -> None:
    """Convenience wrapper: build an interpreter and run one launch."""
    Interpreter(kernel, trace=trace).run(config, arrays, scalars)
