"""GPU simulator substrate.

Two layers (see DESIGN.md):

* **Functional** — :mod:`repro.sim.interp` executes kernel ASTs over a grid
  of thread blocks with exact ``__syncthreads``/``__global_sync`` barrier
  semantics (per-thread semantics: :mod:`repro.sim.core`, memories:
  :mod:`repro.sim.memory`).  Used to prove that every compiler
  transformation preserves the kernel's results.
* **Analytic** — :mod:`repro.sim.perf` estimates execution time on a machine
  description (:mod:`repro.machine`) from static access analysis, the
  occupancy calculator (:mod:`repro.sim.occupancy`), and the G80/GT200
  memory rules (coalescing, partitions, shared-memory banks).
"""

from repro.sim.backend import (
    BACKENDS,
    default_backend,
    run_kernel,
    set_default_backend,
)
from repro.sim.interp import Interpreter, LaunchConfig, launch
from repro.sim.memory import GlobalMemory, SharedMemory
from repro.sim.phases import BarrierSite, PhaseSlicing, slice_phases
from repro.sim.values import Float2, Float4
from repro.sim.vectorized import UnsupportedKernelError, VectorizedInterpreter

__all__ = [
    "BACKENDS",
    "BarrierSite",
    "Float2",
    "Float4",
    "GlobalMemory",
    "Interpreter",
    "LaunchConfig",
    "PhaseSlicing",
    "SharedMemory",
    "UnsupportedKernelError",
    "VectorizedInterpreter",
    "default_backend",
    "launch",
    "run_kernel",
    "set_default_backend",
    "slice_phases",
]
