"""repro — a reproduction of "A GPGPU Compiler for Memory Optimization
and Parallelism Management" (Yang, Xiang, Kong, Zhou; PLDI 2010).

Public API
----------

Compilation::

    from repro import compile_kernel, CompileOptions, autotune

    compiled = compile_kernel(naive_source, sizes={"n": 2048, ...},
                              domain=(2048, 2048))   # one thread per output
    print(compiled.source)        # the optimized CUDA-like kernel
    print(compiled.config)        # grid/block launch parameters
    compiled.run(arrays)          # execute on the functional simulator
    compiled.run(arrays, backend="vectorized")  # warp-vectorized backend

Reductions (grid-synchronized naive kernels)::

    from repro import compile_reduction
    program = compile_reduction(rd_source, n_elements=1 << 22)
    total = program.run(data)

Performance estimation and design-space search::

    from repro import estimate_compiled, explore, machine
    est = estimate_compiled(compiled, machine("GTX8800"))
    best = explore(naive_source, sizes, domain).best

The evaluation suite (Table 1) and baselines live in :mod:`repro.kernels`;
the paper's figures, one entry per ``results/`` file, in
:mod:`repro.bench.figures`.
"""

from repro.compiler import (CompiledKernel, CompileOptions, compile_kernel,
                            compile_stages)
from repro.explore import ExplorationResult, autotune, explore
from repro.machine import GTX280, GTX8800, HD5870, GpuSpec, machine
from repro.reduction import (CompiledReduction, ReductionPlan,
                             compile_reduction)
from repro.sim.backend import (BACKENDS, default_backend, run_kernel,
                               set_default_backend)
from repro.sim.interp import Interpreter, LaunchConfig, launch
from repro.sim.perf import PerfEstimate, estimate, estimate_compiled, \
    estimate_reduction
from repro.sim.vectorized import UnsupportedKernelError, VectorizedInterpreter

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "GTX280",
    "GTX8800",
    "HD5870",
    "CompileOptions",
    "CompiledKernel",
    "CompiledReduction",
    "ExplorationResult",
    "GpuSpec",
    "Interpreter",
    "LaunchConfig",
    "PerfEstimate",
    "ReductionPlan",
    "UnsupportedKernelError",
    "VectorizedInterpreter",
    "autotune",
    "compile_kernel",
    "compile_reduction",
    "compile_stages",
    "default_backend",
    "estimate",
    "estimate_compiled",
    "estimate_reduction",
    "explore",
    "launch",
    "machine",
    "run_kernel",
    "set_default_backend",
]
