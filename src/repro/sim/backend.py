"""Backend selection for kernel execution: four names, three backends.

The simulator has three execution backends with identical observable
semantics on the kernels each supports — two drivers over the scalar core
(:mod:`repro.sim.core`) and a lane-array evaluator — plus ``auto``:

``lockstep``
    :class:`repro.sim.interp.Interpreter` — one Python generator per
    simulated thread, exact barrier scheduling, supports every construct
    and the per-access trace hook.  The reference backend.
``vectorized``
    :class:`repro.sim.vectorized.VectorizedInterpreter` — all threads of
    the launch evaluated at once, one NumPy lane per thread.  How much
    faster than lockstep depends on how many threads a launch batches:
    about 15x on the Table-1 kernels at a few hundred threads (ledger
    row ``sim.vectorized_over_lockstep``), and the gap keeps growing
    with the launch width (compare the two backends' ``threads_per_s``
    rows).  Statically refuses conditional barriers and
    thread-dependent barrier loops.
``scheduled``
    :class:`repro.sim.scheduled.ScheduledInterpreter` — warps run as
    coroutines yielding at sequence points under a pluggable scheduler
    (pass one via ``scheduler=``; default seeded-random).  The
    schedule-space race-testing backend: never chosen by ``auto``, used
    by ``fuzz --schedules`` and :func:`repro.analysis.confirm_race`.
``auto``
    Vectorized when the kernel's static classification allows it, with a
    silent fallback to lockstep otherwise (and whenever a trace hook is
    requested, since tracing needs per-thread access order).

:func:`run_kernel` is the single entry point; callers pass
``backend=`` or rely on the process default, which is ``lockstep``
unless the ``REPRO_SIM_BACKEND`` environment variable (read at import
and changeable via :func:`set_default_backend`) says otherwise.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from repro.lang.astnodes import Kernel
from repro.sim.interp import Interpreter, LaunchConfig, TraceHook
from repro.sim.vectorized import UnsupportedKernelError, VectorizedInterpreter

__all__ = [
    "BACKENDS",
    "default_backend",
    "normalize_backend",
    "run_kernel",
    "set_default_backend",
]

#: Recognized values for ``backend=`` parameters and ``REPRO_SIM_BACKEND``.
BACKENDS = ("lockstep", "vectorized", "auto", "scheduled")

_ENV_VAR = "REPRO_SIM_BACKEND"
_default = os.environ.get(_ENV_VAR, "lockstep")


def normalize_backend(backend: Optional[str]) -> str:
    """Resolve ``backend`` (or the process default) to a known name."""
    name = backend if backend is not None else _default
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulator backend {name!r}; expected one of "
            f"{', '.join(BACKENDS)}")
    return name


def default_backend() -> str:
    """The backend used when callers pass ``backend=None``."""
    return normalize_backend(None)


def set_default_backend(backend: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _default
    previous = _default
    _default = normalize_backend(backend)
    return previous


def run_kernel(kernel: Kernel, config: LaunchConfig,
               arrays: Dict[str, np.ndarray],
               scalars: Optional[Dict[str, object]] = None, *,
               backend: Optional[str] = None,
               trace: Optional[TraceHook] = None,
               profile=None, scheduler=None) -> str:
    """Execute one kernel launch; ``arrays`` are mutated in place.

    ``profile`` accepts a :class:`repro.obs.profile.ProfileCollector`;
    unlike ``trace`` it is supported by *both* the lockstep and
    vectorized backends (the dynamic counters are defined to be
    backend-independent, and the profiler test suite holds them
    bit-identical).  ``scheduler`` (a
    :class:`repro.sim.scheduled.Scheduler`) selects the interleaving of
    the ``scheduled`` backend; after the run its ``last_result`` holds
    the replay metadata.  Returns the name of the backend that actually
    ran (``auto`` resolves to ``vectorized`` or ``lockstep``), so
    callers can report fallbacks.
    """
    name = normalize_backend(backend)
    if name == "scheduled":
        from repro.sim.scheduled import ScheduledInterpreter
        if trace is not None or profile is not None:
            raise UnsupportedKernelError(
                kernel.name, ["trace/profile hooks require the lockstep "
                              "or vectorized backend"])
        ScheduledInterpreter(kernel).run(config, arrays, scalars,
                                         scheduler=scheduler)
        return "scheduled"
    if trace is not None and name != "vectorized":
        # Tracing observes per-thread access order, which only the
        # lockstep interpreter models.
        name = "lockstep"
    if name == "auto":
        interp = VectorizedInterpreter(kernel, profile=profile)
        if interp.unsupported_reasons:
            name = "lockstep"
        else:
            interp.run(config, arrays, scalars)
            return "vectorized"
    if name == "vectorized":
        if trace is not None:
            raise UnsupportedKernelError(
                kernel.name, ["trace hooks require the lockstep backend"])
        VectorizedInterpreter(kernel, profile=profile).run(config, arrays,
                                                           scalars)
        return "vectorized"
    Interpreter(kernel, trace=trace,
                profile=profile).run(config, arrays, scalars)
    return "lockstep"
