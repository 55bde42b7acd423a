"""The differential harness: synthesize inputs, launch once, compare.

Every dynamic check in the repo trusts a kernel because a run of it
matches a reference run bit for bit: the fuzz oracle, validated
compiles, race confirmation, explore's ``measure="sim"`` mode and
``tools/mutate_barriers.py``.  This module is the one definition of the
pieces they share; each caller owns only its seed, which is part of its
contract (corpus replays need no stored arrays).

Inputs are integers in ``[0, 8)`` stored as float32 (int32 for ``int``
arrays), so every sum and product the generated and suite kernels form
is exact and float reassociation cannot mask or fake a divergence.
Arrays the kernel assigns start at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.lang.astnodes import ArrayRef, AssignStmt, Kernel, walk_stmts
from repro.sim.backend import normalize_backend, run_kernel
from repro.sim.interp import BarrierError, LaunchConfig
from repro.sim.scheduled import make_scheduler

Arrays = Dict[str, np.ndarray]


def inputs(kernel: Kernel, sizes: Mapping[str, int], seed: int) -> Arrays:
    """Deterministic inputs for ``kernel`` at ``sizes``, drawn from ``seed``.

    ``float2``/``float4`` parameters get their trailing lanes axis.
    """
    params = {p.name for p in kernel.array_params()}
    written = {s.target.base.name for s in walk_stmts(kernel.body)
               if isinstance(s, AssignStmt) and isinstance(s.target, ArrayRef)
               and s.target.base.name in params}
    rng = np.random.default_rng(seed)
    arrays: Arrays = {}
    for p in kernel.array_params():
        shape = tuple(p.array_type().resolved_dims(sizes))
        if p.type.lanes > 1:
            shape += (p.type.lanes,)
        dtype = np.int32 if p.type.name == "int" else np.float32
        if p.name in written:
            arrays[p.name] = np.zeros(shape, dtype=dtype)
        else:
            arrays[p.name] = rng.integers(0, 8, size=shape).astype(dtype)
    return arrays


def lanes_view(kernel: Kernel, arrays: Mapping[str, np.ndarray]) -> Arrays:
    """``arrays`` with each flat vector-typed array viewed as
    ``(..., n / lanes, lanes)``; no element is copied."""
    bound = dict(arrays)
    for p in kernel.array_params():
        arr = bound.get(p.name)
        if p.type.lanes > 1 and arr is not None and arr.ndim == len(p.dims):
            bound[p.name] = arr.reshape(arr.shape[:-1] + (
                arr.shape[-1] // p.type.lanes, p.type.lanes))
    return bound


def family(exc: Optional[BaseException]) -> str:
    """How a failure is classified when two runs are compared.  A
    scheduled ``DeadlockError`` is a ``BarrierError``: lockstep's
    divergent barrier and the deadlock are one bug seen by two oracles."""
    if exc is None:
        return "ok"
    if isinstance(exc, BarrierError):
        return "BarrierError"
    return type(exc).__name__


@dataclass
class Evidence:
    """What one launch did: its arrays, its failure, where it ran."""

    outputs: Arrays              # every array, as the launch left it
    backend: str                 # the backend that ran (or was asked for)
    exc: Optional[Exception] = None
    yields: Optional[int] = None           # scheduled runs that finished
    trace_tail: Tuple[int, ...] = ()

    @property
    def family(self) -> str:
        return family(self.exc)


def run(kernel: Kernel, config: LaunchConfig, arrays: Mapping[str, np.ndarray],
        scalars: Mapping[str, object], *, backend: Optional[str],
        profile=None, scheduler=None) -> Evidence:
    """Launch ``kernel`` exactly once on a private copy of ``arrays``.

    ``scalars`` may bind more names than the kernel's scalar parameters.
    An exception the launch raises is recorded, not raised.
    """
    outputs = {name: a.copy() for name, a in arrays.items()}
    ev = Evidence(outputs, normalize_backend(backend))
    try:
        args = {p.name: scalars[p.name] for p in kernel.scalar_params()}
        ev.backend = run_kernel(kernel, config, lanes_view(kernel, outputs),
                                args, backend=backend, profile=profile,
                                scheduler=scheduler)
    except Exception as exc:
        ev.exc = exc
    done = getattr(scheduler, "last_result", None)
    if done is not None:
        ev.yields, ev.trace_tail = done.yields, tuple(done.trace_tail)
    return ev


def compare(got, want) -> Optional[str]:
    """Where ``got`` disagrees with ``want``; ``None`` if it does not.

    Takes two :class:`Evidence` (error family first: two runs failing
    in the same family agree) or two name -> array mappings.
    """
    if isinstance(want, Evidence):
        if got.family != want.family:
            return (f"{want.backend} {want.family} ({want.exc}) vs "
                    f"{got.backend} {got.family} ({got.exc})"
                    ).replace(" (None)", "")
        if want.exc is not None:
            return None
        got, want = got.outputs, want.outputs
    for name in sorted(want):
        a, b = got[name], want[name]
        if a.shape != b.shape:
            return f"array {name!r}: shape {a.shape} != {b.shape}"
        if not np.array_equal(a, b):
            first = tuple(int(i) for i in np.argwhere(a != b)[0])
            return (f"array {name!r}: {int(np.count_nonzero(a != b))} "
                    f"element(s) differ (first at {first}: "
                    f"{a[first]!r} != {b[first]!r})")
    return None


def schedule_sweep(kernel: Kernel, config: LaunchConfig,
                   arrays: Mapping[str, np.ndarray],
                   scalars: Mapping[str, object],
                   plan: Sequence[Tuple[int, str]]
                   ) -> Iterator[Tuple[int, str, Evidence]]:
    """One scheduled launch per planned ``(seed, kind)``, lazily.

    A caller stops at its first witness by leaving the loop; Ctrl-C
    propagates from inside the launch it interrupted.
    """
    for seed, kind in plan:
        yield seed, kind, run(kernel, config, arrays, scalars,
                              backend="scheduled",
                              scheduler=make_scheduler(kind, seed))
