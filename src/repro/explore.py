"""Design-space exploration (paper Section 4, Figure 10).

The number of thread blocks to merge and the degree of thread merge have a
non-linear effect on performance, so the compiler "generates multiple
versions of code and resorts to an empirical search by test running each
version" (Section 4.1).  Here the test run is the analytic performance
model — the same substitution DESIGN.md documents for the GPU itself —
and the search sweeps the paper's ranges:

* thread-block merge: 8, 16, or 32 blocks (128/256/512 threads);
* thread merge: 4, 8, 16, or 32 work items per thread.

The paper also notes the optimum depends on the input size, which is why
``explore`` takes concrete size bindings and Figure 10 is swept per size.

Two measurement modes:

* ``measure="model"`` (default) scores each version with the analytic
  performance model — the DESIGN.md substitution for the GPU;
* ``measure="sim"`` actually *test-runs* each version, like the paper's
  empirical search, timing a launch on the functional simulator.  The
  warp-vectorized backend (``backend="vectorized"``/``"auto"``) makes
  this affordable: a full sweep is tens of launches, each 10-100x faster
  than the lockstep interpreter.  Simulated wall-clock is a proxy
  measurement — it rewards versions that do less total work (fewer
  statements, better merges) but cannot see memory-system effects the
  analytic model covers, so ``model`` remains the default.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler import CompiledKernel, CompileOptions, compile_kernel
from repro.machine import GTX280, GpuSpec
from repro.passes.base import PassError
from repro.sim.differential import inputs
from repro.sim.perf import PerfEstimate, estimate_compiled

# Section 4.1's candidate factors.
BLOCK_MERGE_FACTORS = (4, 8, 16, 32)
THREAD_MERGE_FACTORS = (1, 4, 8, 16, 32)


@dataclass
class Version:
    """One explored code version and its predicted/measured performance."""

    block_merge: int
    thread_merge: int
    compiled: Optional[CompiledKernel]
    estimate: Optional[PerfEstimate]
    error: Optional[str] = None
    #: Wall-clock seconds of a simulator test run (``measure="sim"``).
    measured_s: Optional[float] = None
    #: Dynamic hardware counters of the test run (``measure="sim"``);
    #: a :class:`repro.obs.profile.KernelProfile` (serial sweeps) or its
    #: ``to_dict()`` form (parallel sweeps, which cross a process
    #: boundary).
    profile: Optional[object] = None
    #: The optimized printed source.  Always populated for feasible
    #: versions; in parallel sweeps only the winner additionally carries
    #: a full :class:`CompiledKernel` in ``compiled``.
    source_text: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.error is None

    @property
    def time_s(self) -> float:
        if self.measured_s is not None:
            return self.measured_s
        return self.estimate.time_s if self.estimate else float("inf")


@dataclass
class ExplorationResult:
    """The swept design space plus the winning version."""

    versions: List[Version]
    best: Version

    def grid(self) -> Dict[Tuple[int, int], float]:
        """(block_merge, thread_merge) -> time, for plotting Figure 10."""
        return {(v.block_merge, v.thread_merge): v.time_s
                for v in self.versions}


def _test_inputs(compiled: CompiledKernel) -> Dict[str, np.ndarray]:
    """One test run's inputs (:func:`repro.sim.differential.inputs`)."""
    return inputs(compiled.kernel, compiled.size_bindings(), 0xC0FFEE)


def measure_compiled(compiled: CompiledKernel,
                     backend: Optional[str] = None) -> float:
    """Wall-clock seconds of one simulated launch (empirical search)."""
    arrays = _test_inputs(compiled)
    start = time.perf_counter()
    compiled.run(arrays, backend=backend)
    return time.perf_counter() - start


def profile_compiled(compiled: CompiledKernel,
                     backend: Optional[str] = None):
    """Dynamic counters of one test run (``KernelProfile``).

    A separate launch from :func:`measure_compiled` so the profiling
    hooks never distort the timed run.
    """
    return compiled.profile(_test_inputs(compiled), backend=backend)


def candidate_options(block_merge: int, thread_merge: int,
                      base: Optional[CompileOptions] = None
                      ) -> CompileOptions:
    """The exact options one swept (bm, tm) candidate compiles with.

    Shared by the serial and the pool-parallel sweep, so both explore
    byte-identical design points (the parallel-equivalence CI step and
    ``tests/test_serve_pool.py`` pin this).
    """
    base = base or CompileOptions()
    return CompileOptions(
        enable_vectorize=base.enable_vectorize,
        enable_coalesce=base.enable_coalesce,
        enable_merge=True,
        enable_prefetch=base.enable_prefetch,
        enable_partition=base.enable_partition,
        block_merge_x=block_merge,
        block_merge_y=base.block_merge_y,
        thread_merge_x=base.thread_merge_x,
        thread_merge_y=thread_merge,
        target_threads=16 * block_merge)


def explore(source: str, sizes: Dict[str, int], domain: Tuple[int, int],
            machine: GpuSpec = GTX280,
            block_factors: Sequence[int] = BLOCK_MERGE_FACTORS,
            thread_factors: Sequence[int] = THREAD_MERGE_FACTORS,
            base_options: Optional[CompileOptions] = None,
            measure: str = "model",
            backend: Optional[str] = None,
            workers: int = 0,
            pool: Optional[object] = None,
            remote: Optional[object] = None,
            ) -> ExplorationResult:
    """Sweep merge factors and pick the best-performing version.

    ``measure`` selects the scoring: ``"model"`` uses the analytic
    estimate; ``"sim"`` test-runs each version on the simulator (the
    paper's empirical search) with the given ``backend``.

    ``workers > 0`` (or an explicit :class:`repro.serve.pool.WorkerPool`
    via ``pool``) fans the candidate compiles out over worker processes:
    the embarrassingly parallel shape of the paper's Section 4.1
    empirical search.  Results are identical to the serial sweep (same
    candidates, same scores, same winner); only the winner carries a
    full in-process :class:`CompiledKernel`.

    ``remote`` (a compile-service base URL, or a
    :class:`repro.serve.client.ServeClient`) compiles the candidates on
    a running ``python -m repro serve`` daemon instead — repeated sweeps
    over the same kernel hit the daemon's content-addressed cache, and
    the retrying client rides out shed (429) responses.  Remote sweeps
    score with the analytic model only (``measure="model"``); the
    winner is rematerialized locally, exactly like the pool sweep.
    """
    if measure not in ("model", "sim"):
        raise ValueError(f"unknown measure {measure!r}; "
                         f"expected 'model' or 'sim'")
    base = base_options or CompileOptions()
    grid = [(bm, tm) for bm in block_factors for tm in thread_factors]
    if remote is not None:
        if pool is not None or workers > 0:
            raise ValueError("remote and pool/workers are exclusive")
        if measure != "model":
            raise ValueError("remote exploration scores with the "
                             "analytic model; use measure='model'")
        versions = _explore_remote(source, sizes, domain, machine, grid,
                                   base, remote)
    elif pool is not None or workers > 0:
        versions = _explore_pool(source, sizes, domain, machine, grid, base,
                                 measure, backend, workers, pool)
    else:
        versions = _explore_serial(source, sizes, domain, machine, grid,
                                   base, measure, backend)
    feasible = [v for v in versions if v.feasible]
    if not feasible:
        raise PassError("no feasible version in the explored space")
    best = min(feasible, key=lambda v: v.time_s)
    if best.compiled is None:
        # Parallel sweep: materialize the winner locally (compilation is
        # deterministic, so this is the version the worker scored).
        best.compiled = compile_kernel(
            source, sizes, domain, machine,
            candidate_options(best.block_merge, best.thread_merge, base))
    return ExplorationResult(versions=versions, best=best)


def _explore_serial(source, sizes, domain, machine, grid, base,
                    measure, backend) -> List[Version]:
    versions: List[Version] = []
    for bm, tm in grid:
        options = candidate_options(bm, tm, base)
        try:
            compiled = compile_kernel(source, sizes, domain, machine,
                                      options)
            est = estimate_compiled(compiled)
            version = Version(bm, tm, compiled, est,
                              source_text=compiled.source)
            if measure == "sim":
                version.measured_s = measure_compiled(compiled,
                                                      backend=backend)
                version.profile = profile_compiled(compiled,
                                                   backend=backend)
            versions.append(version)
        except PassError as exc:
            versions.append(Version(bm, tm, None, None, str(exc)))
    return versions


def _explore_pool(source, sizes, domain, machine, grid, base,
                  measure, backend, workers, pool) -> List[Version]:
    from repro.serve.pool import WorkerPool
    own_pool = pool is None
    pool = pool if pool is not None else WorkerPool(workers)
    try:
        tasks = pool.map("explore", [
            {"source": source, "sizes": sizes, "domain": domain,
             "machine": machine,
             "options": candidate_options(bm, tm, base),
             "block_merge": bm, "thread_merge": tm,
             "measure": measure, "backend": backend}
            for bm, tm in grid])
        versions = []
        for (bm, tm), task in zip(grid, tasks):
            record = task.result()
            versions.append(Version(
                bm, tm, None, record["estimate"], record["error"],
                measured_s=record["measured_s"],
                profile=record["profile"],
                source_text=record["source_text"]))
        return versions
    finally:
        if own_pool:
            pool.close()


def _options_overrides(options: CompileOptions) -> Dict[str, object]:
    """The candidate options as a service request ``options`` object —
    only the fields that differ from the defaults, so the request stays
    small and the daemon's unknown-option validation still applies."""
    defaults = CompileOptions()
    out: Dict[str, object] = {}
    for f in dataclasses.fields(CompileOptions):
        if f.name == "faults":
            continue                    # not wire-serializable here
        value = getattr(options, f.name)
        if value != getattr(defaults, f.name):
            out[f.name] = value
    # Parity with the local sweep: the daemon defaults resilient=True,
    # but the serial search treats a failing candidate as infeasible.
    out.setdefault("resilient", options.resilient)
    return out


def _explore_remote(source, sizes, domain, machine, grid, base,
                    remote) -> List[Version]:
    from repro.serve.client import ServeClient, ServeUnavailable
    client = remote if hasattr(remote, "compile") else ServeClient(remote)
    versions: List[Version] = []
    for bm, tm in grid:
        options = candidate_options(bm, tm, base)
        request = {"source": source,
                   "sizes": {str(k): int(v) for k, v in sizes.items()},
                   "domain": [int(domain[0]), int(domain[1])],
                   "machine": machine.name,
                   "options": _options_overrides(options)}
        try:
            reply = client.compile(request)
        except ServeUnavailable as exc:
            versions.append(Version(bm, tm, None, None,
                                    f"service unavailable: {exc}"))
            continue
        if reply.ok:
            result = reply.payload.get("result") or {}
            est_dict = dict(result.get("estimate") or {})
            est = SimpleNamespace(**est_dict) if est_dict else None
            versions.append(Version(bm, tm, None, est,
                                    source_text=result.get("source")))
        else:
            error = reply.payload.get("error") or {}
            versions.append(Version(
                bm, tm, None, None,
                error.get("message") or f"HTTP {reply.status}"))
    return versions


def autotune(source: str, sizes: Dict[str, int], domain: Tuple[int, int],
             machine: GpuSpec = GTX280,
             **kwargs) -> CompiledKernel:
    """Compile with the empirically best merge factors (the full paper
    pipeline: optimize, generate versions, search, emit the winner)."""
    result = explore(source, sizes, domain, machine, **kwargs)
    return result.best.compiled
