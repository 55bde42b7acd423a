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

Every sweep is one loop over :func:`explore_candidate`, which turns a
``(block merge, thread merge)`` candidate into a :class:`Version`.  The
serial sweep calls it in-process, a pooled sweep (``workers``/``pool``)
runs it in :mod:`repro.serve.pool` workers, and a remote sweep
(``remote``) asks a compile service for the same compile; after that the
best version is picked, and rematerialized locally if it was built
elsewhere, the same way for all three.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler import CompiledKernel, CompileOptions, compile_kernel
from repro.machine import GTX280, GpuSpec
from repro.obs.profile import KernelProfile
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
    #: Dynamic hardware counters of the test run (``measure="sim"``): a
    #: :class:`repro.obs.profile.KernelProfile` on every executor.
    profile: Optional[KernelProfile] = None
    #: The optimized printed source.  Always populated for feasible
    #: versions; in pooled and remote sweeps only the winner also
    #: carries a full :class:`CompiledKernel` in ``compiled``.
    source_text: Optional[str] = None

    def __getstate__(self) -> Dict[str, Any]:
        # A CompiledKernel stays in the process that built it: a pool
        # worker's reply carries everything else, and the sweep
        # rematerializes the winner locally.
        return dict(self.__dict__, compiled=None)

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
                     backend: Optional[str] = None) -> KernelProfile:
    """Dynamic counters of one test run.

    A separate launch from :func:`measure_compiled` so the profiling
    hooks never distort the timed run.
    """
    return compiled.profile(_test_inputs(compiled), backend=backend)


def candidate_options(block_merge: int, thread_merge: int,
                      base: Optional[CompileOptions] = None
                      ) -> CompileOptions:
    """The exact options one swept (bm, tm) candidate compiles with.

    Every executor compiles exactly these, so serial, pooled and remote
    sweeps explore byte-identical design points
    (``tests/test_serve_pool.py`` and ``tests/test_remote_modes.py`` pin
    this).
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


def explore_candidate(task: Dict[str, Any]) -> Version:
    """Compile, estimate and (``measure="sim"``) test-run one candidate.

    The one per-candidate step of every sweep: the serial sweep calls it
    in-process and the pool runs it as its ``"explore"`` task kind.
    ``task`` holds ``source``, ``sizes``, ``domain``, ``machine``,
    ``block_merge``, ``thread_merge``, ``options`` (their
    :func:`candidate_options`), ``measure`` and ``backend``.  A
    ``PassError`` makes the version infeasible rather than raising.
    """
    bm, tm = task["block_merge"], task["thread_merge"]
    try:
        compiled = compile_kernel(task["source"], task["sizes"],
                                  task["domain"], task["machine"],
                                  task["options"])
        version = Version(bm, tm, compiled, estimate_compiled(compiled),
                          source_text=compiled.source)
        if task["measure"] == "sim":
            version.measured_s = measure_compiled(compiled,
                                                  backend=task["backend"])
            version.profile = profile_compiled(compiled,
                                               backend=task["backend"])
    except PassError as exc:
        return Version(bm, tm, None, None, str(exc))
    return version


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
    tasks = [{"source": source, "sizes": sizes, "domain": domain,
              "machine": machine, "block_merge": bm, "thread_merge": tm,
              "options": candidate_options(bm, tm, base),
              "measure": measure, "backend": backend}
             for bm in block_factors for tm in thread_factors]
    if remote is not None:
        if pool is not None or workers > 0:
            raise ValueError("remote and pool/workers are exclusive")
        if measure != "model":
            raise ValueError("remote exploration scores with the "
                             "analytic model; use measure='model'")
        from repro.serve.client import ServeClient
        client = remote if hasattr(remote, "compile") else ServeClient(remote)
        versions = [_remote_candidate(client, task) for task in tasks]
    elif pool is not None or workers > 0:
        from repro.serve.pool import WorkerPool
        with (nullcontext(pool) if pool is not None
              else WorkerPool(workers)) as runner:
            versions = [t.result() for t in runner.map("explore", tasks)]
    else:
        versions = [explore_candidate(task) for task in tasks]
    feasible = [v for v in versions if v.feasible]
    if not feasible:
        raise PassError("no feasible version in the explored space")
    best = min(feasible, key=lambda v: v.time_s)
    if best.compiled is None:
        # Pooled or remote sweep: materialize the winner locally
        # (compilation is deterministic, so this is the scored version).
        best.compiled = compile_kernel(
            source, sizes, domain, machine,
            candidate_options(best.block_merge, best.thread_merge, base))
    return ExplorationResult(versions=versions, best=best)


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


def _remote_candidate(client, task: Dict[str, Any]) -> Version:
    """One candidate compiled by a compile service, as a :class:`Version`."""
    from repro.serve.client import ServeUnavailable
    bm, tm = task["block_merge"], task["thread_merge"]
    request = {"source": task["source"],
               "sizes": {str(k): int(v) for k, v in task["sizes"].items()},
               "domain": [int(d) for d in task["domain"]],
               "machine": task["machine"].name,
               "options": _options_overrides(task["options"])}
    try:
        reply = client.compile(request)
    except ServeUnavailable as exc:
        return Version(bm, tm, None, None, f"service unavailable: {exc}")
    if not reply.ok:
        error = reply.payload.get("error") or {}
        return Version(bm, tm, None, None,
                       error.get("message") or f"HTTP {reply.status}")
    result = reply.payload.get("result") or {}
    estimate = result.get("estimate")
    return Version(bm, tm, None,
                   SimpleNamespace(**estimate) if estimate else None,
                   source_text=result.get("source"))


def autotune(source: str, sizes: Dict[str, int], domain: Tuple[int, int],
             machine: GpuSpec = GTX280,
             **kwargs) -> CompiledKernel:
    """Compile with the empirically best merge factors (the full paper
    pipeline: optimize, generate versions, search, emit the winner)."""
    result = explore(source, sizes, domain, machine, **kwargs)
    return result.best.compiled
