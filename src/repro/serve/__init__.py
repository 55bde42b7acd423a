"""Compile-as-a-service: content-addressed caching + parallel fan-out.

The service front end (``python -m repro serve``) accepts naive kernel
source plus a launch shape over stdlib HTTP, compiles through the
resilient pipeline on a :class:`~repro.serve.pool.WorkerPool` of
``multiprocessing`` workers, and memoizes every artifact in an on-disk
:class:`~repro.serve.store.ArtifactStore` keyed by a content hash of
(normalized source, options, machine, repro version) — so a million
identical requests cost exactly one compile.  The wire format is the
repo's existing versioned JSON envelopes (``repro.serve/1`` wrapping
``repro.trace/1`` / ``repro.profile/1``).

Layering (DESIGN.md 5.8):

* :mod:`repro.serve.store` — the content-addressed artifact store;
* :mod:`repro.serve.pool` — crash-isolated worker pool (one supervisor
  thread per worker process; a dead worker is respawned and its task
  retried, never taking down the service);
* :mod:`repro.serve.daemon` — the single-flight compile service and the
  HTTP front end, with per-request deadlines and admission control
  (queue/in-flight bounds -> 429 + ``Retry-After``);
* :mod:`repro.serve.client` — the matching retrying client (capped
  jittered backoff honoring ``Retry-After`` and client deadlines).
"""

from repro.serve.client import ClientReply, ServeClient, ServeUnavailable
from repro.serve.daemon import CompileService, OverloadedError, serve_main
from repro.serve.pool import (PoolSaturated, TaskCancelled, TaskTimeout,
                              WorkerDied, WorkerPool)
from repro.serve.store import (ArtifactStore, GcReport, cache_key,
                               serve_gc_main)

__all__ = [
    "ArtifactStore",
    "ClientReply",
    "CompileService",
    "GcReport",
    "OverloadedError",
    "PoolSaturated",
    "ServeClient",
    "ServeUnavailable",
    "TaskCancelled",
    "TaskTimeout",
    "WorkerDied",
    "WorkerPool",
    "cache_key",
    "serve_gc_main",
    "serve_main",
]
