"""The compile service and its stdlib HTTP front end.

:class:`CompileService` is the transport-independent core: it parses a
request, derives the content-addressed cache key, and serves the
artifact with **single-flight** semantics — concurrent requests for the
same key coalesce onto one compile (exactly one compile per unique
hash, the invariant the concurrency stress test pins), everyone else
waits for the leader's result.  Hits come straight off the
:class:`~repro.serve.store.ArtifactStore`; misses fan out over the
:class:`~repro.serve.pool.WorkerPool`.  Because the artifact body is
cache-status-free (the hit/miss verdict travels in the
``X-Repro-Cache`` response header and the ``/stats`` counters),
duplicate requests get byte-identical response bodies.

Telemetry (PR 9): every counter the service exposes lives in one
:class:`~repro.obs.metrics.MetricsRegistry` shared by the service, the
store, and the pool — ``/stats`` and ``/metrics`` both render from one
atomic snapshot and can never disagree.  Every request carries a trace
id (minted here, or accepted from the ``X-Repro-Trace-Id`` header) that
propagates through single-flight coalescing and the worker pool; each
actor writes its spans into ``<store>/traces`` so ``python -m repro
trace-view <id>`` can stitch HTTP receipt → queue wait → worker compile
→ per-pass spans back into one tree.

HTTP surface (``python -m repro serve``):

* ``POST /compile`` — body ``{"source": ..., "sizes": {...},
  "domain": [x, y] | "XxY", "machine": "GTX280", "options": {...},
  "profile": false, "timeout_s": 5.0}``; answers a ``repro.serve/1``
  envelope (200 = compiled, 422 = expected compile failure, 400 = bad
  request, 429 = shedding load (``Retry-After`` header set), 500 =
  worker lost, 503 = cancelled at shutdown, 504 = deadline expired);
  echoes ``X-Repro-Trace-Id``.
* ``GET /stats`` — hit/miss/error/corrupt counters, queue depth, store
  size, worker respawns, as a ``repro.serve/1`` envelope.
* ``GET /metrics`` — Prometheus text exposition (0.0.4);
  ``GET /metrics?format=json`` answers the ``repro.metrics/1`` envelope.
* ``GET /healthz`` — readiness probe: 200 when ready, 503 with the
  degraded conditions (dead workers, shedding, store over quota) named.

Overload and fault hardening (PR 10): per-request deadlines
(``timeout_s`` or ``--default-timeout``) propagate through coalescing
into the pool — expired queued tasks are dropped before starting,
expired running tasks get their worker killed and respawned, and the
resulting structured 504 is never cached.  Admission control
(``--max-queue`` / ``--max-inflight``) sheds over-limit requests with
an immediate 429 instead of letting the queue grow without bound.  The
store enforces byte/entry quotas with LRU GC after writes, and absorbs
injected disk faults (``REPRO_FAULTS=enospc:store-write`` etc.) by
degrading to compile-through.  :mod:`repro.serve.client` is the
matching retrying client.

On SIGTERM (or Ctrl-C) the daemon shuts down gracefully: it stops
accepting, drains in-flight requests, flushes one final
``repro.metrics/1`` snapshot line to stderr, and exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.compiler import CompileOptions
from repro.machine import MACHINES, GpuSpec, machine
from repro.obs.envelope import make_envelope
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import (TRACE_HEADER, TraceCollector, TraceContext,
                                 mint_trace_id, valid_trace_id)
from repro.obs.trace import Tracer
from repro.serve.artifact import SERVE_SCHEMA, error_artifact
from repro.serve.pool import (PoolSaturated, TaskCancelled, TaskTimeout,
                              WorkerDied, WorkerError, WorkerPool)
from repro.serve.store import ArtifactStore, cache_key

#: Default TCP port (unassigned in the IANA registry; '2010' for PLDI).
DEFAULT_PORT = 8210

#: Cache verdicts, as they appear in metric labels.
VERDICTS = ("hit", "miss", "coalesced", "error")

#: Error artifact types -> HTTP status (anything else is a 422).
ERROR_STATUS = {"WorkerDied": 500, "InternalError": 500,
                "DeadlineExceeded": 504, "Cancelled": 503,
                "Overloaded": 429}


class RequestError(ValueError):
    """A malformed service request (HTTP 400)."""


class OverloadedError(RuntimeError):
    """The service is shedding load (HTTP 429 + ``Retry-After``)."""

    def __init__(self, message: str, retry_after_s: int, reason: str):
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.reason = reason


def _json_bytes(payload: Dict[str, Any]) -> bytes:
    """The one canonical wire rendering: stored payloads and fresh
    payloads serialize identically, so duplicates are byte-identical."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def parse_request(request: Dict[str, Any],
                  ) -> Tuple[str, Dict[str, int], Tuple[int, int],
                             GpuSpec, CompileOptions, bool]:
    """Validate and normalize one /compile request body."""
    if not isinstance(request, dict):
        raise RequestError("request body must be a JSON object")
    source = request.get("source")
    if not isinstance(source, str) or not source.strip():
        raise RequestError("'source' must be a non-empty string")
    sizes_in = request.get("sizes", {})
    if not isinstance(sizes_in, dict):
        raise RequestError("'sizes' must be an object of name -> int")
    try:
        sizes = {str(k): int(v) for k, v in sizes_in.items()}
    except (TypeError, ValueError):
        raise RequestError("'sizes' values must be integers")
    domain_in = request.get("domain")
    if isinstance(domain_in, str):
        x, _, y = domain_in.partition("x")
        try:
            domain = (int(x), int(y) if y else 1)
        except ValueError:
            raise RequestError(f"bad 'domain' string {domain_in!r}; "
                               f"expected 'XxY' or 'X'")
    elif isinstance(domain_in, (list, tuple)) and len(domain_in) == 2:
        try:
            domain = (int(domain_in[0]), int(domain_in[1]))
        except (TypeError, ValueError):
            raise RequestError("'domain' entries must be integers")
    else:
        raise RequestError("'domain' must be [x, y] or 'XxY'")
    machine_name = request.get("machine", "GTX280")
    if machine_name not in MACHINES:
        raise RequestError(f"unknown machine {machine_name!r}; "
                           f"available: {sorted(MACHINES)}")
    mach = machine(machine_name)

    opts_raw = request.get("options") or {}
    if not isinstance(opts_raw, dict):
        raise RequestError("'options' must be an object")
    opts_in = dict(opts_raw)
    faults_spec = opts_in.pop("faults", None)
    known = {f.name for f in dataclasses.fields(CompileOptions)}
    unknown = sorted(set(opts_in) - known)
    if unknown:
        raise RequestError(f"unknown option(s): {', '.join(unknown)}; "
                           f"known: {', '.join(sorted(known))}")
    # The service compiles resiliently by default: a degraded kernel
    # beats a 5xx.  Clients opt out with {"resilient": false}.
    opts_in.setdefault("resilient", True)
    try:
        options = CompileOptions(**opts_in)
    except TypeError as exc:
        raise RequestError(f"bad options: {exc}")
    if faults_spec is not None:
        from repro.resilience.faults import FaultPlan, FaultSpecError
        try:
            options = dataclasses.replace(
                options, faults=FaultPlan.parse(faults_spec))
        except FaultSpecError as exc:
            raise RequestError(str(exc))
    profile = bool(request.get("profile", False))
    return source, sizes, domain, mach, options, profile


def parse_timeout(request: Dict[str, Any],
                  default_s: Optional[float] = None) -> Optional[float]:
    """The request's ``timeout_s`` (falling back to the daemon default);
    ``None`` = no deadline.  Raises :class:`RequestError` on junk."""
    raw = request.get("timeout_s", None)
    if raw is None:
        return default_s
    try:
        timeout_s = float(raw)
    except (TypeError, ValueError):
        raise RequestError(f"'timeout_s' must be a positive number, "
                           f"got {raw!r}")
    if timeout_s <= 0 or timeout_s != timeout_s:
        raise RequestError(f"'timeout_s' must be a positive number, "
                           f"got {raw!r}")
    return timeout_s


def _snap_value(snap: Dict[str, Dict[str, Any]], name: str,
                labels: Optional[Dict[str, str]] = None) -> float:
    """One series value out of a registry snapshot (0.0 if absent)."""
    family = snap.get(name)
    if not family:
        return 0.0
    want = labels or {}
    for series in family["series"]:
        if series["labels"] == want:
            return float(series.get("value", series.get("count", 0.0)))
    return 0.0


def _snap_total(snap: Dict[str, Dict[str, Any]], name: str) -> float:
    """Sum over every series of one counter family (0.0 if absent)."""
    family = snap.get(name)
    if not family:
        return 0.0
    return sum(float(s.get("value", 0.0)) for s in family["series"])


class _Flight:
    """One in-flight compile other requests for the same key join."""

    __slots__ = ("done", "payload", "cacheable", "trace_id")

    def __init__(self, trace_id: str = ""):
        self.done = threading.Event()
        self.payload: Optional[Dict[str, Any]] = None
        self.cacheable = False
        self.trace_id = trace_id


class CompileService:
    """Single-flight, content-addressed compile service (see module doc)."""

    def __init__(self, store: ArtifactStore,
                 pool: Optional[WorkerPool] = None,
                 workers: Optional[int] = None,
                 pass_budget_s: Optional[float] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 trace_dir: Optional[str] = None,
                 default_timeout_s: Optional[float] = None,
                 max_queue: Optional[int] = None,
                 max_inflight: Optional[int] = None,
                 allow_hold: bool = False):
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if pool is not None:
            self.pool = pool
            self.pool.bind_metrics(self.metrics)
        else:
            self.pool = WorkerPool(workers, metrics=self.metrics,
                                   max_queue=max_queue)
        self.store.bind_metrics(self.metrics)
        self.pass_budget_s = pass_budget_s
        #: Deadline applied to requests that do not carry their own
        #: ``timeout_s``; ``None`` = no default deadline.
        self.default_timeout_s = default_timeout_s
        #: Pending-compile bound for admission control (defaults to the
        #: pool's own ``max_queue`` when one was configured there).
        self.max_queue = (max_queue if max_queue is not None
                          else self.pool.max_queue)
        #: Concurrent-request bound; over-limit requests get a 429.
        self.max_inflight = max_inflight
        #: Whether requests may carry the ``hold_s`` chaos knob.
        self.allow_hold = allow_hold
        self.started_at = time.time()
        self.traces = TraceCollector(
            trace_dir if trace_dir is not None
            else os.path.join(store.root, "traces"))
        self._lock = threading.Lock()
        self._idle_cv = threading.Condition(self._lock)
        self._inflight: Dict[str, _Flight] = {}
        self._inflight_requests = 0
        self._bind_service_metrics()

    def _bind_service_metrics(self) -> None:
        reg = self.metrics
        self._m_requests = reg.counter(
            "repro_requests_total", "Compile requests received (any "
            "outcome, including bad requests).")
        self._m_bad = reg.counter(
            "repro_bad_requests_total", "Requests rejected at parse time "
            "(HTTP 400).")
        self._m_cache = reg.counter(
            "repro_cache_requests_total",
            "Requests by cache verdict: hit (store), miss (this request "
            "compiled), coalesced (joined an in-flight compile).",
            labelnames=("verdict",))
        self._m_errors = reg.counter(
            "repro_request_errors_total",
            "Requests answered with an error artifact, by error class.",
            labelnames=("class",))
        self._m_compiles = reg.counter(
            "repro_compiles_total", "Compiles launched (single-flight "
            "leaders; equals unique cache keys compiled).")
        self._m_latency = reg.histogram(
            "repro_request_seconds",
            "End-to-end request latency by cache verdict.",
            labelnames=("verdict",))
        self._m_inflight = reg.gauge(
            "repro_inflight_requests",
            "Requests currently being handled.")
        self._m_inflight.set(0)
        self._m_rollbacks = reg.counter(
            "repro_resilience_rollbacks_total",
            "Resilient-pipeline pass rollbacks by site and cause.",
            labelnames=("site", "cause"))
        self._m_floor = reg.counter(
            "repro_resilience_floor_total",
            "Compiles degraded to the all-optimizations-off floor.")
        self._m_faults = reg.counter(
            "repro_resilience_fault_injections_total",
            "Injected faults observed in compile traces.")
        self._m_shed = reg.counter(
            "repro_shed_total",
            "Requests shed by admission control (HTTP 429), by reason: "
            "queue (pool queue full) or inflight (request cap).",
            labelnames=("reason",))
        self._m_timeouts = reg.counter(
            "repro_timeouts_total",
            "Requests answered 504, by where the deadline expired: "
            "queued (dropped before start), running (worker killed), or "
            "coalesced (follower gave up waiting).",
            labelnames=("where",))
        reg.gauge(
            "repro_uptime_seconds", "Seconds since the service started."
        ).set_function(lambda: time.time() - self.started_at)

    # -- core --------------------------------------------------------------

    def handle_compile(self, request: Dict[str, Any],
                       trace_id: Optional[str] = None
                       ) -> Tuple[Dict[str, Any], str]:
        """Serve one request; returns ``(payload, cache_status)`` where
        cache_status is ``hit`` (store or coalesced), ``miss`` (this
        request compiled), or ``error``.

        ``trace_id`` is the request's propagated trace identity (the
        HTTP layer passes the validated ``X-Repro-Trace-Id``); one is
        minted when absent.  The request's serve-side spans are written
        to the trace collector whatever the outcome.
        """
        if not valid_trace_id(trace_id):
            trace_id = mint_trace_id()
        if (self.max_inflight is not None
                and self._inflight_requests >= self.max_inflight):
            # Shed before doing any work: the cheapest possible 429.
            with self.metrics.hold():
                self._m_requests.inc()
                self._m_shed.labels(reason="inflight").inc()
            raise OverloadedError(
                f"service at max in-flight requests "
                f"({self.max_inflight}); retry later",
                self.retry_after_s(), "inflight")
        tracer = Tracer()
        outcome: Dict[str, Any] = {"verdict": "error"}
        t0 = time.perf_counter()
        with self.metrics.hold():
            self._inflight_requests += 1
            self._m_inflight.set(self._inflight_requests)
        try:
            with tracer.span("request"):
                payload, status = self._handle(request, tracer, trace_id,
                                               outcome)
            if isinstance(payload, dict) and payload.get("kernel"):
                outcome["kernel"] = payload["kernel"]
            return payload, status
        finally:
            elapsed = time.perf_counter() - t0
            with self.metrics.hold():
                self._inflight_requests -= 1
                self._m_inflight.set(self._inflight_requests)
                self._m_latency.labels(
                    verdict=outcome["verdict"]).observe(elapsed)
            with self._idle_cv:
                self._idle_cv.notify_all()
            meta = {k: outcome[k] for k in ("verdict", "key", "kernel")
                    if k in outcome}
            try:
                self.traces.write_tracer(tracer, trace_id, "serve",
                                         attempt=0, **meta)
            except Exception:
                pass        # telemetry must never break a response

    def retry_after_s(self) -> int:
        """Retry-After hint for shed requests: scale with queue depth,
        clamped to [1, 30] seconds."""
        pending = self.pool.pending_depth if self.pool.workers else 0
        return max(1, min(30, pending or 1))

    def _handle(self, request: Dict[str, Any], tracer: Tracer,
                trace_id: str, outcome: Dict[str, Any]
                ) -> Tuple[Dict[str, Any], str]:
        try:
            with tracer.span("parse"):
                source, sizes, domain, mach, options, profile = \
                    parse_request(request)
                timeout_s = parse_timeout(request, self.default_timeout_s)
                hold_s = self._parse_hold(request)
        except RequestError as exc:
            with self.metrics.hold():
                self._m_requests.inc()
                self._m_bad.inc()
            tracer.decision(f"bad request: {exc}", rule="serve.parse")
            raise
        if self.pass_budget_s is not None and options.pass_budget_s is None:
            options = dataclasses.replace(
                options, pass_budget_s=self.pass_budget_s,
                resilient=True)
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        extra: Dict[str, Any] = {"profile": profile}
        if hold_s is not None:
            # The chaos knob changes worker behavior, so it must change
            # the key — a held compile must never satisfy a normal one.
            extra["hold_s"] = hold_s
        with tracer.span("key"):
            key = cache_key(source, sizes, domain, mach, options,
                            extra=extra)
        outcome["key"] = key

        leader = False
        with self._lock:
            cached = self.store.get(key)
            if cached is not None:
                with self.metrics.hold():
                    self._m_requests.inc()
                    self._m_cache.labels(verdict="hit").inc()
                outcome["verdict"] = "hit"
                tracer.decision(f"store hit for {key[:12]}",
                                rule="serve.cache")
                return cached, "hit"
            flight = self._inflight.get(key)
            if flight is None:
                # Admission control: a new compile needs queue room.
                # Hits and coalesced joins above are always served.
                if (self.max_queue is not None
                        and self.pool.workers > 0
                        and self.pool.pending_depth >= self.max_queue):
                    with self.metrics.hold():
                        self._m_requests.inc()
                        self._m_shed.labels(reason="queue").inc()
                    tracer.decision(
                        f"shed: pool queue full "
                        f"(pending={self.pool.pending_depth} >= "
                        f"max_queue={self.max_queue})",
                        rule="serve.admission")
                    raise OverloadedError(
                        f"compile queue full ({self.max_queue} pending); "
                        f"retry later", self.retry_after_s(), "queue")
                flight = _Flight(trace_id=trace_id)
                self._inflight[key] = flight
                leader = True
                with self.metrics.hold():
                    self._m_requests.inc()
                    self._m_cache.labels(verdict="miss").inc()
                    self._m_compiles.inc()
            else:
                with self.metrics.hold():
                    self._m_requests.inc()

        if not leader:
            with tracer.span("coalesce.wait"):
                finished = flight.done.wait(
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic()))
            if not finished:
                # The follower's own deadline expired while the leader
                # was still compiling; answer a 504 without disturbing
                # the leader (its result still lands in the store).
                outcome["class"] = "DeadlineExceeded"
                with self.metrics.hold():
                    self._m_timeouts.labels(where="coalesced").inc()
                    self._m_errors.labels(
                        **{"class": "DeadlineExceeded"}).inc()
                tracer.decision(
                    "deadline expired while coalesced onto in-flight "
                    "compile", rule="serve.deadline")
                return error_artifact(
                    key, "DeadlineExceeded",
                    f"deadline of {timeout_s}s expired while waiting "
                    f"for the in-flight compile"), "error"
            tracer.decision(
                f"coalesced onto in-flight compile "
                f"(leader trace {flight.trace_id[:12]})",
                rule="serve.single-flight",
                details={"leader_trace_id": flight.trace_id})
            if flight.cacheable:
                outcome["verdict"] = "coalesced"
                with self.metrics.hold():
                    self._m_cache.labels(verdict="coalesced").inc()
                return flight.payload, "hit"
            err_class = ((flight.payload or {}).get("error")
                         or {}).get("type", "InternalError")
            outcome["class"] = err_class
            with self.metrics.hold():
                self._m_errors.labels(**{"class": err_class}).inc()
            return flight.payload, "error"

        # Leader: compile, publish to waiters, persist, and only then
        # retire the flight — a request arriving before the store write
        # lands must still find the flight, or it would compile again.
        try:
            payload, cacheable = self._compile(key, source, sizes, domain,
                                               mach, options, profile,
                                               tracer=tracer,
                                               trace_id=trace_id,
                                               deadline=deadline,
                                               hold_s=hold_s,
                                               timeout_s=timeout_s)
        except BaseException:
            # Never leave waiters hanging: publish a structured internal
            # error, then re-raise for the transport layer.
            payload = error_artifact(key, "InternalError",
                                     "compile leader failed unexpectedly")
            cacheable = False
            raise
        finally:
            with self._lock:
                flight.payload = payload
                flight.cacheable = cacheable
            flight.done.set()
            try:
                if cacheable:
                    with tracer.span("store.put"):
                        self.store.put(key, payload)
                        self.store.maybe_gc()
            finally:
                with self._lock:
                    del self._inflight[key]
        if cacheable:
            self._scan_resilience(payload)
            outcome["verdict"] = "miss"
            return payload, "miss"
        err_class = (payload.get("error") or {}).get("type",
                                                     "InternalError")
        outcome["class"] = err_class
        with self.metrics.hold():
            self._m_errors.labels(**{"class": err_class}).inc()
        return payload, "error"

    def _parse_hold(self, request: Dict[str, Any]) -> Optional[float]:
        """The ``hold_s`` chaos knob (worker sleeps before compiling) —
        only honored when the daemon runs with ``--test-hooks``."""
        raw = request.get("hold_s", None)
        if raw is None:
            return None
        if not self.allow_hold:
            raise RequestError(
                "'hold_s' is a test hook; start the daemon with "
                "--test-hooks to enable it")
        try:
            hold_s = float(raw)
        except (TypeError, ValueError):
            raise RequestError(f"'hold_s' must be a non-negative number, "
                               f"got {raw!r}")
        if hold_s < 0 or hold_s != hold_s:
            raise RequestError(f"'hold_s' must be a non-negative number, "
                               f"got {raw!r}")
        return hold_s

    def _compile(self, key: str, source: str, sizes: Dict[str, int],
                 domain: Tuple[int, int], mach: GpuSpec,
                 options: CompileOptions, profile: bool,
                 tracer: Optional[Tracer] = None,
                 trace_id: Optional[str] = None,
                 deadline: Optional[float] = None,
                 hold_s: Optional[float] = None,
                 timeout_s: Optional[float] = None
                 ) -> Tuple[Dict[str, Any], bool]:
        ctx = None
        if trace_id is not None:
            ctx = TraceContext(trace_id, self.traces.root)
        payload_in: Dict[str, Any] = {
            "key": key, "source": source, "sizes": sizes, "domain": domain,
            "machine": mach, "options": options, "profile": profile,
        }
        if hold_s is not None:
            payload_in["hold_s"] = hold_s
        try:
            task = self.pool.submit("compile", payload_in, trace=ctx,
                                    deadline=deadline)
        except PoolSaturated as exc:
            # Raced past the admission check: another leader filled the
            # queue between our check and this submit.  Same 429.
            with self.metrics.hold():
                self._m_shed.labels(reason="queue").inc()
            if tracer is not None:
                tracer.decision(f"shed at submit: {exc}",
                                rule="serve.admission")
            return error_artifact(key, "Overloaded", str(exc)), False
        try:
            payload = task.result()
        except TaskTimeout as exc:
            self._attribute_pool_spans(tracer, task)
            with self.metrics.hold():
                self._m_timeouts.labels(where=exc.where).inc()
            if tracer is not None:
                tracer.decision(f"deadline expired ({exc.where}): {exc}",
                                rule="serve.deadline")
            return error_artifact(
                key, "DeadlineExceeded",
                f"deadline of {timeout_s}s expired ({exc.where})"), False
        except TaskCancelled as exc:
            self._attribute_pool_spans(tracer, task)
            return error_artifact(key, "Cancelled", str(exc)), False
        except WorkerDied as exc:
            self._attribute_pool_spans(tracer, task)
            return error_artifact(key, "WorkerDied", str(exc)), False
        except WorkerError as exc:
            self._attribute_pool_spans(tracer, task)
            return error_artifact(key, exc.error_type,
                                  exc.remote_message), False
        self._attribute_pool_spans(tracer, task)
        return payload, bool(payload.get("ok"))

    @staticmethod
    def _attribute_pool_spans(tracer: Optional[Tracer], task) -> None:
        """Back-date the pool's externally measured queue-wait and task
        windows into the request tracer as spans."""
        if tracer is None or task.t_start is None or task.t_end is None:
            return
        tracer.retro_span("pool.queue", task.t_submit, task.t_start)
        tracer.retro_span("pool.task", task.t_start, task.t_end,
                          details={"attempts": task.attempts})

    def _scan_resilience(self, payload: Dict[str, Any]) -> None:
        """Fold one successful artifact's resilience telemetry into the
        registry (sourced from its embedded trace, not new pass hooks)."""
        trace_env = payload.get("trace") or {}
        events = trace_env.get("events") or []
        resil = payload.get("resilience") or {}
        with self.metrics.hold():
            for event in events:
                if event.get("kind") != "rollback":
                    continue
                details = event.get("details") or {}
                site = str(details.get("site") or "unknown")
                cause = str(details.get("cause") or "error")
                self._m_rollbacks.labels(site=site, cause=cause).inc()
                if cause == "fault":
                    self._m_faults.inc()
            if resil.get("floor"):
                self._m_floor.inc()

    # -- stats -------------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """The legacy counter dict, derived from one registry snapshot."""
        return self._counters_from(self.metrics.snapshot())

    @staticmethod
    def _counters_from(snap: Dict[str, Dict[str, Any]]) -> Dict[str, int]:
        cache = {verdict: int(_snap_value(
            snap, "repro_cache_requests_total", {"verdict": verdict}))
            for verdict in ("hit", "miss", "coalesced")}
        return {
            "requests": int(_snap_value(snap, "repro_requests_total")),
            "hits": cache["hit"] + cache["coalesced"],
            "misses": cache["miss"],
            "coalesced": cache["coalesced"],
            "errors": int(_snap_total(snap, "repro_request_errors_total")),
            "compiles": int(_snap_value(snap, "repro_compiles_total")),
            "bad_requests": int(_snap_value(snap,
                                            "repro_bad_requests_total")),
        }

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` envelope — every number from ONE registry
        snapshot, so it can never disagree with ``/metrics``."""
        with self._lock:
            snap = self.metrics.snapshot()
            inflight = len(self._inflight)
            events = list(self.store.events)
        counters = self._counters_from(snap)
        counters["corrupt_evictions"] = int(_snap_value(
            snap, "repro_store_corrupt_evictions_total"))
        return make_envelope(
            SERVE_SCHEMA,
            command="stats",
            uptime_s=round(time.time() - self.started_at, 3),
            counters=counters,
            queue_depth=int(_snap_value(snap, "repro_pool_queue_depth")),
            inflight=inflight,
            workers=self.pool.workers,
            worker_respawns=int(_snap_value(snap,
                                            "repro_pool_respawns_total")),
            store={"root": self.store.root,
                   "entries": int(_snap_value(snap, "repro_store_entries")),
                   "bytes": int(_snap_value(snap, "repro_store_bytes")),
                   "hits": int(_snap_value(snap, "repro_store_hits_total")),
                   "misses": int(_snap_value(snap,
                                             "repro_store_misses_total")),
                   "writes": int(_snap_value(snap,
                                             "repro_store_writes_total")),
                   "corrupt": int(_snap_value(
                       snap, "repro_store_corrupt_evictions_total"))},
            events=events,
        )

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` readiness payload.

        ``ok`` means *ready for new work*; each degraded condition —
        dead workers, a saturated queue (shedding), a store over quota —
        is named in ``degraded`` with detail in ``checks`` so probes and
        operators see the same evidence.
        """
        checks: Dict[str, Any] = {}
        degraded: List[str] = []
        if self.pool.workers > 0:
            alive = self.pool.alive_workers
            checks["workers"] = {"configured": self.pool.workers,
                                 "alive": alive}
            if alive < self.pool.workers:
                degraded.append("workers")
            pending = self.pool.pending_depth
            checks["queue"] = {"pending": pending,
                               "max": self.max_queue}
            if self.max_queue is not None and pending >= self.max_queue:
                degraded.append("shedding")
        over = self.store.over_quota()
        checks["store"] = {"bytes": self.store.bytes_on_disk(),
                           "max_bytes": self.store.max_bytes,
                           "entry_count": len(self.store),
                           "max_entries": self.store.max_entries,
                           "over_quota": over}
        if over:
            degraded.append("store-quota")
        ok = not degraded
        return {"ok": ok, "status": "ok" if ok else "degraded",
                "degraded": degraded, "checks": checks}

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Wait for in-flight requests and queued pool tasks to finish;
        returns whether the service drained within the timeout.

        Condition-based, not a poll loop: every finishing request
        notifies, so a drain on an idle service returns immediately and
        a busy one wakes exactly when the last request completes.
        """
        deadline = time.monotonic() + timeout_s
        with self._idle_cv:
            while self._inflight or self._inflight_requests > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle_cv.wait(remaining)
        return self.pool.wait_idle(max(0.0, deadline - time.monotonic()))

    def close(self) -> None:
        self.pool.close()


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> CompileService:
        return self.server.service         # type: ignore[attr-defined]

    def log_message(self, fmt, *args):     # noqa: N802 (stdlib name)
        if getattr(self.server, "verbose", False):
            sys.stderr.write("serve: %s\n" % (fmt % args))

    def _reply(self, status: int, payload: Dict[str, Any],
               cache: Optional[str] = None,
               trace_id: Optional[str] = None,
               retry_after_s: Optional[int] = None) -> None:
        body = _json_bytes(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if cache is not None:
            self.send_header("X-Repro-Cache", cache)
        if trace_id is not None:
            self.send_header(TRACE_HEADER, trace_id)
        if retry_after_s is not None:
            self.send_header("Retry-After", str(retry_after_s))
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):                      # noqa: N802
        path, _, query = self.path.partition("?")
        if path == "/stats":
            self._reply(200, self.service.stats())
        elif path == "/metrics":
            if "format=json" in query:
                self._reply(200, self.service.metrics.to_envelope())
            else:
                self._reply_text(
                    200, self.service.metrics.render_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/healthz":
            health = self.service.health()
            self._reply(200 if health["ok"] else 503, health)
        else:
            self._reply(404, {"ok": False,
                              "error": f"no such path {self.path!r}"})

    def do_POST(self):                     # noqa: N802
        if self.path != "/compile":
            self._reply(404, {"ok": False,
                              "error": f"no such path {self.path!r}"})
            return
        client_tid = self.headers.get(TRACE_HEADER)
        trace_id = (client_tid if valid_trace_id(client_tid)
                    else mint_trace_id())
        length = self.headers.get("Content-Length") or "0"
        if not length.isdecimal():
            # The body's framing is unknown (a negative length would make
            # rfile.read block until the client hangs up): answer and
            # close without reading it.
            self.close_connection = True
            self._reply(400, {"ok": False,
                              "error": f"bad Content-Length {length!r}"},
                        trace_id=trace_id)
            return
        try:
            request = json.loads(self.rfile.read(int(length)) or b"{}")
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, {"ok": False,
                              "error": f"bad JSON body: {exc}"},
                        trace_id=trace_id)
            return
        try:
            payload, cache = self.service.handle_compile(
                request, trace_id=trace_id)
        except RequestError as exc:
            self._reply(400, {"ok": False, "error": str(exc)},
                        cache="error", trace_id=trace_id)
            return
        except OverloadedError as exc:
            self._reply(429, {"ok": False, "error": str(exc),
                              "reason": exc.reason,
                              "retry_after_s": exc.retry_after_s},
                        cache="error", trace_id=trace_id,
                        retry_after_s=exc.retry_after_s)
            return
        except Exception as exc:
            self._reply(500, {"ok": False,
                              "error": f"internal error "
                                       f"[{type(exc).__name__}]: {exc}"},
                        cache="error", trace_id=trace_id)
            return
        if payload.get("ok"):
            self._reply(200, payload, cache=cache, trace_id=trace_id)
        else:
            err = (payload.get("error") or {}).get("type", "")
            status = ERROR_STATUS.get(err, 422)
            self._reply(status, payload, cache=cache, trace_id=trace_id,
                        retry_after_s=(self.service.retry_after_s()
                                       if status == 429 else None))


class ServeServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying its :class:`CompileService`."""

    daemon_threads = True

    def __init__(self, address, service: CompileService,
                 verbose: bool = False):
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro serve`` — run the compile daemon."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Persistent compile service: content-addressed "
                    "caching + parallel fan-out (DESIGN.md 5.8).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port (0 = ephemeral; default "
                             f"{DEFAULT_PORT})")
    parser.add_argument("--store", default=".repro_store", metavar="DIR",
                        help="artifact store directory "
                             "(default: .repro_store)")
    parser.add_argument("--workers", type=int, default=None,
                        help="compile worker processes "
                             "(default: min(4, cpus); 0 = in-process)")
    parser.add_argument("--budget", type=float, default=None,
                        metavar="SECONDS",
                        help="per-pass wall-clock budget applied to every "
                             "compile (resilient rollback on overrun)")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        metavar="SECONDS",
                        help="max wait for in-flight requests on shutdown "
                             "(default: 10)")
    parser.add_argument("--default-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="deadline applied to requests without their "
                             "own timeout_s (default: none)")
    parser.add_argument("--max-queue", type=int, default=None, metavar="N",
                        help="bound on queued compiles; over-limit "
                             "requests get 429 + Retry-After "
                             "(default: unbounded)")
    parser.add_argument("--max-inflight", type=int, default=None,
                        metavar="N",
                        help="bound on concurrently handled requests "
                             "(default: unbounded)")
    parser.add_argument("--store-max-bytes", type=int, default=None,
                        metavar="BYTES",
                        help="store byte quota; LRU GC runs after writes "
                             "(default: unbounded)")
    parser.add_argument("--store-max-entries", type=int, default=None,
                        metavar="N",
                        help="store entry quota; LRU GC runs after writes "
                             "(default: unbounded)")
    parser.add_argument("--test-hooks", action="store_true",
                        help="honor the hold_s request field (worker "
                             "sleeps before compiling; overload tests "
                             "only)")
    parser.add_argument("--verbose", action="store_true",
                        help="log each HTTP request to stderr")
    args = parser.parse_args(argv)

    store = ArtifactStore(args.store,
                          max_bytes=args.store_max_bytes,
                          max_entries=args.store_max_entries)
    service = CompileService(store,
                             workers=args.workers,
                             pass_budget_s=args.budget,
                             default_timeout_s=args.default_timeout,
                             max_queue=args.max_queue,
                             max_inflight=args.max_inflight,
                             allow_hold=args.test_hooks)
    server = ServeServer((args.host, args.port), service,
                         verbose=args.verbose)
    host, port = server.server_address[:2]

    stop = threading.Event()
    if (hasattr(signal, "SIGTERM")
            and threading.current_thread() is threading.main_thread()):
        signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())

    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.2},
                              name="repro-serve-http", daemon=True)
    thread.start()
    print(f"serving repro compile service on http://{host}:{port} "
          f"(workers={service.pool.workers}, store={args.store})",
          flush=True)
    try:
        while not stop.is_set():
            stop.wait(0.2)
    except KeyboardInterrupt:
        pass
    # Graceful shutdown: stop accepting, drain in-flight work, then
    # flush one final repro.metrics/1 snapshot line to stderr.
    server.shutdown()
    thread.join(timeout=5)
    drained = service.drain(args.drain_timeout)
    if not drained:
        # Past the drain deadline: queued-but-not-started compiles are
        # cancelled so shutdown is bounded; running ones are abandoned
        # (close() reaps the worker processes).
        cancelled = service.pool.cancel_pending()
        print(f"serve: drain timed out; cancelled {cancelled} queued "
              f"task(s)", file=sys.stderr, flush=True)
    print(json.dumps(service.metrics.to_envelope(
        reason="shutdown", drained=drained)), file=sys.stderr, flush=True)
    server.server_close()
    service.close()
    print("serve: shut down cleanly", flush=True)
    return 0
