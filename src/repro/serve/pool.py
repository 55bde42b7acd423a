"""Crash-isolated ``multiprocessing`` worker pool for the compile service.

Design: one supervisor *thread* per worker *process*, all feeding from a
shared task queue.  Each supervisor sends exactly one task at a time
down its worker's pipe, so when a worker dies (a SIGKILL'd process, a
segfault, an OOM kill) the supervisor knows precisely which task was in
flight: it respawns the worker and retries the task up to
``max_retries`` times before completing it with a structured
``worker-died`` error.  A dead worker therefore never takes down the
service and never wedges the queue — the chaos battery in
``tests/test_serve_chaos.py`` kills workers mid-compile to prove it.

Inside a worker, compiles run the resilient pipeline (PR 5): per-worker
pass budgets and injected faults roll back the failing pass and degrade
toward the all-optimizations-off floor instead of crashing the process.

Overload hardening (PR 10): the queue can be bounded (``max_queue``;
over-limit submits raise :class:`PoolSaturated` so the service can shed
with a 429 instead of queueing work it can never finish), and every task
can carry an absolute deadline — a task still *queued* past its deadline
is dropped before it starts, and a task still *running* past it has its
worker SIGKILLed and respawned (the same path a crashed worker takes);
both complete the task as a structured ``timeout``.

Task kinds are a small registry of handlers, looked up by name in the
worker (so nothing but the kind and payload is pickled): ``compile``
builds the ``repro.serve/1`` artifact payload, ``explore`` is
:func:`repro.explore.explore_candidate` and ``fuzz`` is
:func:`repro.fuzz.cli.fuzz_case` (each campaign's one per-item
function, imported on first use), and ``sleep`` exists for the chaos
tests to hold a worker hostage.
"""

from __future__ import annotations

import dataclasses
import importlib
import multiprocessing
import os
import queue
import threading
import time
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import TraceContext, record_task_trace

_STOP = object()

#: Sentinel: a task's deadline expired while it was running.
_EXPIRED = object()


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class WorkerDied(RuntimeError):
    """A task's worker died (even after retries); the task was lost."""


class PoolSaturated(RuntimeError):
    """The pool's bounded queue is full; the task was not accepted."""


class TaskTimeout(RuntimeError):
    """The task's deadline expired.  ``where`` says how far it got:
    ``queued`` (dropped before it ever started) or ``running`` (its
    worker was SIGKILLed mid-task and respawned)."""

    def __init__(self, message: str, where: str):
        super().__init__(message)
        self.where = where


class TaskCancelled(RuntimeError):
    """The task was cancelled while still queued (shutdown drain)."""


class WorkerError(RuntimeError):
    """The task raised inside the worker; message carries the remote
    exception type and text."""

    def __init__(self, error_type: str, message: str, tb: str = ""):
        super().__init__(f"[{error_type}] {message}")
        self.error_type = error_type
        self.remote_message = message
        self.remote_traceback = tb


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _handle_compile(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Compile one kernel and build its ``repro.serve/1`` artifact.

    ``hold_s`` (the daemon's ``--test-hooks`` chaos knob) sleeps before
    compiling, giving overload/timeout tests a deterministic window in
    which the worker is provably busy.
    """
    from repro.serve.artifact import build_compile_artifact
    hold_s = payload.get("hold_s")
    if hold_s:
        time.sleep(float(hold_s))
    return build_compile_artifact(payload)


def _handle_sleep(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Chaos-test helper: sleep (first visit) or return immediately.

    With a ``marker`` path: the first worker to run the task creates the
    marker and sleeps — giving the test a window to SIGKILL it — while
    the *retry* (after respawn) sees the marker and succeeds at once.
    """
    marker = payload.get("marker")
    if marker and not os.path.exists(marker):
        with open(marker, "w") as f:
            f.write(str(os.getpid()))
        time.sleep(payload.get("sleep_s", 60.0))
    elif not marker:
        time.sleep(payload.get("sleep_s", 0.0))
    return {"status": "slept", "pid": os.getpid()}


def _imported(module: str, name: str) -> Callable[[Dict[str, Any]], Any]:
    """A handler that imports ``module`` only when a task calls it, so
    the pool itself stays free of the compiler, explore and fuzz."""
    def handler(payload: Dict[str, Any]) -> Any:
        return getattr(importlib.import_module(module), name)(payload)
    return handler


HANDLERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "compile": _handle_compile,
    "explore": _imported("repro.explore", "explore_candidate"),
    "fuzz": _imported("repro.fuzz.cli", "fuzz_case"),
    "sleep": _handle_sleep,
}


def _worker_main(conn) -> None:
    """The worker process loop: recv (kind, payload), send (status, out).

    When the payload carries a ``_trace`` context (injected by the
    supervisor per attempt), the worker writes its ``repro.trace/1``
    span file — stamped with the request's trace id and this attempt
    number — into the shared trace directory before replying.
    """
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            if msg is None:         # graceful stop sentinel
                break
            kind, payload = msg
            trace_meta = None
            if isinstance(payload, dict):
                trace_meta = payload.pop("_trace", None)
            t0 = time.perf_counter()
            try:
                handler = HANDLERS[kind]
                out = handler(payload)
                if trace_meta:
                    record_task_trace(trace_meta, kind, "ok", out,
                                      time.perf_counter() - t0)
                conn.send(("ok", out))
            except KeyboardInterrupt:
                break
            except BaseException as exc:
                err = {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(limit=8),
                }
                if trace_meta:
                    record_task_trace(trace_meta, kind, "error", err,
                                      time.perf_counter() - t0)
                conn.send(("error", err))
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class _Task:
    """One submitted unit of work and its eventual outcome."""

    __slots__ = ("kind", "payload", "attempts", "status", "value", "_done",
                 "trace", "t_submit", "t_start", "t_end", "deadline")

    def __init__(self, kind: str, payload: Dict[str, Any],
                 trace: Optional[TraceContext] = None,
                 deadline: Optional[float] = None):
        self.kind = kind
        self.payload = payload
        self.attempts = 0
        # ok | error | worker-died | timeout | cancelled
        self.status: Optional[str] = None
        self.value: Any = None
        self._done = threading.Event()
        self.trace = trace
        #: Absolute ``time.monotonic()`` deadline, or ``None``.
        self.deadline = deadline
        # perf_counter stamps for queue-wait / task-duration telemetry.
        self.t_submit = time.perf_counter()
        self.t_start: Optional[float] = None
        self.t_end: Optional[float] = None

    @property
    def expired(self) -> bool:
        return (self.deadline is not None
                and time.monotonic() >= self.deadline)

    def _complete(self, status: str, value: Any) -> None:
        self.status = status
        self.value = value
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Any:
        """The handler's return value; raises on worker error/death."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"task {self.kind!r} still pending")
        if self.status == "ok":
            return self.value
        if self.status == "worker-died":
            raise WorkerDied(
                f"worker died running {self.kind!r} task "
                f"(after {self.attempts} attempt(s))")
        if self.status == "timeout":
            err = self.value or {}
            raise TaskTimeout(err.get("message", "task deadline expired"),
                              err.get("where", "queued"))
        if self.status == "cancelled":
            raise TaskCancelled(
                f"task {self.kind!r} cancelled while queued")
        err = self.value or {}
        raise WorkerError(err.get("type", "Exception"),
                          err.get("message", ""),
                          err.get("traceback", ""))


class _Slot:
    """One worker process plus the pipe its supervisor thread drives."""

    __slots__ = ("index", "proc", "conn", "respawns")

    def __init__(self, index: int):
        self.index = index
        self.proc = None
        self.conn = None
        self.respawns = 0


class WorkerPool:
    """N worker processes, each driven by a supervisor thread.

    ``workers=0`` selects *inline* mode: tasks run synchronously in the
    calling process (no subprocesses at all) — handy for tests, for
    single-shot CLI paths, and for coverage measurement.
    """

    def __init__(self, workers: Optional[int] = None, max_retries: int = 1,
                 poll_s: float = 0.05,
                 metrics: Optional[MetricsRegistry] = None,
                 max_queue: Optional[int] = None):
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        self.workers = workers
        self.max_retries = max_retries
        #: Bound on *pending* (queued, not yet started) tasks; ``None``
        #: = unbounded.  Over-limit submits raise :class:`PoolSaturated`.
        self.max_queue = max_queue
        self._poll_s = poll_s
        self._ctx = _mp_context()
        self._pending: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight = 0
        self._closed = False
        self._slots: List[_Slot] = []
        self._threads: List[threading.Thread] = []
        self.bind_metrics(metrics if metrics is not None
                          else MetricsRegistry())
        for i in range(workers):
            slot = _Slot(i)
            self._spawn(slot)
            self._slots.append(slot)
            t = threading.Thread(target=self._drive, args=(slot,),
                                 name=f"repro-serve-supervisor-{i}",
                                 daemon=True)
            t.start()
            self._threads.append(t)

    # -- telemetry ---------------------------------------------------------

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """(Re)create the pool's instruments on ``registry``.

        Lock-ordering discipline: the callback gauges read the pool's
        counters via ``queue_depth``/``respawns`` *inside* the registry
        lock, so pool code must never call into the registry while
        holding ``self._lock`` (all observations below happen outside
        it).
        """
        self.metrics = registry
        self._m_queue_wait = registry.histogram(
            "repro_pool_queue_wait_seconds",
            "Time a task spent queued before a worker picked it up.")
        self._m_task_s = registry.histogram(
            "repro_pool_task_seconds",
            "Wall time from first attempt start to task completion.",
            labelnames=("kind",))
        self._m_tasks = registry.counter(
            "repro_pool_tasks_total",
            "Completed pool tasks by kind and outcome.",
            labelnames=("kind", "outcome"))
        self._m_retries = registry.counter(
            "repro_pool_retries_total",
            "Task attempts re-run after a worker died mid-task.")
        self._m_respawns = registry.counter(
            "repro_pool_respawns_total",
            "Worker processes respawned after dying.")
        self._m_timeouts = registry.counter(
            "repro_pool_timeouts_total",
            "Tasks expired past their deadline, by where they were "
            "(queued = dropped before starting, running = worker "
            "SIGKILLed mid-task).",
            labelnames=("where",))
        registry.gauge(
            "repro_pool_queue_depth",
            "Tasks submitted but not yet completed (queued + running)."
        ).set_function(lambda: float(self.queue_depth))
        registry.gauge(
            "repro_pool_workers",
            "Configured worker process count (0 = inline mode)."
        ).set_function(lambda: float(self.workers))

    def _finish(self, task: _Task, status: str, value: Any) -> None:
        """Record task telemetry, then complete the task.

        Metrics are recorded *before* ``_complete`` so a waiter that
        observes the result also observes the matching counters.
        """
        task.t_end = time.perf_counter()
        start = task.t_start if task.t_start is not None else task.t_end
        with self.metrics.hold():
            self._m_tasks.labels(kind=task.kind, outcome=status).inc()
            self._m_task_s.labels(kind=task.kind).observe(
                max(0.0, task.t_end - start))
        task._complete(status, value)

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn,),
            name=f"repro-serve-worker-{slot.index}", daemon=True)
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn

    def _respawn(self, slot: _Slot) -> None:
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot.proc.is_alive():
            slot.proc.terminate()
        slot.proc.join(timeout=5)
        slot.respawns += 1
        self._m_respawns.inc()
        self._spawn(slot)

    def close(self) -> None:
        """Drain-free shutdown: stop every worker, join every thread."""
        if self._closed:
            return
        self._closed = True
        for _ in self._slots:
            self._pending.put(_STOP)
        for t in self._threads:
            t.join(timeout=10)
        for slot in self._slots:
            if slot.proc is not None and slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(timeout=5)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    @property
    def inline(self) -> bool:
        return self.workers == 0

    @property
    def queue_depth(self) -> int:
        """Tasks submitted but not yet completed (queued + in flight)."""
        with self._lock:
            return self._pending.qsize() + self._inflight

    @property
    def pending_depth(self) -> int:
        """Tasks queued but not yet picked up by a worker."""
        return self._pending.qsize()

    @property
    def alive_workers(self) -> int:
        """Worker processes currently alive (== ``workers`` when
        healthy; a worker killed while *idle* stays dead until its next
        task respawns it, which is the readiness probe's signal)."""
        return sum(1 for slot in self._slots
                   if slot.proc is not None and slot.proc.is_alive())

    @property
    def respawns(self) -> int:
        """Total worker respawns since the pool started (chaos metric)."""
        return sum(slot.respawns for slot in self._slots)

    def submit(self, kind: str, payload: Dict[str, Any],
               trace: Optional[TraceContext] = None,
               deadline: Optional[float] = None) -> _Task:
        """Queue one task.  ``deadline`` is an absolute
        ``time.monotonic()`` instant: a task still queued past it is
        dropped before it starts, and a task still *running* past it has
        its worker SIGKILLed and respawned (both complete the task as
        ``timeout``).  Inline mode checks the deadline only before the
        task starts — there is no process to kill under the caller.

        Raises :class:`PoolSaturated` when a bounded queue is full.
        """
        if kind not in HANDLERS:
            raise ValueError(f"unknown task kind {kind!r}; "
                             f"expected one of {sorted(HANDLERS)}")
        task = _Task(kind, payload, trace=trace, deadline=deadline)
        if self.inline:
            if task.expired:
                self._timeout(task, "queued")
                return task
            task.attempts = 1
            task.t_start = time.perf_counter()
            self._m_queue_wait.observe(
                max(0.0, task.t_start - task.t_submit))
            try:
                out = HANDLERS[kind](payload)
                status, value = "ok", out
            except BaseException as exc:
                status, value = "error", {
                    "type": type(exc).__name__, "message": str(exc),
                    "traceback": traceback.format_exc(limit=8)}
            if trace is not None:
                record_task_trace(
                    dataclasses.replace(trace, attempt=1).to_meta(),
                    kind, status, value,
                    time.perf_counter() - task.t_start)
            self._finish(task, status, value)
            return task
        if self._closed:
            raise RuntimeError("pool is closed")
        if (self.max_queue is not None
                and self._pending.qsize() >= self.max_queue):
            raise PoolSaturated(
                f"pool queue is full ({self._pending.qsize()} pending "
                f">= max_queue={self.max_queue})")
        self._pending.put(task)
        return task

    def _timeout(self, task: _Task, where: str) -> None:
        """Complete ``task`` as expired (metrics before completion)."""
        self._m_timeouts.labels(where=where).inc()
        self._finish(task, "timeout", {
            "type": "DeadlineExceeded",
            "where": where,
            "message": (f"{task.kind!r} task deadline expired while "
                        f"{where}"),
        })

    def cancel_pending(self) -> int:
        """Drain the queue, completing still-queued tasks as
        ``cancelled`` (the shutdown path once the drain deadline has
        passed); returns how many were cancelled.  Running tasks are
        not touched."""
        cancelled = 0
        while True:
            try:
                task = self._pending.get_nowait()
            except queue.Empty:
                return cancelled
            if task is _STOP:
                # Put the stop sentinel back for the supervisors.
                self._pending.put(task)
                return cancelled
            self._finish(task, "cancelled", {
                "type": "Cancelled",
                "message": f"{task.kind!r} task cancelled while queued",
            })
            cancelled += 1
            with self._lock:
                if self._inflight == 0 and self._pending.empty():
                    self._idle.notify_all()

    def map(self, kind: str,
            payloads: Iterable[Dict[str, Any]]) -> List[_Task]:
        """Submit every payload; returns the tasks in submission order."""
        return [self.submit(kind, p) for p in payloads]

    # -- supervisor --------------------------------------------------------

    def _drive(self, slot: _Slot) -> None:
        while True:
            task = self._pending.get()
            if task is _STOP:
                self._stop_worker(slot)
                return
            if task.status is not None:
                continue               # cancelled while queued
            if task.expired:
                # Dropped before it ever starts: a queued task whose
                # requester has already given up must not burn a worker.
                self._timeout(task, "queued")
                continue
            with self._lock:
                self._inflight += 1
            try:
                self._run_task(slot, task)
            finally:
                with self._lock:
                    self._inflight -= 1
                    if self._inflight == 0 and self._pending.empty():
                        self._idle.notify_all()

    def wait_idle(self, timeout_s: float) -> bool:
        """Block until no task is queued or running (or the timeout
        passes); returns whether the pool went idle.  A condition wait,
        not a poll loop — the supervisors signal the idle transition."""
        deadline = time.monotonic() + timeout_s
        with self._idle:
            while self._pending.qsize() > 0 or self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def _run_task(self, slot: _Slot, task: _Task) -> None:
        while True:
            task.attempts += 1
            if task.t_start is None:
                task.t_start = time.perf_counter()
                self._m_queue_wait.observe(
                    max(0.0, task.t_start - task.t_submit))
            else:
                self._m_retries.inc()
            wire_payload = task.payload
            if task.trace is not None and isinstance(task.payload, dict):
                ctx = dataclasses.replace(task.trace,
                                          attempt=task.attempts)
                wire_payload = dict(task.payload, _trace=ctx.to_meta())
            sent = True
            try:
                slot.conn.send((task.kind, wire_payload))
            except (BrokenPipeError, OSError):
                sent = False
            if sent:
                outcome = self._await(slot, task.deadline)
                if outcome is _EXPIRED:
                    # The compile is wedged past its deadline: SIGKILL
                    # the worker (the same respawn path a crashed worker
                    # takes) and complete the task as a timeout — no
                    # retry, the requester has already been told 504.
                    try:
                        slot.proc.kill()
                    except (OSError, AttributeError):
                        pass
                    self._respawn(slot)
                    self._timeout(task, "running")
                    return
                if outcome is not None:
                    status, value = outcome
                    self._finish(task, status, value)
                    return
            # The worker died under (or before) this task: respawn it,
            # then retry the task or fail it with a structured error.
            self._respawn(slot)
            if task.attempts > self.max_retries:
                self._finish(task, "worker-died", {
                    "type": "WorkerDied",
                    "message": (f"worker died running {task.kind!r} "
                                f"(attempts={task.attempts})"),
                })
                return

    def _await(self, slot: _Slot,
               deadline: Optional[float] = None) -> Optional[Tuple[str, Any]]:
        """The worker's reply, ``None`` if it died mid-task, or the
        ``_EXPIRED`` sentinel if ``deadline`` passed first (a reply that
        races the deadline wins — completed work is never discarded)."""
        while True:
            try:
                if slot.conn.poll(self._poll_s):
                    return slot.conn.recv()
            except (EOFError, OSError):
                return None
            if deadline is not None and time.monotonic() >= deadline:
                return _EXPIRED
            if not slot.proc.is_alive():
                # One last drain: the reply may have landed in the pipe
                # just before death.
                try:
                    if slot.conn.poll(0):
                        return slot.conn.recv()
                except (EOFError, OSError):
                    pass
                return None

    def _stop_worker(self, slot: _Slot) -> None:
        try:
            slot.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        slot.proc.join(timeout=5)
        if slot.proc.is_alive():
            slot.proc.terminate()
            slot.proc.join(timeout=5)
        try:
            slot.conn.close()
        except OSError:
            pass
