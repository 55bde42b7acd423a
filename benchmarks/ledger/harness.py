"""Timing, tracing and resource accounting shared by the ledger workloads.

Nothing here imports ``repro``: the harness measures from outside, by
timing calls the workloads make into public functions.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
OUT_DIR = LEDGER_DIR / "out"

NPROC = len(os.sched_getaffinity(0))
#: Client threads per closed loop and worker processes per pool.
WIDTH = min(2, NPROC)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: Dict[str, Any]):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        stack = self.tracer._stack()
        if stack:
            self.rec["parent"] = stack[-1]["id"]
            self.rec["op"] = stack[0]["op"]
        stack.append(self.rec)
        self.rec["start_s"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec["end_s"] = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(self.rec)
        return False


class Tracer:
    """The benchmark's own spans, kept in memory until the workload ends.

    A disabled tracer hands out one shared no-op context manager, so
    the untraced pass pays a method call per span and nothing else.
    Span stacks are per thread (closed-loop clients trace concurrently).
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, op: Optional[str]):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, {"id": next(self._ids), "name": name,
                            "start_s": 0.0, "end_s": 0.0,
                            "parent": None, "op": op})

    def span(self, name: str):
        """A child span around one public call into a layer."""
        return self._new(name, None)

    def op(self, label: str):
        """The root span of one op."""
        return self._new("op:" + label, label)


#: Spans off.  A disabled tracer holds no state, so one serves everyone.
NO_TRACE = Tracer(False)


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[Dict[str, Any]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered, edge = 0.0, s["start_s"]
        for c in sorted(children.get(s["id"], ()),
                        key=lambda c: c["start_s"]):
            lo, hi = max(c["start_s"], edge), min(c["end_s"], s["end_s"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s["id"]] = (s["end_s"] - s["start_s"]) - covered
    return out


def self_time_by_name(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Total self seconds per span name (root ops fold into ``op``)."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        name = "op" if s["parent"] is None else s["name"]
        out[name] = out.get(name, 0.0) + selfs[s["id"]]
    return out


def write_jsonl(path: pathlib.Path, rows: Iterable[Dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Ops and rounds
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation; ``error`` is set by the op itself (it
    raised) or later by the workload's output check."""

    label: str
    seconds: float
    units: int = 1
    payload: Any = None
    error: Optional[str] = None


@dataclass
class Round:
    wall_s: float
    ops: List[Op]

    @property
    def units(self) -> int:
        return sum(op.units for op in self.ops)


def timed(label: str, fn: Callable[[], Any], tr: Tracer) -> Op:
    """Run ``fn`` as one op.  An op that raises is a failed op, not a
    failed benchmark (KeyboardInterrupt and SystemExit still unwind)."""
    with tr.op(label):
        t0 = time.perf_counter()
        try:
            payload, error = fn(), None
        except Exception as exc:
            payload, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return Op(label, seconds, payload=payload, error=error)


def closed_loop(items: Sequence[Any], run_one: Callable[[Any], Op]
                ) -> List[Op]:
    """Closed loop: each of ``WIDTH`` threads sends its next item only
    after the previous one completed.  Items are dealt round-robin."""
    shares = [list(items[i::WIDTH]) for i in range(WIDTH)]
    results: List[List[Op]] = [[] for _ in shares]

    def client(share: List[Any], out: List[Op]) -> None:
        for item in share:
            out.append(run_one(item))

    threads = [threading.Thread(target=client, args=(s, r), daemon=True)
               for s, r in zip(shares, results)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [op for r in results for op in r]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (any order)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ---------------------------------------------------------------------------
# CPU and memory of the generator and the process trees it drives
# ---------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` after the command name (field 3 onward)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def process_tree(roots: Sequence[int]) -> List[int]:
    """``roots`` plus every live descendant (daemon -> pool workers)."""
    if not roots:
        return []
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields:
                parent_of[int(entry)] = int(fields[1])
    tree = [pid for pid in roots if pid in parent_of]
    seen = set(tree)
    for pid in tree:
        for child, parent in parent_of.items():
            if parent == pid and child not in seen:
                seen.add(child)
                tree.append(child)
    return tree


def cpu_seconds(roots: Sequence[int] = ()) -> float:
    """User+system CPU of this process, the children it has reaped
    (``explore``'s short-lived pools), and the live trees under
    ``roots`` (the daemon and its workers)."""
    t = os.times()
    total = t.user + t.system + t.children_user + t.children_system
    for pid in process_tree(roots):
        fields = _stat_fields(pid)
        if fields:
            total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def reset_peak_rss() -> None:
    """Start this process's resident-set high-water mark afresh, so that
    a workload is not charged for the one before it.  Where the kernel
    refuses, the mark stays a whole-process one."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mib(roots: Sequence[int] = ()) -> float:
    """Largest resident set among generator, reaped children and the
    live trees under ``roots``."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    for pid in process_tree(roots):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kib = max(peak_kib, int(line.split()[1]))
                        break
        except OSError:
            pass
    return peak_kib / 1024.0


# ---------------------------------------------------------------------------
# Scratch space
# ---------------------------------------------------------------------------

class RunDir:
    """A per-run directory under ``out/tmp`` for stores and trace dirs,
    removed on exit whatever happened inside."""

    def __enter__(self) -> pathlib.Path:
        tmp = OUT_DIR / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.path = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=tmp))
        return self.path

    def __exit__(self, *exc) -> bool:
        shutil.rmtree(self.path, ignore_errors=True)
        return False


# ---------------------------------------------------------------------------
# Measuring one workload
# ---------------------------------------------------------------------------

def _timed_round(workload, state, tr: Tracer) -> Round:
    t0 = time.perf_counter()
    ops = workload.run_round(state, tr)
    rnd = Round(time.perf_counter() - t0, ops)
    workload.after_round(state, ops)
    return rnd


def _set_up(workload, rng_seed: str, tmp: pathlib.Path):
    """Generate inputs, set up, run the untimed warm-up round."""
    inputs = workload.generate(random.Random(rng_seed))
    state = workload.setup(inputs, tmp)
    try:
        _timed_round(workload, state, NO_TRACE)
    except BaseException:
        workload.teardown(state)
        raise
    return state


def measure(workload, seed: int, seconds: float, min_rounds: int,
            setup_repeats: int, tmp: pathlib.Path) -> Dict[str, Any]:
    """The untraced pass: end-to-end numbers for one workload.

    Set-up runs ``setup_repeats`` times (the median is reported, the
    last one is kept).  Whole rounds then repeat until ``seconds`` have
    passed, and at least ``min_rounds`` times; every round runs the same
    op list, so a faster program does more rounds, never different work.
    """
    rng_seed = f"{workload.name}:{seed}"
    setup_samples: List[float] = []
    state = None
    reset_peak_rss()
    try:
        for _ in range(setup_repeats):
            if state is not None:
                workload.teardown(state)
                state = None
            t0 = time.perf_counter()
            state = _set_up(workload, rng_seed, tmp)
            setup_samples.append(time.perf_counter() - t0)
        roots = workload.process_roots(state)
        rounds: List[Round] = []
        cpu_s = 0.0
        t_end = time.perf_counter() + seconds
        while len(rounds) < min_rounds or time.perf_counter() < t_end:
            cpu0 = cpu_seconds(roots)
            rounds.append(_timed_round(workload, state, NO_TRACE))
            cpu_s += cpu_seconds(roots) - cpu0
        rss = peak_rss_mib(roots)
        workload.check(state, rounds)
        speedup = workload.model_speedup(state, rounds)
    finally:
        if state is not None:
            workload.teardown(state)

    ops = [op for rnd in rounds for op in rnd.ops]
    good = [op.seconds * 1e3 for op in ops if op.error is None]
    per_round = [rnd.units / rnd.wall_s for rnd in rounds]
    failures: Dict[str, int] = {}
    for op in ops:
        if op.error is not None:
            failures[op.error] = failures.get(op.error, 0) + 1
    result = {
        "unit": workload.unit,
        "rounds": len(rounds),
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "failures": failures,
        "tail_pct": workload.tail_pct,
        "latency_samples": len(good),
        "setup_samples_s": setup_samples,
        "round_spread": spread(per_round),
        "metrics": {
            "setup_s": statistics.median(setup_samples),
            "work_per_s": statistics.median(per_round),
            "cpu_ms_per_op": cpu_s * 1e3 / len(ops),
            "peak_rss_mb": rss,
            "fail_ratio": (len(ops) - len(good)) / len(ops),
        },
    }
    if good:
        result["metrics"]["op_p50_ms"] = statistics.median(good)
        result["metrics"]["op_tail_ms"] = percentile(good,
                                                     workload.tail_pct)
    if speedup is not None:
        result["metrics"]["model_speedup_geomean"] = speedup
    return result


def trace_pass(workload, seed: int, pairs: int, tmp: pathlib.Path
               ) -> Dict[str, Any]:
    """The traced pass: ``pairs`` times one round with spans off, then
    the same round with spans on.  Returns the spans and what tracing
    cost (traced over untraced ``work_per_s``; base = untraced)."""
    state = _set_up(workload, f"{workload.name}:{seed}", tmp)
    tracer = Tracer(True)
    plain: List[Round] = []
    traced: List[Round] = []
    try:
        for _ in range(pairs):
            plain.append(_timed_round(workload, state, NO_TRACE))
            traced.append(_timed_round(workload, state, tracer))
        workload.check(state, plain + traced)
    finally:
        workload.teardown(state)

    def rate(rounds: List[Round]) -> float:
        return statistics.median(r.units / r.wall_s for r in rounds)

    ops = [op for rnd in plain + traced for op in rnd.ops]
    return {
        "spans": tracer.spans,
        "attempted": len(ops),
        "failed": sum(op.error is not None for op in ops),
        "trace_overhead_ratio": rate(traced) / rate(plain),
        "round_spread": spread([r.units / r.wall_s
                                for r in plain + traced]),
    }
