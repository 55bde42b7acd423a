"""Overload- and disk-fault-hardening battery (ISSUE 10).

The contracts under test:

* **saturation sheds, never deadlocks** — with one worker and a
  one-deep queue, the third concurrent compile gets an immediate
  :class:`~repro.serve.daemon.OverloadedError` (HTTP 429) while the
  first two complete normally;
* **deadlines propagate** — a queued task whose deadline expires is
  dropped before it ever starts; a *running* compile past its deadline
  has its worker SIGKILLed and respawned, and the same key recompiles
  cleanly afterwards; a coalesced follower's own deadline answers a
  504 without disturbing the leader.  Structured 504s are never cached;
* **quota GC degrades to recompute** — an LRU-evicted entry's next
  read is an ordinary miss that recompiles to a byte-identical body;
* **disk faults are absorbed** — a failed store write serves the
  compile uncached (compile-through), a failed read is a miss that
  does *not* evict, a torn write is caught by the checksum on the next
  read, and a failed evict leaves the entry for the next sweep.
"""

import json
import threading
import time

import pytest

from repro.resilience.faults import FaultPlan, FaultSpecError, parse_fault
from repro.serve.daemon import (
    CompileService,
    OverloadedError,
    RequestError,
    _json_bytes,
    _snap_value,
    parse_timeout,
)
from repro.serve.pool import TaskCancelled, WorkerPool
from repro.serve.store import ArtifactStore, serve_gc_main

from tests.conftest import MM_SRC, MV_SRC, TP_SRC

TP_REQUEST = {"source": TP_SRC, "sizes": {"n": 32, "m": 32},
              "domain": [32, 32]}
MV_REQUEST = {"source": MV_SRC, "sizes": {"n": 32, "w": 32},
              "domain": [32, 1]}
MM_REQUEST = {"source": MM_SRC, "sizes": {"n": 16, "m": 16, "w": 16},
              "domain": [16, 16]}


def _wait(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _bg(service, request, out):
    def run():
        try:
            out.append(service.handle_compile(request))
        except BaseException as exc:     # pragma: no cover - test debug
            out.append(exc)
    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t


class TestParseTimeout:
    def test_absent_uses_default(self):
        assert parse_timeout({}) is None
        assert parse_timeout({}, default_s=2.5) == 2.5

    def test_explicit_overrides_default(self):
        assert parse_timeout({"timeout_s": 0.25}, default_s=9) == 0.25
        assert parse_timeout({"timeout_s": "1.5"}, default_s=9) == 1.5

    @pytest.mark.parametrize("bad", [0, -1, "soon", float("nan"), []])
    def test_rejects_junk(self, bad):
        with pytest.raises(RequestError):
            parse_timeout({"timeout_s": bad})

    def test_json_null_means_absent(self):
        assert parse_timeout({"timeout_s": None}, default_s=3.0) == 3.0


class TestHoldHook:
    def test_hold_rejected_without_test_hooks(self, tmp_path):
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             pool=WorkerPool(0))
        try:
            with pytest.raises(RequestError, match="test-hooks"):
                svc.handle_compile(dict(TP_REQUEST, hold_s=0.1))
        finally:
            svc.close()

    def test_hold_perturbs_the_cache_key(self, tmp_path):
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             pool=WorkerPool(0), allow_hold=True)
        try:
            _, s1 = svc.handle_compile(dict(TP_REQUEST, hold_s=0.01))
            _, s2 = svc.handle_compile(TP_REQUEST)
        finally:
            svc.close()
        assert (s1, s2) == ("miss", "miss")    # distinct keys, no hit

    @pytest.mark.parametrize("bad", [-1, "later", []])
    def test_hold_rejects_junk(self, tmp_path, bad):
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             pool=WorkerPool(0), allow_hold=True)
        try:
            with pytest.raises(RequestError):
                svc.handle_compile(dict(TP_REQUEST, hold_s=bad))
        finally:
            svc.close()


class TestAdmissionControl:
    def test_saturation_sheds_429_not_deadlock(self, tmp_path):
        """1 worker + 1-deep queue + 2 held compiles -> the third is shed
        immediately, the first two still complete."""
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             workers=1, max_queue=1, allow_hold=True)
        try:
            first, second = [], []
            t1 = _bg(svc, dict(TP_REQUEST, hold_s=1.0), first)
            assert _wait(lambda: svc.pool.queue_depth == 1
                         and svc.pool.pending_depth == 0)
            t2 = _bg(svc, dict(MV_REQUEST, hold_s=0.0), second)
            assert _wait(lambda: svc.pool.pending_depth == 1)

            with pytest.raises(OverloadedError) as exc_info:
                svc.handle_compile(MM_REQUEST)
            assert exc_info.value.reason == "queue"
            assert exc_info.value.retry_after_s >= 1

            health = svc.health()
            assert health["ok"] is False
            assert "shedding" in health["degraded"]

            t1.join(timeout=30)
            t2.join(timeout=30)
            assert first and first[0][0]["ok"] is True
            assert second and second[0][0]["ok"] is True
            snap = svc.metrics.snapshot()
            assert _snap_value(snap, "repro_shed_total",
                               {"reason": "queue"}) == 1
            assert svc.health()["ok"] is True       # recovered
        finally:
            svc.close()

    def test_inflight_cap_sheds(self, tmp_path):
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             pool=WorkerPool(0), max_inflight=0)
        try:
            with pytest.raises(OverloadedError) as exc_info:
                svc.handle_compile(TP_REQUEST)
            assert exc_info.value.reason == "inflight"
            snap = svc.metrics.snapshot()
            assert _snap_value(snap, "repro_shed_total",
                               {"reason": "inflight"}) == 1
        finally:
            svc.close()

    def test_hits_served_even_when_saturated(self, tmp_path):
        """Admission control only guards new compiles: a cached key is
        served from the store even while the queue is full."""
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             workers=1, max_queue=1, allow_hold=True)
        try:
            payload, status = svc.handle_compile(MM_REQUEST)
            assert status == "miss" and payload["ok"]
            first, second = [], []
            t1 = _bg(svc, dict(TP_REQUEST, hold_s=0.8), first)
            assert _wait(lambda: svc.pool.queue_depth == 1
                         and svc.pool.pending_depth == 0)
            t2 = _bg(svc, dict(MV_REQUEST, hold_s=0.0), second)
            assert _wait(lambda: svc.pool.pending_depth == 1)
            cached, status = svc.handle_compile(MM_REQUEST)
            assert status == "hit"
            assert _json_bytes(cached) == _json_bytes(payload)
            t1.join(timeout=30)
            t2.join(timeout=30)
        finally:
            svc.close()


class TestDeadlines:
    def test_expired_queued_task_never_starts(self, tmp_path):
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             workers=1, allow_hold=True)
        try:
            holder = []
            t = _bg(svc, dict(TP_REQUEST, hold_s=0.8), holder)
            assert _wait(lambda: svc.pool.queue_depth == 1
                         and svc.pool.pending_depth == 0)
            payload, status = svc.handle_compile(
                dict(MV_REQUEST, timeout_s=0.15))
            assert status == "error"
            assert payload["error"]["type"] == "DeadlineExceeded"
            assert "queued" in payload["error"]["message"]
            assert svc.store.get(payload["key"]) is None  # 504 never cached
            t.join(timeout=30)
            assert len(svc.store) == 1          # only the holder's artifact
            # The dropped key compiles cleanly once the pool is free.
            retry, status = svc.handle_compile(MV_REQUEST)
            assert status == "miss" and retry["ok"] is True
            assert len(svc.store) == 2
            snap = svc.metrics.snapshot()
            assert _snap_value(snap, "repro_timeouts_total",
                               {"where": "queued"}) == 1
        finally:
            svc.close()

    def test_running_timeout_kills_worker_and_recompiles(self, tmp_path):
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             workers=1, allow_hold=True)
        try:
            request = dict(TP_REQUEST, hold_s=0.6)
            payload, status = svc.handle_compile(
                dict(request, timeout_s=0.15))
            assert status == "error"
            assert payload["error"]["type"] == "DeadlineExceeded"
            assert "running" in payload["error"]["message"]
            assert svc.pool.respawns == 1       # worker was SIGKILLed
            assert _wait(lambda: svc.pool.alive_workers == 1)
            assert len(svc.store) == 0
            # Same key (timeout_s is not part of the key): a clean
            # recompile succeeds on the respawned worker.
            retry, status = svc.handle_compile(request)
            assert status == "miss" and retry["ok"] is True
            assert len(svc.store) == 1
            snap = svc.metrics.snapshot()
            assert _snap_value(snap, "repro_timeouts_total",
                               {"where": "running"}) == 1
            assert svc.counters["compiles"] == 2
        finally:
            svc.close()

    def test_coalesced_follower_deadline(self, tmp_path):
        """A follower's own deadline expires while the leader compiles:
        the follower gets a 504, the leader's result still lands."""
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             workers=1, allow_hold=True)
        try:
            request = dict(TP_REQUEST, hold_s=0.6)
            leader_out = []
            t = _bg(svc, request, leader_out)
            assert _wait(lambda: len(svc._inflight) == 1)
            payload, status = svc.handle_compile(
                dict(request, timeout_s=0.1))
            assert status == "error"
            assert payload["error"]["type"] == "DeadlineExceeded"
            t.join(timeout=30)
            assert leader_out[0][0]["ok"] is True
            assert len(svc.store) == 1          # leader result persisted
            snap = svc.metrics.snapshot()
            assert _snap_value(snap, "repro_timeouts_total",
                               {"where": "coalesced"}) == 1
        finally:
            svc.close()

    def test_default_timeout_applies(self, tmp_path):
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             pool=WorkerPool(0), allow_hold=True,
                             default_timeout_s=0.001)
        try:
            # Inline mode checks the deadline before the task starts;
            # a hold makes sure it has expired by then.
            payload, status = svc.handle_compile(
                dict(TP_REQUEST, hold_s=0.0))
            # The key step ran before the deadline check, so this may
            # legitimately race; the invariant is just: no crash, and a
            # 504 is structured when it happens.
            if status == "error":
                assert payload["error"]["type"] == "DeadlineExceeded"
        finally:
            svc.close()


class TestStoreQuotaGc:
    def test_evicted_entry_recompiles_bit_identically(self, tmp_path):
        svc = CompileService(
            ArtifactStore(tmp_path / "s", max_entries=1),
            pool=WorkerPool(0))
        try:
            first, s1 = svc.handle_compile(TP_REQUEST)
            body1 = json.dumps(first["result"], sort_keys=True)
            svc.handle_compile(MV_REQUEST)       # put + GC evicts TP
            assert len(svc.store) == 1
            assert svc.metrics.counter(
                "repro_store_quota_evictions_total").value == 1
            again, s3 = svc.handle_compile(TP_REQUEST)
            assert (s1, s3) == ("miss", "miss")  # eviction = clean miss
            # The recompile is deterministic: same source, launch config,
            # and estimate (the trace envelope carries wall-clock pass
            # timings, so the comparison pins the result body).
            assert json.dumps(again["result"], sort_keys=True) == body1
            assert svc.store.verify_all() == []
        finally:
            svc.close()

    def test_lru_prefers_recently_used(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put("a" * 64, {"v": 1})
        time.sleep(0.02)
        store.put("b" * 64, {"v": 2})
        time.sleep(0.02)
        assert store.get("a" * 64) is not None   # bump a's recency
        report = store.gc(max_entries=1)
        assert report.evicted_keys == ["b" * 64]
        assert store.get("a" * 64) == {"v": 1}

    def test_gc_byte_quota(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        for i in range(4):
            store.put(f"{i}" * 64, {"pad": "x" * 256, "i": i})
            time.sleep(0.02)
        total = store.bytes_on_disk()
        report = store.gc(max_bytes=total // 2)
        assert report.evicted >= 2
        assert store.bytes_on_disk() <= total // 2
        assert not report.over_quota

    def test_serve_gc_cli(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "s")
        for i in range(3):
            store.put(f"{i}" * 64, {"i": i})
            time.sleep(0.02)
        rc = serve_gc_main(["--store", str(tmp_path / "s"),
                            "--max-entries", "1", "--verify", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["report"]["evicted"] == 2
        assert out["report"]["remaining_entries"] == 1
        assert out["corrupt_evicted"] == []
        assert len(ArtifactStore(tmp_path / "s")) == 1

    def test_serve_gc_cli_requires_a_quota(self, tmp_path, capsys):
        assert serve_gc_main(["--store", str(tmp_path / "s")]) == 2


class TestDiskFaults:
    def test_cross_family_specs_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault("enospc:merge")
        with pytest.raises(FaultSpecError):
            parse_fault("raise:store-write")
        assert parse_fault("enospc:store-write").kind == "enospc"

    def test_write_fault_degrades_to_compile_through(self, tmp_path):
        store = ArtifactStore(tmp_path / "s",
                              faults=FaultPlan.parse("enospc:store-write"))
        svc = CompileService(store, pool=WorkerPool(0))
        try:
            first, s1 = svc.handle_compile(TP_REQUEST)
            assert s1 == "miss" and first["ok"] is True
            assert len(store) == 0               # write absorbed
            assert store.metrics.counter(
                "repro_store_io_faults_total", labelnames=("site",)
            ).labels(site="store-write").value == 1
            assert any(e["event"] == "store.write-failed"
                       for e in store.events)
            # The fault was one-shot: the next request recompiles and
            # this time the write sticks.
            again, s2 = svc.handle_compile(TP_REQUEST)
            assert s2 == "miss"
            assert (json.dumps(again["result"], sort_keys=True)
                    == json.dumps(first["result"], sort_keys=True))
            assert len(store) == 1
            assert svc.counters["compiles"] == 2
        finally:
            svc.close()

    def test_read_fault_is_miss_without_eviction(self, tmp_path):
        store = ArtifactStore(tmp_path / "s",
                              faults=FaultPlan.parse("eio:store-read"))
        store.put("c" * 64, {"v": 3})
        assert store.get("c" * 64) is None       # transient miss
        assert store.metrics.counter(
            "repro_store_io_faults_total", labelnames=("site",)
        ).labels(site="store-read").value == 1
        assert store.metrics.counter(            # NOT evicted
            "repro_store_corrupt_evictions_total").value == 0
        assert store.get("c" * 64) == {"v": 3}   # still there

    def test_torn_write_caught_by_checksum(self, tmp_path):
        store = ArtifactStore(tmp_path / "s",
                              faults=FaultPlan.parse("torn:store-write"))
        assert store.put("d" * 64, {"v": 4}) is not None
        assert store.get("d" * 64) is None
        assert store.metrics.counter(
            "repro_store_corrupt_evictions_total").value == 1
        assert any(e["event"] == "cache.corrupt" for e in store.events)
        assert len(store) == 0

    def test_evict_fault_leaves_entry_for_next_sweep(self, tmp_path):
        store = ArtifactStore(tmp_path / "s",
                              faults=FaultPlan.parse("eio:store-evict"))
        store.put("e" * 64, {"v": 5})
        report = store.gc(max_entries=0)
        assert report.failed == 1 and report.evicted == 0
        assert report.over_quota
        assert len(store) == 1                   # left in place
        report = store.gc(max_entries=0)         # fault was one-shot
        assert report.evicted == 1
        assert len(store) == 0


class TestDrainAndShutdown:
    def test_drain_idle_returns_immediately(self, tmp_path):
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             pool=WorkerPool(0))
        try:
            t0 = time.monotonic()
            assert svc.drain(5.0) is True
            assert time.monotonic() - t0 < 1.0   # no poll-loop stalling
        finally:
            svc.close()

    def test_drain_waits_for_inflight_request(self, tmp_path):
        svc = CompileService(ArtifactStore(tmp_path / "s"),
                             workers=1, allow_hold=True)
        try:
            out = []
            t = _bg(svc, dict(TP_REQUEST, hold_s=0.4), out)
            assert _wait(lambda: svc.pool.queue_depth == 1)
            assert svc.drain(30.0) is True
            t.join(timeout=5)
            assert out and out[0][0]["ok"] is True
        finally:
            svc.close()

    def test_cancel_pending_cancels_only_queued(self, tmp_path):
        with WorkerPool(1) as pool:
            running = pool.submit("sleep", {"sleep_s": 0.4})
            assert _wait(lambda: pool.pending_depth == 0
                         and pool.queue_depth == 1)
            queued = pool.submit("sleep", {"sleep_s": 0.0})
            assert _wait(lambda: pool.pending_depth == 1)
            assert pool.cancel_pending() == 1
            with pytest.raises(TaskCancelled):
                queued.result(timeout=5)
            assert running.result(timeout=30)["status"] == "slept"

    def test_health_reports_store_quota(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", max_entries=0)
        svc = CompileService(store, pool=WorkerPool(0))
        try:
            store.put("f" * 64, {"v": 6})
            health = svc.health()
            assert health["ok"] is False
            assert "store-quota" in health["degraded"]
            assert health["checks"]["store"]["over_quota"] is True
        finally:
            svc.close()
