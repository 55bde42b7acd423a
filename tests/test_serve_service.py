"""Compile-service battery: single-flight semantics, the concurrency
stress test (ISSUE 8 satellite a), and the HTTP front end end-to-end.

The load-bearing invariants:

* **exactly one compile per unique hash** — N concurrent requests over K
  distinct kernels produce exactly K compiles; everyone else is a store
  hit or a coalesced waiter (``/stats`` counters prove it);
* **bit-identical duplicates** — every response for the same key is
  byte-for-byte identical (cache status travels in the ``X-Repro-Cache``
  header, never the body);
* **no deadlock at saturation** — far more concurrent requests than
  workers always drain.
"""

import errno
import json
import os
import socket
import tempfile
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.daemon import (
    CompileService,
    RequestError,
    ServeServer,
    _json_bytes,
    parse_request,
)
from repro.serve.pool import WorkerPool
from repro.serve.store import ArtifactStore

from tests.conftest import MM_SRC, MV_SRC, TP_SRC

RD_SRC = """
#pragma output a
__global__ void rd(float a[n], int n) {
    for (int s = n / 2; s > 0; s = s / 2) {
        if (idx < s)
            a[idx] += a[idx + s];
        __global_sync();
    }
}
"""

TP_REQUEST = {"source": TP_SRC, "sizes": {"n": 32, "m": 32},
              "domain": [32, 32]}


def _service(tmp_path, workers=0, **kw):
    return CompileService(ArtifactStore(tmp_path / "store"),
                          pool=WorkerPool(workers), **kw)


class TestParseRequest:
    def test_happy_path(self):
        source, sizes, domain, mach, options, profile = \
            parse_request(dict(TP_REQUEST, machine="GTX8800",
                               options={"enable_merge": False},
                               profile=True))
        assert sizes == {"n": 32, "m": 32}
        assert domain == (32, 32)
        assert mach.name == "GTX8800"
        assert options.enable_merge is False
        assert options.resilient is True     # service default
        assert profile is True

    def test_domain_string_form(self):
        assert parse_request(dict(TP_REQUEST, domain="32x32"))[2] == (32, 32)
        assert parse_request(dict(TP_REQUEST, domain="64"))[2] == (64, 1)

    @pytest.mark.parametrize("bad", [
        {},                                            # no source
        dict(TP_REQUEST, source="   "),                # blank source
        dict(TP_REQUEST, sizes=[32]),                  # sizes not a dict
        dict(TP_REQUEST, sizes={"n": "many"}),         # non-int size
        dict(TP_REQUEST, domain="axb"),                # bad domain string
        dict(TP_REQUEST, domain=[1, 2, 3]),            # bad domain arity
        dict(TP_REQUEST, machine="TPU"),               # unknown machine
        dict(TP_REQUEST, options={"optimize": 3}),     # unknown option
        dict(TP_REQUEST, options={"faults": "bad@spec"}),
    ])
    def test_rejects(self, bad):
        with pytest.raises(RequestError):
            parse_request(bad)

    @pytest.mark.parametrize("options", ["ab", 5, [1, 2]])
    def test_non_object_options_are_bad_requests(self, tmp_path, options):
        svc = _service(tmp_path)
        try:
            with pytest.raises(RequestError, match="'options'"):
                svc.handle_compile(dict(TP_REQUEST, options=options))
        finally:
            svc.close()
        assert svc.counters["requests"] == 1
        assert svc.counters["bad_requests"] == 1


class TestServiceCore:
    def test_miss_then_hit_bit_identical(self, tmp_path):
        svc = _service(tmp_path)
        try:
            first, status1 = svc.handle_compile(TP_REQUEST)
            second, status2 = svc.handle_compile(TP_REQUEST)
        finally:
            svc.close()
        assert (status1, status2) == ("miss", "hit")
        assert first["ok"] is True
        assert _json_bytes(first) == _json_bytes(second)
        assert svc.counters["compiles"] == 1
        assert svc.counters["hits"] == 1

    def test_expected_failure_not_cached(self, tmp_path):
        svc = _service(tmp_path)
        try:
            req = {"source": RD_SRC, "sizes": {"n": 64}, "domain": [64, 1],
                   "options": {"resilient": False}}
            payload, status = svc.handle_compile(req)
            _, status2 = svc.handle_compile(req)
        finally:
            svc.close()
        assert status == status2 == "error"
        assert payload["ok"] is False
        assert payload["error"]["type"] == "PassError"
        assert len(svc.store) == 0           # errors never poison the store
        assert svc.counters["errors"] == 2
        assert svc.counters["compiles"] == 2  # retried, not served stale

    def test_bad_request_counted_and_raised(self, tmp_path):
        svc = _service(tmp_path)
        try:
            with pytest.raises(RequestError):
                svc.handle_compile({"source": ""})
        finally:
            svc.close()
        assert svc.counters["bad_requests"] == 1
        assert svc.counters["requests"] == 1

    def test_profile_flag_splits_the_key(self, tmp_path):
        svc = _service(tmp_path)
        try:
            _, s1 = svc.handle_compile(TP_REQUEST)
            payload, s2 = svc.handle_compile(dict(TP_REQUEST, profile=True))
        finally:
            svc.close()
        assert (s1, s2) == ("miss", "miss")
        assert payload["profile"] is not None
        assert svc.counters["compiles"] == 2

    def test_stats_envelope(self, tmp_path):
        svc = _service(tmp_path)
        try:
            svc.handle_compile(TP_REQUEST)
            stats = svc.stats()
        finally:
            svc.close()
        assert stats["schema"] == "repro.serve/1"
        assert stats["command"] == "stats"
        assert stats["counters"]["requests"] == 1
        assert stats["counters"]["corrupt_evictions"] == 0
        assert stats["store"]["entries"] == 1
        assert stats["workers"] == 0
        assert stats["queue_depth"] == 0

    def test_counts_before_bind_survive_it(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.get("a" * 64)
        store.put("a" * 64, {"v": 1})
        store.get("a" * 64)
        svc = CompileService(store, pool=WorkerPool(0))
        try:
            assert store.metrics is svc.metrics
            store.get("a" * 64)
            stats = svc.stats()["store"]
        finally:
            svc.close()
        assert (stats["hits"], stats["misses"], stats["writes"]) == (2, 1, 1)

    def test_real_write_error_counts_as_io_fault(self, tmp_path,
                                                 monkeypatch):
        store = ArtifactStore(tmp_path / "store")

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(tempfile, "mkstemp", disk_full)
        assert store.put("b" * 64, {"v": 1}) is None
        assert store.metrics.counter(
            "repro_store_io_faults_total", labelnames=("site",)
        ).labels(site="store-write").value == 1


class TestConcurrencyStress:
    """Satellite a: N threads, mixed identical/distinct kernels."""

    UNIQUE = [
        TP_REQUEST,
        {"source": MM_SRC, "sizes": {"n": 32, "m": 32, "w": 32},
         "domain": [32, 32]},
        {"source": MV_SRC, "sizes": {"n": 64, "w": 32}, "domain": [64, 1]},
    ]
    THREADS_PER_KERNEL = 8

    def _storm(self, svc):
        """THREADS_PER_KERNEL threads per unique kernel, all released at
        once; returns {kernel_index: [(bytes, status), ...]}."""
        barrier = threading.Barrier(
            len(self.UNIQUE) * self.THREADS_PER_KERNEL)
        results = {i: [] for i in range(len(self.UNIQUE))}
        errors = []
        lock = threading.Lock()

        def run(i, request):
            try:
                barrier.wait(timeout=60)
                payload, status = svc.handle_compile(request)
                with lock:
                    results[i].append((_json_bytes(payload), status))
            except Exception as exc:      # pragma: no cover - diagnostics
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=run, args=(i, req), daemon=True)
                   for i, req in enumerate(self.UNIQUE)
                   for _ in range(self.THREADS_PER_KERNEL)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "stress deadlocked"
        assert errors == []
        return results

    def test_exactly_one_compile_per_unique_hash(self, tmp_path):
        svc = _service(tmp_path, workers=2)
        try:
            results = self._storm(svc)
        finally:
            svc.close()
        total = len(self.UNIQUE) * self.THREADS_PER_KERNEL
        assert svc.counters["requests"] == total
        # The invariant: misses == compiles == number of unique hashes.
        assert svc.counters["compiles"] == len(self.UNIQUE)
        assert svc.counters["misses"] == len(self.UNIQUE)
        assert svc.counters["hits"] == total - len(self.UNIQUE)
        assert svc.counters["errors"] == 0
        for i, outcomes in results.items():
            assert len(outcomes) == self.THREADS_PER_KERNEL
            bodies = {body for body, _ in outcomes}
            assert len(bodies) == 1, \
                f"kernel {i}: duplicate responses not bit-identical"
            statuses = sorted(status for _, status in outcomes)
            assert statuses.count("miss") == 1
            assert statuses.count("hit") == self.THREADS_PER_KERNEL - 1

    def test_no_deadlock_at_pool_saturation(self, tmp_path):
        # 24 concurrent requests over a 1-worker pool: every request
        # must drain (the storm asserts no thread is left alive).
        svc = _service(tmp_path, workers=1)
        try:
            self._storm(svc)
            stats = svc.stats()
        finally:
            svc.close()
        assert stats["queue_depth"] == 0
        assert stats["inflight"] == 0
        assert stats["counters"]["compiles"] == len(self.UNIQUE)


class TestSingleFlightWindow:
    def test_request_during_leader_store_write_coalesces(self, tmp_path):
        # A second request for the key lands while the leader is writing
        # its result to the store: it must join the leader's flight (or
        # hit the store), never compile a second time.
        svc = _service(tmp_path)
        real_put = svc.store.put
        second = {}

        def put(key, payload, *args, **kwargs):
            if "thread" not in second:
                thread = threading.Thread(
                    target=lambda: second.update(
                        reply=svc.handle_compile(TP_REQUEST)),
                    daemon=True)
                second["thread"] = thread
                thread.start()
                deadline = time.monotonic() + 60
                while (svc.counters["requests"] < 2
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
            return real_put(key, payload, *args, **kwargs)

        svc.store.put = put
        try:
            first, status1 = svc.handle_compile(TP_REQUEST)
            second["thread"].join(timeout=60)
        finally:
            svc.close()
        body2, status2 = second["reply"]
        assert status1 == "miss"
        assert status2 == "hit"
        assert svc.counters["requests"] == 2
        assert svc.counters["compiles"] == 1
        assert _json_bytes(first) == _json_bytes(body2)


@pytest.fixture(scope="module")
def http_server(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("serve_http"))
    service = CompileService(store, pool=WorkerPool(0))
    server = ServeServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


def _post(base, body, path="/compile"):
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, exc.read()


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class TestHttpEndToEnd:
    def test_compile_miss_then_hit(self, http_server):
        base, _ = http_server
        request = {"source": MV_SRC, "sizes": {"n": 48, "w": 24},
                   "domain": [48, 1]}
        status1, headers1, body1 = _post(base, request)
        status2, headers2, body2 = _post(base, request)
        assert status1 == status2 == 200
        assert headers1["X-Repro-Cache"] == "miss"
        assert headers2["X-Repro-Cache"] == "hit"
        assert body1 == body2, "hit body differs from miss body"
        payload = json.loads(body1)
        assert payload["schema"] == "repro.serve/1"
        assert payload["ok"] is True
        assert payload["result"]["launch"]["grid"]
        assert int(headers1["Content-Length"]) == len(body1)

    def test_expected_compile_failure_is_422(self, http_server):
        base, _ = http_server
        status, headers, body = _post(base, {
            "source": RD_SRC, "sizes": {"n": 64}, "domain": [64, 1],
            "options": {"resilient": False}})
        assert status == 422
        assert headers["X-Repro-Cache"] == "error"
        payload = json.loads(body)
        assert payload["ok"] is False
        assert payload["error"]["type"] == "PassError"

    def test_bad_json_is_400(self, http_server):
        base, _ = http_server
        status, _, body = _post(base, b"{truncated")
        assert status == 400
        assert b"bad JSON body" in body

    def test_negative_content_length_is_400(self, http_server):
        # A negative length must not make the handler read to EOF: the
        # client keeps its socket open and still gets an answer in time.
        host, port = http_server[0][len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=1) as sock:
            sock.sendall(b"POST /compile HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: -1\r\n\r\n")
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(4096)
                assert chunk, "connection closed without a response"
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_bad_request_is_400(self, http_server):
        base, _ = http_server
        status, _, body = _post(base, {"source": TP_SRC, "sizes": {},
                                       "domain": "axb"})
        assert status == 400
        assert json.loads(body)["ok"] is False

    def test_unknown_paths_404(self, http_server):
        base, _ = http_server
        assert _get(base, "/nope")[0] == 404
        assert _post(base, {}, path="/nope")[0] == 404

    def test_healthz(self, http_server):
        base, _ = http_server
        status, body = _get(base, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["ok"] is True
        assert health["status"] == "ok"
        assert health["degraded"] == []
        assert "store" in health["checks"]

    def test_stats_reflects_traffic(self, http_server):
        base, service = http_server
        status, body = _get(base, "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["schema"] == "repro.serve/1"
        assert stats["counters"] == dict(
            service.counters, corrupt_evictions=service.metrics.counter(
                "repro_store_corrupt_evictions_total").value)
        assert stats["counters"]["requests"] >= 2
        assert stats["counters"]["hits"] >= 1
