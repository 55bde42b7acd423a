"""Service telemetry end to end: /metrics, /stats, and graceful exit.

The load-bearing promises:

* after a scripted hit/miss/coalesce/error sequence, the ``/metrics``
  exposition and the ``/stats`` envelope agree exactly (both render
  from one registry snapshot — they structurally *cannot* diverge, and
  this test pins it from the outside through HTTP);
* latency histograms are split by cache verdict and every verdict that
  occurred has a nonzero count;
* coalesced followers are distinguishable (``verdict="coalesced"``)
  even though their HTTP cache status stays ``hit`` for compatibility;
* a SIGTERM'd daemon drains, flushes one final ``repro.metrics/1``
  snapshot line to stderr, and exits 0.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.obs.metrics import parse_prometheus, sample_value
from repro.serve.daemon import CompileService, RequestError, ServeServer
from repro.serve.pool import WorkerPool
from repro.serve.store import ArtifactStore

from tests.conftest import MM_SRC, TP_SRC

TP_REQUEST = {"source": TP_SRC, "sizes": {"n": 32, "m": 32},
              "domain": [32, 32]}
MM_REQUEST = {"source": MM_SRC,
              "sizes": {"n": 16, "m": 16, "w": 16}, "domain": [16, 16]}
# Global-sync reduction with resilient:False is an expected PassError.
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
BAD_REQUEST = {"source": RD_SRC, "sizes": {"n": 64}, "domain": [64, 1],
               "options": {"resilient": False}}

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _service(tmp_path, workers=0, **kw):
    return CompileService(ArtifactStore(tmp_path / "store"),
                          pool=WorkerPool(workers), **kw)


def _value(svc, name, labels=None):
    families = parse_prometheus(svc.metrics.render_prometheus())
    return sample_value(families, name, labels)


class TestScriptedSequence:
    def _run_script(self, svc):
        """hit/miss/coalesce/error: 1 miss + 1 hit + (1 leader miss with
        2 coalesced followers) + 1 error = 6 requests, 3 compiles."""
        svc.handle_compile(TP_REQUEST)                      # miss
        svc.handle_compile(TP_REQUEST)                      # hit

        # Deterministic coalescing: block the leader's compile inside
        # the pool until both followers have joined the flight.  A
        # follower bumps repro_requests_total only after it has found
        # the in-flight entry, so the counter reaching 5 (2 TP requests
        # + leader + 2 followers) proves both are committed to waiting.
        release = threading.Event()
        original_submit = svc.pool.submit

        def gated_submit(kind, payload, **kw):
            assert release.wait(timeout=60)
            return original_submit(kind, payload, **kw)

        svc.pool.submit = gated_submit
        statuses = []

        def request():
            _, status = svc.handle_compile(MM_REQUEST)
            statuses.append(status)

        threads = [threading.Thread(target=request) for _ in range(3)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        while svc.counters["requests"] < 5:
            assert time.monotonic() < deadline, "followers never joined"
            time.sleep(0.01)
        release.set()
        for t in threads:
            t.join(timeout=60)
        svc.pool.submit = original_submit
        assert sorted(statuses) == ["hit", "hit", "miss"]

        _, status = svc.handle_compile(BAD_REQUEST)         # error (422)
        assert status == "error"

    def test_metrics_match_stats_after_script(self, tmp_path):
        svc = _service(tmp_path)
        try:
            self._run_script(svc)
            snap = svc.metrics.snapshot()
            stats = svc.stats()
        finally:
            svc.close()

        families = parse_prometheus(svc.metrics.render_prometheus(snap))

        def val(name, labels=None):
            return sample_value(families, name, labels)

        assert val("repro_requests_total") == 6
        assert val("repro_cache_requests_total", {"verdict": "hit"}) == 1
        assert val("repro_cache_requests_total", {"verdict": "miss"}) == 3
        assert val("repro_cache_requests_total",
                   {"verdict": "coalesced"}) == 2
        assert val("repro_compiles_total") == 3
        assert val("repro_request_errors_total",
                   {"class": "PassError"}) == 1
        # Every verdict that occurred has a nonzero latency histogram.
        for verdict in ("hit", "miss", "coalesced", "error"):
            assert val("repro_request_seconds_count",
                       {"verdict": verdict}), verdict
        # The failed leader's latency lands under verdict "error", so
        # miss-latency counts only the two successful cold compiles.
        assert val("repro_request_seconds_count", {"verdict": "miss"}) == 2
        assert val("repro_inflight_requests") == 0
        # Pool + store families carry the same story.
        assert val("repro_pool_tasks_total",
                   {"kind": "compile", "outcome": "ok"}) == 3
        assert val("repro_pool_queue_wait_seconds_count") == 3
        assert val("repro_store_writes_total") == 2   # errors not cached
        assert val("repro_store_hits_total") == 1
        assert val("repro_store_bytes") > 0

        # /stats derives from the same counters: exact agreement.
        counters = stats["counters"]
        assert counters["requests"] == val("repro_requests_total")
        assert counters["hits"] == 3          # 1 store hit + 2 coalesced
        assert counters["coalesced"] == 2
        assert counters["misses"] == 3
        assert counters["errors"] == 1
        assert counters["compiles"] == 3
        assert counters == dict(svc.counters,
                                corrupt_evictions=svc.metrics.counter(
                                    "repro_store_corrupt_evictions_total"
                                ).value)

    def test_bad_request_metrics(self, tmp_path):
        svc = _service(tmp_path)
        try:
            with pytest.raises(RequestError):
                svc.handle_compile({"source": ""})
        finally:
            svc.close()
        assert _value(svc, "repro_bad_requests_total") == 1
        assert _value(svc, "repro_requests_total") == 1
        # Bad requests are not error *artifacts*.
        assert svc.counters["errors"] == 0
        assert _value(svc, "repro_request_seconds_count",
                      {"verdict": "error"}) == 1

    def test_worker_error_class_labelled(self, tmp_path):
        svc = _service(tmp_path)
        try:
            payload, status = svc.handle_compile(BAD_REQUEST)
        finally:
            svc.close()
        assert status == "error"
        assert payload["error"]["type"] == "PassError"
        assert _value(svc, "repro_request_errors_total",
                      {"class": "PassError"}) == 1
        assert _value(svc, "repro_pool_tasks_total",
                      {"kind": "compile", "outcome": "ok"}) == 1


class TestHttpMetricsEndpoint:
    @pytest.fixture()
    def server(self, tmp_path):
        service = _service(tmp_path)
        httpd = ServeServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        try:
            yield f"http://{host}:{port}", service
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()
            thread.join(timeout=10)

    def test_metrics_agrees_with_stats_over_http(self, server):
        import urllib.request
        base, _service_obj = server
        body = json.dumps(TP_REQUEST).encode()
        for _ in range(2):
            req = urllib.request.Request(
                base + "/compile", data=body,
                headers={"Content-Type": "application/json"})
            urllib.request.urlopen(req, timeout=60).read()
        with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            families = parse_prometheus(resp.read().decode())
        with urllib.request.urlopen(base + "/stats", timeout=30) as resp:
            stats = json.loads(resp.read())
        assert stats["counters"]["requests"] == sample_value(
            families, "repro_requests_total")
        assert stats["counters"]["hits"] == sample_value(
            families, "repro_cache_requests_total", {"verdict": "hit"})
        assert stats["store"]["writes"] == sample_value(
            families, "repro_store_writes_total")
        assert sample_value(families, "repro_request_seconds_count",
                            {"verdict": "hit"}) == 1

    def test_metrics_json_envelope(self, server):
        import urllib.request
        base, _service_obj = server
        with urllib.request.urlopen(base + "/metrics?format=json",
                                    timeout=30) as resp:
            env = json.loads(resp.read())
        assert env["schema"] == "repro.metrics/1"
        assert "repro_requests_total" in env["metrics"]


class TestGracefulShutdown:
    def test_sigterm_drains_and_flushes_metrics(self, tmp_path):
        if not hasattr(signal, "SIGTERM"):
            pytest.skip("no SIGTERM on this platform")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "0", "--store", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC_ROOT))
        try:
            announce = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", announce)
            assert match, f"no announce line: {announce!r}"
            base = f"http://{match.group(1)}:{match.group(2)}"
            import urllib.request
            req = urllib.request.Request(
                base + "/compile", data=json.dumps(TP_REQUEST).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=60) as resp:
                assert resp.status == 200
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0
        assert "shut down cleanly" in stdout
        flush_lines = [line for line in stderr.splitlines()
                       if line.startswith("{")]
        assert flush_lines, f"no metrics flush on stderr: {stderr!r}"
        env = json.loads(flush_lines[-1])
        assert env["schema"] == "repro.metrics/1"
        assert env["reason"] == "shutdown"
        assert env["drained"] is True
        requests_series = env["metrics"]["repro_requests_total"]["series"]
        assert requests_series[0]["value"] == 1.0
