"""The remote campaign modes against an in-process compile service.

``explore(remote=URL)`` must sweep exactly what the serial and pooled
sweeps sweep (same grid, errors, printed sources and winner), and
``fuzz --remote URL`` must find the service available on every case.
"""

import json
import threading

import pytest

from repro.explore import explore
from repro.fuzz.cli import fuzz_main
from repro.kernels.suite import ALGORITHMS
from repro.machine import GTX280
from repro.serve.daemon import CompileService, ServeServer
from repro.serve.pool import WorkerPool
from repro.serve.store import ArtifactStore


@pytest.fixture(scope="module")
def service_url(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("remote_modes"))
    service = CompileService(store, pool=WorkerPool(0))
    server = ServeServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


def _fingerprint(result):
    return {"grid": [(v.block_merge, v.thread_merge, v.error,
                      v.estimate.time_s if v.estimate else None,
                      v.source_text) for v in result.versions],
            "winner": (result.best.block_merge, result.best.thread_merge),
            "winner_source": result.best.compiled.source}


@pytest.mark.parametrize("name,scale,infeasible", [("mm", 64, 0),
                                                   ("tp", 256, 16)])
def test_remote_sweep_matches_serial_and_pooled(service_url, name, scale,
                                                infeasible):
    algo = ALGORITHMS[name]
    sizes = algo.sizes(scale)
    args = (algo.source, sizes, algo.domain(sizes), GTX280)
    serial = explore(*args)
    pooled = explore(*args, workers=2)
    remote = explore(*args, remote=service_url)
    assert sum(not v.feasible for v in serial.versions) == infeasible
    assert _fingerprint(remote) == _fingerprint(serial)
    assert _fingerprint(pooled) == _fingerprint(serial)


def test_fuzz_remote_campaign_finds_the_service_available(service_url,
                                                          capsys):
    code = fuzz_main(["--seed", "0", "--count", "4", "--remote",
                      service_url, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["summary"]["divergent"] == 0
    assert doc["summary"]["completed"] == 4
    assert all(entry["remote"] == service_url for entry in doc["cases"])
