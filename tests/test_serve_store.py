"""Store round-trip and corruption battery (ISSUE 8 satellite d).

The content-addressed store must (1) round-trip artifacts bit-identically
on both simulator backends, (2) detect every flavor of on-disk damage —
truncation, bit flips, bad JSON, wrong wrapper shape, version skew —
evict the bad entry, record a ``cache.corrupt`` event, and fall back to
a miss (so the service recompiles), and (3) never expose a partial entry
(atomic tempfile + rename writes).
"""

import json
import os

import pytest

from repro.compiler import CompileOptions
from repro.machine import GTX280
from repro.serve.artifact import build_compile_artifact
from repro.serve.store import (
    ARTIFACT_KINDS,
    STORE_VERSION,
    ArtifactStore,
    cache_key,
)
from tests.conftest import MM_SRC, TP_SRC

SIZES = {"n": 64, "m": 64}
DOMAIN = (64, 64)


def _artifact(source=TP_SRC, sizes=SIZES, domain=DOMAIN,
              options=None, profile=False, backend=None):
    options = options or CompileOptions(resilient=True)
    key = cache_key(source, sizes, domain, GTX280, options,
                    extra={"profile": profile})
    payload = build_compile_artifact({
        "key": key, "source": source, "sizes": sizes, "domain": domain,
        "machine": GTX280, "options": options, "profile": profile,
        "backend": backend,
    })
    return key, payload


class TestRoundTrip:
    def test_save_load_bit_identity(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, payload = _artifact()
        store.put(key, payload)
        loaded = store.get(key)
        # Bit identity of the canonical wire rendering, not mere
        # structural equality: duplicates on the wire must be
        # byte-for-byte equal.
        canon = json.dumps(payload, indent=2, sort_keys=True)
        assert json.dumps(loaded, indent=2, sort_keys=True) == canon
        assert store.metrics.counter("repro_store_hits_total").value == 1
        assert store.metrics.counter("repro_store_writes_total").value == 1
        assert store.metrics.counter(
            "repro_store_corrupt_evictions_total").value == 0

    @pytest.mark.parametrize("backend", ["lockstep", "vectorized"])
    def test_round_trip_on_both_backends(self, tmp_path, backend):
        # The artifact includes a profile envelope when asked; the store
        # must round-trip it bit-identically whichever backend ran it.
        key, payload = _artifact(profile=True, backend=backend)
        store = ArtifactStore(tmp_path / backend)
        store.put(key, payload)
        loaded = store.get(key)
        assert (json.dumps(loaded, sort_keys=True)
                == json.dumps(payload, sort_keys=True))
        assert loaded["profile"] is not None
        assert loaded["profile"]["backend"] == backend

    def test_miss_is_not_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.metrics.counter("repro_store_misses_total").value == 1
        assert store.metrics.counter(
            "repro_store_corrupt_evictions_total").value == 0
        assert store.events == []

    def test_kinds_are_independent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, payload = _artifact()
        store.put(key, payload, kind="compile")
        store.put(key, {"profile": True}, kind="profile")
        assert store.get(key, "compile") == payload
        assert store.get(key, "profile") == {"profile": True}
        assert sorted(k for _, k in store.keys()) == sorted(ARTIFACT_KINDS)

    def test_unknown_kind_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="unknown artifact kind"):
            store.path_for("ab" * 32, "trace")


class TestCorruption:
    """Every damage flavor: detected, evicted, evented, then a miss."""

    def _seeded(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, payload = _artifact()
        path = store.put(key, payload)
        return store, key, path, payload

    def _assert_evicted(self, store, key, path, reason_part):
        assert store.get(key) is None
        assert not os.path.exists(path)
        assert store.metrics.counter(
            "repro_store_corrupt_evictions_total").value == 1
        [event] = store.events
        assert event["event"] == "cache.corrupt"
        assert event["key"] == key
        assert reason_part in event["reason"]
        # The slot is usable again: a fresh put round-trips.
        _, payload = _artifact()
        store.put(key, payload)
        assert store.get(key) == payload

    def test_truncated_entry(self, tmp_path):
        store, key, path, _ = self._seeded(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:len(blob) // 2])
        self._assert_evicted(store, key, path, "unreadable")

    def test_bit_flip_in_payload(self, tmp_path):
        store, key, path, _ = self._seeded(tmp_path)
        text = open(path).read()
        # Flip one character inside the payload's source text without
        # breaking the JSON: checksum must catch it.
        assert '"tp"' in text
        with open(path, "w") as f:
            f.write(text.replace('"tp"', '"tq"', 1))
        self._assert_evicted(store, key, path, "checksum")

    def test_bad_json(self, tmp_path):
        store, key, path, _ = self._seeded(tmp_path)
        with open(path, "w") as f:
            f.write("{not json at all")
        self._assert_evicted(store, key, path, "unreadable")

    def test_wrong_wrapper_shape(self, tmp_path):
        store, key, path, _ = self._seeded(tmp_path)
        with open(path, "w") as f:
            json.dump({"store_version": STORE_VERSION, "payload": {}}, f)
        self._assert_evicted(store, key, path, "missing payload/checksum")

    def test_wrapper_not_object(self, tmp_path):
        store, key, path, _ = self._seeded(tmp_path)
        with open(path, "w") as f:
            json.dump(["not", "an", "object"], f)
        self._assert_evicted(store, key, path, "not an object")

    def test_version_skew(self, tmp_path):
        store, key, path, _ = self._seeded(tmp_path)
        wrapper = json.load(open(path))
        wrapper["store_version"] = STORE_VERSION + 1
        with open(path, "w") as f:
            json.dump(wrapper, f)
        self._assert_evicted(store, key, path, "store_version")

    def test_binary_garbage(self, tmp_path):
        store, key, path, _ = self._seeded(tmp_path)
        with open(path, "wb") as f:
            f.write(bytes(range(256)) * 8)
        self._assert_evicted(store, key, path, "unreadable")

    def test_verify_all_sweep(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key_ok, payload = _artifact()
        store.put(key_ok, payload)
        key_bad, bad_payload = _artifact(source=MM_SRC,
                                         sizes={"n": 64, "m": 64, "w": 64})
        bad_path = store.put(key_bad, bad_payload)
        with open(bad_path, "w") as f:
            f.write("torn write")
        evicted = store.verify_all()
        assert [e["key"] for e in evicted] == [key_bad]
        assert store.keys() == [(key_ok, "compile")]
        # A clean store sweeps clean.
        assert store.verify_all() == []


class TestAtomicity:
    def test_no_temp_residue_and_no_partials(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, payload = _artifact()
        store.put(key, payload)
        leftovers = [name
                     for _, _, files in os.walk(store.root)
                     for name in files
                     if name.startswith(".")]
        assert leftovers == []
        # keys() never reports tempfiles, only complete entries.
        assert store.keys() == [(key, "compile")]

    def test_racing_writers_converge(self, tmp_path):
        # Two writers racing on the same key write byte-identical
        # content (deterministic compile), so last-write-wins is safe.
        store_a = ArtifactStore(tmp_path)
        store_b = ArtifactStore(tmp_path)
        key, payload = _artifact()
        store_a.put(key, payload)
        store_b.put(key, payload)
        assert store_a.get(key) == store_b.get(key) == payload
        assert len(store_a) == 1
