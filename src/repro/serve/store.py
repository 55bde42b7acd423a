"""On-disk content-addressed artifact store for the compile service.

Every compile the service performs is keyed by :func:`cache_key`, a
SHA-256 over a canonical JSON rendering of

* the *normalized* kernel source — parsed and re-printed, so whitespace
  and comment edits hash identically while any semantic edit perturbs
  the key;
* the size bindings and output domain;
* every :class:`repro.machine.GpuSpec` parameter of the target machine;
* every :class:`repro.compiler.CompileOptions` field
  (:meth:`~repro.compiler.CompileOptions.fingerprint`);
* the repro package version and the store layout version.

Entries live under ``<root>/<key[:2]>/<key>.<kind>.json`` as a small
wrapper object carrying the payload plus its own SHA-256 checksum.
Writes are atomic (tempfile in the same directory + ``os.replace``), so
a killed worker or a torn write can never leave a *partial* entry — and
a corrupt entry (truncation, bit flip, bad JSON, checksum mismatch) is
detected on load, evicted, and reported as a ``cache.corrupt`` event;
the caller simply recompiles.  The store never crashes on bad bytes.

Quota and GC (PR 10): the store optionally carries byte/entry quotas
(``max_bytes`` / ``max_entries``).  :meth:`ArtifactStore.gc` evicts
least-recently-*used* entries (every hit bumps the entry's file times,
so LRU survives ``relatime`` mounts) until the store is back under both
quotas.  Eviction is atomic per entry — one ``os.unlink`` at a time —
so a concurrent reader of an evicted entry sees an ordinary miss and
recompiles; there is no torn intermediate state to observe.  The daemon
runs GC opportunistically after writes; ``python -m repro serve-gc``
runs the same sweep offline.

Disk faults: every I/O site consults a
:class:`~repro.resilience.faults.FaultPlan` (ambient ``REPRO_FAULTS``
by default) for the disk fault kinds ``enospc`` / ``eio`` / ``torn`` at
the sites ``store-write`` / ``store-read`` / ``store-evict``.  A write
fault is absorbed into a ``store.write-failed`` event and the caller
simply serves the compile uncached (compile-through); a read fault is a
miss; an evict fault leaves the entry for the next sweep.  Real
``OSError`` from the filesystem takes the identical paths, so the
injected matrix proves the real degradation behavior; either way the
absorbed fault counts in ``repro_store_io_faults_total{site}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import os
import tempfile
from typing import Dict, List, Optional, Tuple, Union

import repro
from repro.compiler import CompileOptions
from repro.machine import GpuSpec
from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import DISK_FAULT_KINDS, FaultPlan

#: Bump when the entry layout or the key derivation changes: old stores
#: simply miss (the version participates in the hash), never misparse.
STORE_VERSION = 1

#: Artifact kinds one key can hold (compile result, profile run).
ARTIFACT_KINDS = ("compile", "profile")


def normalize_source(source: str) -> str:
    """Canonical source text: parse + re-print when possible.

    The printer emits one canonical layout, so whitespace and comments
    never reach the hash.  Source that does not parse is hashed verbatim
    (it will fail compilation identically every time, and two distinct
    broken sources must not collide).
    """
    from repro.lang.parser import parse_kernel
    from repro.lang.printer import print_kernel
    try:
        return print_kernel(parse_kernel(source))
    except Exception:
        return source


def machine_fingerprint(machine: GpuSpec) -> Dict[str, object]:
    """Every architecture parameter, JSON-ready (int dict keys become
    strings under ``json.dumps``; sorted for stability)."""
    out = dataclasses.asdict(machine)
    out["vector_bandwidth_gain"] = {
        str(k): v for k, v in sorted(out["vector_bandwidth_gain"].items())}
    return out


def cache_key(source: str,
              sizes: Dict[str, int],
              domain: Tuple[int, int],
              machine: GpuSpec,
              options: Optional[CompileOptions] = None,
              extra: Optional[Dict[str, object]] = None) -> str:
    """The content hash identifying one compile (hex SHA-256)."""
    options = options or CompileOptions()
    identity = {
        "store_version": STORE_VERSION,
        "repro_version": repro.__version__,
        "source": normalize_source(source),
        "sizes": {str(k): int(v) for k, v in sorted(sizes.items())},
        "domain": [int(domain[0]), int(domain[1])],
        "machine": machine_fingerprint(machine),
        "options": options.fingerprint(),
        "extra": dict(extra or {}),
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _payload_checksum(payload_text: str) -> str:
    return hashlib.sha256(payload_text.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class GcReport:
    """One :meth:`ArtifactStore.gc` sweep's outcome."""

    scanned: int = 0
    evicted: int = 0
    reclaimed_bytes: int = 0
    failed: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0
    over_quota: bool = False
    evicted_keys: List[str] = dataclasses.field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class ArtifactStore:
    """Content-addressed on-disk artifact store (see module docstring).

    Every counter lives in :attr:`metrics`, a thread-safe
    :class:`~repro.obs.metrics.MetricsRegistry` — the store's own until
    a service binds it to the shared one.  The on-disk format is
    multi-process safe: writers only ever ``os.replace`` complete files,
    and two writers racing on the same key write byte-identical content
    (the key is the content address of a deterministic compile).
    """

    def __init__(self, root: Union[str, os.PathLike],
                 max_bytes: Optional[int] = None,
                 max_entries: Optional[int] = None,
                 faults: Optional[FaultPlan] = None):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        #: Disk-fault plan (ambient ``REPRO_FAULTS`` when not given).
        self.faults = faults if faults is not None else FaultPlan.from_env()
        #: ``cache.corrupt`` (and future) event records, oldest first.
        self.events: List[Dict[str, object]] = []
        self.metrics: Optional[MetricsRegistry] = None
        self.bind_metrics(MetricsRegistry())

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Move the store's instruments onto ``registry``.

        Counts already recorded on the previous registry are carried
        over, so a late bind never under-reports; entry/byte gauges are
        callbacks evaluated at snapshot time.
        """
        previous = self.metrics
        self.metrics = registry
        self._m_hits = registry.counter(
            "repro_store_hits_total", "Artifact store cache hits.")
        self._m_misses = registry.counter(
            "repro_store_misses_total", "Artifact store cache misses.")
        self._m_writes = registry.counter(
            "repro_store_writes_total", "Artifacts persisted to disk.")
        self._m_corrupt = registry.counter(
            "repro_store_corrupt_evictions_total",
            "Corrupt entries detected and evicted on load.")
        self._m_quota_evictions = registry.counter(
            "repro_store_quota_evictions_total",
            "Entries evicted by quota GC (LRU sweeps).")
        self._m_gc_runs = registry.counter(
            "repro_store_gc_runs_total", "Completed store GC sweeps.")
        self._m_gc_reclaimed = registry.counter(
            "repro_store_gc_reclaimed_bytes_total",
            "Bytes reclaimed by store GC sweeps.")
        self._m_io_faults = registry.counter(
            "repro_store_io_faults_total",
            "Disk faults absorbed by the store, by I/O site.",
            labelnames=("site",))
        registry.gauge(
            "repro_store_entries", "Artifact entries currently on disk."
        ).set_function(lambda: float(len(self)))
        registry.gauge(
            "repro_store_bytes",
            "Bytes of artifact entries currently on disk."
        ).set_function(lambda: float(self.bytes_on_disk()))
        registry.gauge(
            "repro_store_over_quota",
            "1 when the store exceeds a configured quota, else 0."
        ).set_function(lambda: 1.0 if self.over_quota() else 0.0)
        if previous is None:
            return
        with registry.hold():
            for name, family in previous.snapshot().items():
                if (family["type"] != "counter"
                        or not name.startswith("repro_store_")):
                    continue
                counter = registry.counter(name, family["help"],
                                           family["labelnames"])
                for series in family["series"]:
                    counter.labels(**series["labels"]).inc(series["value"])

    # -- fault injection ---------------------------------------------------

    def _trip_disk(self, site: str) -> Optional[str]:
        """Fire (and consume) an armed disk fault at ``site``, if any;
        returns the fault kind or ``None``."""
        for kind in DISK_FAULT_KINDS:
            if self.faults.trip(kind, site):
                return kind
        return None

    @staticmethod
    def _disk_error(kind: str, path: str) -> OSError:
        code = errno.ENOSPC if kind == "enospc" else errno.EIO
        return OSError(code, os.strerror(code), path)

    def bytes_on_disk(self) -> int:
        """Total size of every artifact entry file (traces and tempfiles
        excluded — only ``<key>.<kind>.json`` entries count)."""
        total = 0
        for key, kind in self.keys():
            try:
                total += os.path.getsize(self.path_for(key, kind))
            except OSError:
                pass
        return total

    # -- paths -------------------------------------------------------------

    def path_for(self, key: str, kind: str = "compile") -> str:
        if kind not in ARTIFACT_KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}; "
                             f"expected one of {ARTIFACT_KINDS}")
        return os.path.join(self.root, key[:2], f"{key}.{kind}.json")

    # -- read side ---------------------------------------------------------

    def get(self, key: str, kind: str = "compile"
            ) -> Optional[Dict[str, object]]:
        """The stored payload for ``key``, or ``None`` on miss.

        A corrupt entry — unreadable, truncated, bit-flipped, bad JSON,
        wrong wrapper shape, or checksum mismatch — is evicted and
        recorded as a ``cache.corrupt`` event; the caller sees a miss.

        A *transient* read fault (injected ``eio``/``enospc``/``torn``
        at ``store-read``) is also a miss, but does **not** evict: the
        bytes on disk may be fine, and a flaky device must not destroy
        the cache.
        """
        path = self.path_for(key, kind)
        fault = self._trip_disk("store-read")
        if fault is not None:
            with self.metrics.hold():
                self._m_io_faults.labels(site="store-read").inc()
                self._m_misses.inc()
            self.events.append({"event": "store.read-failed", "key": key,
                                "kind": kind, "fault": fault})
            return None
        try:
            with open(path, "r", encoding="utf-8") as f:
                wrapper = json.load(f)
        except FileNotFoundError:
            self._m_misses.inc()
            return None
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            self._evict_corrupt(key, kind, path,
                                f"unreadable entry: {exc}")
            return None
        payload = None
        reason = None
        if not isinstance(wrapper, dict):
            reason = "wrapper is not an object"
        elif wrapper.get("store_version") != STORE_VERSION:
            reason = (f"store_version "
                      f"{wrapper.get('store_version')!r} != {STORE_VERSION}")
        elif "payload" not in wrapper or "checksum" not in wrapper:
            reason = "wrapper is missing payload/checksum"
        else:
            payload = wrapper["payload"]
            text = json.dumps(payload, sort_keys=True,
                              separators=(",", ":"))
            if _payload_checksum(text) != wrapper["checksum"]:
                reason = "checksum mismatch (bit flip?)"
                payload = None
        if reason is not None:
            self._evict_corrupt(key, kind, path, reason)
            return None
        self._m_hits.inc()
        try:
            # Bump the entry's file times so LRU GC sees real *use*
            # recency even on noatime/relatime mounts.
            os.utime(path)
        except OSError:
            pass
        return payload

    def _evict_corrupt(self, key: str, kind: str, path: str,
                       reason: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
        with self.metrics.hold():
            self._m_corrupt.inc()
            self._m_misses.inc()
        self.events.append({"event": "cache.corrupt", "key": key,
                            "kind": kind, "reason": reason})

    # -- write side --------------------------------------------------------

    def put(self, key: str, payload: Dict[str, object],
            kind: str = "compile") -> Optional[str]:
        """Atomically persist ``payload`` under ``key``; returns the path,
        or ``None`` when the write was absorbed by a disk fault.

        The wrapper is written to a tempfile in the destination
        directory and ``os.replace``d into place, so readers only ever
        see complete entries.  A real or injected ``OSError`` (full
        disk, failing device) is *absorbed*: the entry simply is not
        persisted, a ``store.write-failed`` event is recorded, and the
        caller serves the compile uncached (compile-through).  A
        ``torn`` fault lands a truncated wrapper on disk — the checksum
        catches it on the next read, which evicts and recompiles.
        """
        path = self.path_for(key, kind)
        fault = self._trip_disk("store-write")
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        wrapper = {
            "store_version": STORE_VERSION,
            "key": key,
            "kind": kind,
            "checksum": _payload_checksum(text),
            "payload": payload,
        }
        wrapper_text = json.dumps(wrapper, sort_keys=True)
        if fault == "torn":
            self._m_io_faults.labels(site="store-write").inc()
            wrapper_text = wrapper_text[:len(wrapper_text) // 2]
        try:
            if fault in ("enospc", "eio"):
                raise self._disk_error(fault, path)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f".{key[:8]}.",
                                       dir=os.path.dirname(path))
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    f.write(wrapper_text)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self._m_io_faults.labels(site="store-write").inc()
            self.events.append({"event": "store.write-failed", "key": key,
                                "kind": kind, "reason": str(exc)})
            return None
        self._m_writes.inc()
        return path

    def delete(self, key: str, kind: str = "compile") -> bool:
        try:
            os.unlink(self.path_for(key, kind))
            return True
        except FileNotFoundError:
            return False

    # -- quota + GC --------------------------------------------------------

    def over_quota(self) -> bool:
        """Whether the store currently exceeds a configured quota."""
        if self.max_entries is not None and len(self) > self.max_entries:
            return True
        if (self.max_bytes is not None
                and self.bytes_on_disk() > self.max_bytes):
            return True
        return False

    def entries(self) -> List[Dict[str, object]]:
        """Every entry with its LRU metadata: ``key``, ``kind``,
        ``path``, ``bytes``, ``atime`` (falls back to mtime when atime
        is older — noatime mounts never update it), oldest first."""
        out = []
        for key, kind in self.keys():
            path = self.path_for(key, kind)
            try:
                st = os.stat(path)
            except OSError:
                continue            # raced with a concurrent eviction
            out.append({"key": key, "kind": kind, "path": path,
                        "bytes": int(st.st_size),
                        "atime": max(st.st_atime, st.st_mtime)})
        out.sort(key=lambda e: (e["atime"], e["key"]))
        return out

    def gc(self, max_bytes: Optional[int] = None,
           max_entries: Optional[int] = None) -> GcReport:
        """Evict least-recently-used entries until under both quotas.

        Crash-safe by construction: each eviction is one atomic
        ``os.unlink``, so a killed GC leaves the store valid and a
        concurrent reader of an evicted entry sees an ordinary miss
        (it recompiles; it can never observe a torn entry).  A failed
        unlink (real or injected ``store-evict`` fault) leaves that
        entry for the next sweep and moves on.

        Quotas default to the store's own; passing explicit limits
        (the ``serve-gc`` CLI does) overrides them for this sweep.
        """
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        max_entries = (max_entries if max_entries is not None
                       else self.max_entries)
        entries = self.entries()
        report = GcReport(scanned=len(entries))
        live = len(entries)
        live_bytes = sum(e["bytes"] for e in entries)
        for entry in entries:
            under_entries = max_entries is None or live <= max_entries
            under_bytes = max_bytes is None or live_bytes <= max_bytes
            if under_entries and under_bytes:
                break
            fault = self._trip_disk("store-evict")
            try:
                if fault is not None:
                    raise self._disk_error(fault, entry["path"])
                os.unlink(entry["path"])
            except FileNotFoundError:
                # A concurrent eviction beat us to it; already gone.
                live -= 1
                live_bytes -= entry["bytes"]
                continue
            except OSError as exc:
                report.failed += 1
                self._m_io_faults.labels(site="store-evict").inc()
                self.events.append({"event": "store.evict-failed",
                                    "key": entry["key"],
                                    "kind": entry["kind"],
                                    "reason": str(exc)})
                continue
            live -= 1
            live_bytes -= entry["bytes"]
            report.evicted += 1
            report.reclaimed_bytes += entry["bytes"]
            report.evicted_keys.append(entry["key"])
            self._m_quota_evictions.inc()
            self.events.append({"event": "store.evicted",
                                "key": entry["key"],
                                "kind": entry["kind"],
                                "bytes": entry["bytes"]})
        with self.metrics.hold():
            self._m_gc_runs.inc()
            self._m_gc_reclaimed.inc(report.reclaimed_bytes)
        report.remaining_entries = live
        report.remaining_bytes = live_bytes
        report.over_quota = (
            (max_entries is not None and live > max_entries)
            or (max_bytes is not None and live_bytes > max_bytes))
        return report

    def maybe_gc(self) -> Optional[GcReport]:
        """Run a sweep only when over quota (the daemon's opportunistic
        hook after each write); returns the report, or ``None``."""
        if (self.max_bytes is None and self.max_entries is None):
            return None
        if not self.over_quota():
            return None
        return self.gc()

    # -- introspection -----------------------------------------------------

    def keys(self) -> List[Tuple[str, str]]:
        """Every ``(key, kind)`` currently on disk, sorted."""
        found = []
        for dirpath, _dirs, files in os.walk(self.root):
            for name in files:
                if not name.endswith(".json") or name.startswith("."):
                    continue
                stem = name[:-len(".json")]
                key, _, kind = stem.partition(".")
                if kind in ARTIFACT_KINDS:
                    found.append((key, kind))
        return sorted(found)

    def __len__(self) -> int:
        return len(self.keys())

    def verify_all(self) -> List[Dict[str, object]]:
        """Load-check every entry; returns the corrupt-event records of
        any entries evicted by the sweep (empty = store fully intact)."""
        before = len(self.events)
        for key, kind in self.keys():
            self.get(key, kind)
        return self.events[before:]


# ---------------------------------------------------------------------------
# Offline GC CLI
# ---------------------------------------------------------------------------

def serve_gc_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro serve-gc`` — sweep an artifact store offline.

    Runs the same LRU eviction the daemon runs opportunistically, against
    a store directory that may be live (eviction is atomic per entry, so
    a concurrently running daemon just sees misses).  Exit 0 = swept
    clean (or nothing to do); 1 = evictions failed or the store is still
    over quota; 2 = usage error.
    """
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro serve-gc",
        description="Evict least-recently-used artifact-store entries "
                    "until under the given quotas (DESIGN.md 5.10).")
    parser.add_argument("--store", default=".repro_store", metavar="DIR",
                        help="artifact store directory "
                             "(default: .repro_store)")
    parser.add_argument("--max-bytes", type=int, default=None,
                        help="byte quota to sweep down to")
    parser.add_argument("--max-entries", type=int, default=None,
                        help="entry-count quota to sweep down to")
    parser.add_argument("--verify", action="store_true",
                        help="also load-check every surviving entry "
                             "(corrupt ones are evicted)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the sweep report as JSON")
    args = parser.parse_args(argv)
    if args.max_bytes is None and args.max_entries is None:
        print("error: give --max-bytes and/or --max-entries",
              file=sys.stderr)
        return 2

    store = ArtifactStore(args.store, max_bytes=args.max_bytes,
                          max_entries=args.max_entries)
    report = store.gc()
    corrupt: List[Dict[str, object]] = []
    if args.verify:
        corrupt = store.verify_all()
    exit_code = 1 if (report.failed or report.over_quota) else 0
    if args.as_json:
        print(json.dumps({"schema": "repro.serve/1", "command": "serve-gc",
                          "exit_code": exit_code,
                          "report": report.to_dict(),
                          "corrupt_evicted": corrupt}, indent=2))
        return exit_code
    print(f"serve-gc: scanned {report.scanned} entr(ies), evicted "
          f"{report.evicted} ({report.reclaimed_bytes} B reclaimed), "
          f"{report.failed} failed; {report.remaining_entries} entr(ies) / "
          f"{report.remaining_bytes} B remain"
          + (" [STILL OVER QUOTA]" if report.over_quota else ""))
    if args.verify:
        print(f"serve-gc: verify swept {len(corrupt)} corrupt entr(ies)")
    return exit_code
