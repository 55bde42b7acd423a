"""Per-layer probes: one number per layer a request crosses.

Every probe times calls into a layer's public functions from outside,
or reads what the daemon already publishes at ``/metrics``.  They run in
the traced pass only, so they never perturb the end-to-end numbers.
Which end-to-end metric each one should move is tabled in README.md.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import tempfile
import threading
import time
import urllib.request
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.analysis import analyze_kernel, verify_compiled
from repro.compiler import CompileOptions, compile_kernel
from repro.fuzz import OracleOptions, generate_case, run_case
from repro.kernels.suite import ALGORITHMS
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_kernel
from repro.lang.printer import print_kernel
from repro.lang.semantic import check_kernel
from repro.machine import GTX280
from repro.obs.profile import ProfileCollector
from repro.serve.daemon import CompileService
from repro.serve.pool import WorkerPool
from repro.serve.store import ArtifactStore, cache_key
from repro.sim.perf import estimate_compiled, estimate_reduction

from harness import NO_TRACE, WIDTH, percentile
from workloads import (NON_REDUCTION, SCALAR_SCALES, TABLE1,
                       VECTORIZED_SCALES, Daemon, compile_algo, copy_arrays,
                       launch, request_for, speedup_over_naive, sweep)

Metrics = Dict[str, float]

#: Cumulative stages, in pipeline order (the Figure 12 toggles).
STAGES = ("naive", "vectorize", "coalesce", "merge", "prefetch",
          "partition")


def stage_options(depth: int) -> CompileOptions:
    """Options with the first ``depth`` optimizations on."""
    return CompileOptions(enable_vectorize=depth >= 1,
                          enable_coalesce=depth >= 2,
                          enable_merge=depth >= 3,
                          enable_prefetch=depth >= 4,
                          enable_partition=depth >= 5)


def seconds(fn: Callable[[], Any]) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def median_ms(fn: Callable[[], Any], reps: int) -> float:
    return statistics.median(seconds(fn)[0] for _ in range(reps)) * 1e3


def probe_scale(name: str) -> int:
    return ALGORITHMS[name].paper_scales[0]


# ---------------------------------------------------------------------------
# lang, compiler, analysis
# ---------------------------------------------------------------------------

def suite_compile_ms(options: CompileOptions, reps: int
                     ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-kernel compile ms (median of ``reps``) for the nine
    ``compile_kernel`` programs at their smallest paper scale."""
    times, compiled = {}, {}
    for name in NON_REDUCTION:
        algo = ALGORITHMS[name]
        sizes = algo.sizes(probe_scale(name))

        def one():
            compiled[name] = compile_kernel(
                algo.source, sizes, algo.domain(sizes), GTX280, options)
        times[name] = median_ms(one, reps)
    return times, compiled


def probe_compile(reps: int) -> Metrics:
    out: Metrics = {}
    sources = [ALGORITHMS[n].source for n in TABLE1]

    parse_ms = median_ms(lambda: [parse_kernel(s) for s in sources],
                         reps * 3)
    out["lang.parse.ms_per_kernel"] = parse_ms / len(sources)
    out["lang.parse.tokens_per_s"] = (
        sum(len(tokenize(s)) for s in sources) / (parse_ms / 1e3))
    naive = [parse_kernel(s) for s in sources]
    out["lang.check.ms_per_kernel"] = median_ms(
        lambda: [check_kernel(k, mode="naive") for k in naive],
        reps * 3) / len(naive)

    ladder = [suite_compile_ms(stage_options(d), reps)[0]
              for d in range(len(STAGES) - 1)]
    full, compiled = suite_compile_ms(CompileOptions(), reps)
    ladder.append(full)
    totals = [sum(t.values()) for t in ladder]
    for depth, stage in enumerate(STAGES):
        out[f"compiler.stage.{stage}.ms"] = (
            totals[depth] - (totals[depth - 1] if depth else 0.0))

    def variant_ms(**changes) -> float:
        times, _ = suite_compile_ms(
            dataclasses.replace(CompileOptions(), **changes), reps)
        return sum(times.values())

    out["compiler.cleanup.ms"] = (totals[-1]
                                  - variant_ms(enable_cleanup=False))
    out["compiler.verify.ms"] = variant_ms(verify=True) - totals[-1]
    resilient_ms, resilient = suite_compile_ms(
        CompileOptions(resilient=True), reps)
    out["compiler.resilient.ms"] = sum(resilient_ms.values()) - totals[-1]
    out["compiler.attempts_per_compile"] = statistics.mean(
        len(c.attempts) for c in resilient.values())

    def reduce() -> None:
        compiled["rd"] = compile_algo(ALGORITHMS["rd"], probe_scale("rd"),
                                      NO_TRACE)
    full["rd"] = median_ms(reduce, reps)
    for name in TABLE1:
        out[f"compiler.compile_ms.{name}"] = full[name]

    emitted = [compiled[n].kernel for n in NON_REDUCTION]
    emitted += [compiled["rd"].stage1, compiled["rd"].stage2]
    out["lang.print.ms_per_kernel"] = median_ms(
        lambda: [print_kernel(k) for k in emitted], reps * 3) / len(emitted)
    out["lang.print.emitted_lines"] = sum(
        len(print_kernel(k).splitlines()) for k in emitted)

    programs = [compiled[n] for n in NON_REDUCTION]
    findings: List[int] = []
    out["analysis.verify.ms_per_kernel"] = median_ms(
        lambda: findings.append(sum(len(verify_compiled(c))
                                    for c in programs)),
        reps) / len(programs)
    out["analysis.findings"] = findings[0]
    out["analysis.dataflow.ms_per_kernel"] = median_ms(
        lambda: [analyze_kernel(c.kernel, c.size_bindings(),
                                tuple(c.config.block), tuple(c.config.grid))
                 for c in programs], reps) / len(programs)

    def estimates():
        for c in programs:
            estimate_compiled(c)
        estimate_reduction(compiled["rd"])
    out["sim.perf.estimate_ms_per_kernel"] = (
        median_ms(estimates, reps) / len(TABLE1))
    out["model.speedup_geomean"] = statistics.geometric_mean([
        speedup_over_naive(ALGORITHMS[n], probe_scale(n),
                           estimate_compiled(compiled[n]).time_s)
        for n in NON_REDUCTION])
    return out


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def sim_programs(scales: Dict[str, int]) -> Dict[str, Tuple]:
    rng = np.random.default_rng(2010)
    programs = {}
    for name in TABLE1:
        algo = ALGORITHMS[name]
        compiled = compile_algo(algo, scales[name], NO_TRACE)
        if algo.uses_global_sync:
            threads = sum(cfg.total_threads
                          for _, cfg, _ in compiled.launches())
        else:
            threads = compiled.config.total_threads
        programs[name] = (algo, compiled,
                          algo.make_arrays(rng, algo.sizes(scales[name])),
                          threads)
    return programs


def launch_ms(programs: Dict[str, Tuple], backend: str, reps: int
              ) -> Dict[str, float]:
    out = {}
    for name, (algo, compiled, arrays, _) in programs.items():
        out[name] = statistics.median(
            seconds(lambda w=copy_arrays(arrays):
                    launch(algo, compiled, w, backend, NO_TRACE))[0]
            for _ in range(reps)) * 1e3
    return out


def profiled_ms(programs: Dict[str, Tuple], backend: str
                ) -> Tuple[float, int, int]:
    """Suite ms with the profiler on, and the exact simulated counts."""
    total_s, transactions, conflicts = 0.0, 0, 0
    for algo, compiled, arrays, _ in programs.values():
        work = copy_arrays(arrays)
        if algo.uses_global_sync:
            profiles: List = []
            total_s += seconds(lambda: compiled.run(
                work["a"], backend=backend, profile=profiles))[0]
            found = [p for _, p in profiles]
        else:
            collector = ProfileCollector(compiled.kernel, compiled.config)
            spent, used = seconds(lambda: compiled.run(
                work, backend=backend, profile=collector))
            total_s += spent
            found = [collector.finalize(used)]
        transactions += sum(p.global_transactions for p in found)
        conflicts += sum(p.shared_conflict_cycles for p in found)
    return total_s * 1e3, transactions, conflicts


def probe_sim(reps: int) -> Metrics:
    out: Metrics = {}
    small = sim_programs(SCALAR_SCALES)
    mid = sim_programs(VECTORIZED_SCALES)
    per = {"lockstep": launch_ms(small, "lockstep", reps),
           "scheduled": launch_ms(small, "scheduled", reps),
           "vectorized": launch_ms(mid, "vectorized", reps)}
    for backend, times in per.items():
        programs = mid if backend == "vectorized" else small
        for name, ms in times.items():
            out[f"sim.{backend}.ms.{name}"] = ms
        out[f"sim.{backend}.threads_per_s"] = (
            sum(p[3] for p in programs.values())
            / (sum(times.values()) / 1e3))
    lockstep_ms = sum(per["lockstep"].values())
    same_launch = sum(launch_ms(small, "vectorized", reps).values())
    out["sim.vectorized_over_lockstep"] = lockstep_ms / same_launch
    out["sim.scheduled_over_lockstep"] = (
        lockstep_ms / sum(per["scheduled"].values()))
    # Profiler on over profiler off, same launches.  The simulated
    # counts are defined to be backend-independent.
    counts = {}
    for backend, plain_ms in (("lockstep", lockstep_ms),
                              ("vectorized", same_launch)):
        with_profile, *counts[backend] = profiled_ms(small, backend)
        out[f"sim.profile_overhead.{backend}"] = with_profile / plain_ms
    if counts["lockstep"] != counts["vectorized"]:
        raise RuntimeError(f"profile counts differ between backends: "
                           f"{counts}")
    (out["sim.profile.global_transactions"],
     out["sim.profile.bank_conflict_cycles"]) = counts["lockstep"]
    out["sim.auto_fallbacks"] = sum(
        compiled.run(copy_arrays(arrays), backend="auto") != "vectorized"
        for algo, compiled, arrays, _ in small.values()
        if not algo.uses_global_sync)
    return out


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def expect(ok: bool, what: str) -> None:
    """A probe that measured the wrong thing must not report a number."""
    if not ok:
        raise RuntimeError(f"serve probe: {what}")


def _dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def _series_total(metrics: Dict[str, Any], family: str, field: str = "value",
                  **labels: str) -> float:
    return sum(s.get(field, 0.0)
               for s in metrics.get(family, {}).get("series", ())
               if all(s["labels"].get(k) == v for k, v in labels.items()))


def probe_serve(tmp, reps: int) -> Metrics:
    """The ladder for the *same* mm request: cache key, store, service
    in-process (inline, then pooled), then over HTTP."""
    out: Metrics = {}
    request = request_for("mm", probe_scale("mm"))
    source, sizes, domain = (request["source"], request["sizes"],
                             tuple(request["domain"]))
    n = 10 * reps
    out["serve.store.cache_key_ms"] = median_ms(
        lambda: cache_key(source, sizes, domain, GTX280), n)

    def misses(service: CompileService) -> float:
        def one() -> None:
            payload, verdict = service.handle_compile(request)
            expect(verdict == "miss" and payload["ok"],
                   f"wanted an ok miss, got {verdict}")
            service.store.delete(payload["key"])
        return median_ms(one, max(2, reps))

    inline = CompileService(
        ArtifactStore(tempfile.mkdtemp(prefix="inline-", dir=tmp)),
        pool=WorkerPool(0))
    try:
        out["serve.service.miss_inline_ms"] = misses(inline)
        payload, _ = inline.handle_compile(request)
        out["serve.service.hit_ms"] = median_ms(
            lambda: inline.handle_compile(request), n)
        store = ArtifactStore(tempfile.mkdtemp(prefix="store-", dir=tmp))
        keys = [cache_key(source, sizes, domain, GTX280, extra={"i": i})
                for i in range(n)]
        out["serve.store.put_ms"] = statistics.median(
            seconds(lambda k=k: store.put(k, payload))[0]
            for k in keys) * 1e3
        out["serve.store.get_ms"] = statistics.median(
            seconds(lambda k=k: store.get(k))[0] for k in keys) * 1e3
    finally:
        inline.close()

    spawn_s, pool = seconds(lambda: WorkerPool(WIDTH))
    pooled = CompileService(
        ArtifactStore(tempfile.mkdtemp(prefix="pooled-", dir=tmp)),
        pool=pool)
    try:
        out["serve.pool.spawn_ms"] = spawn_s * 1e3
        out["serve.service.miss_pool_ms"] = misses(pooled)
    finally:
        pooled.close()
    out["serve.pool.handoff_ms"] = (out["serve.service.miss_pool_ms"]
                                    - out["serve.service.miss_inline_ms"])

    store_dir = tempfile.mkdtemp(prefix="http-", dir=tmp)
    daemon = Daemon(WIDTH, store_dir)
    try:
        client = daemon.client
        first = client.compile(request)
        expect(first.ok and first.cache == "miss",
               f"first request: {first.status} {first.cache}")
        out["serve.artifact.bytes"] = len(first.body)
        replies = []
        hit_ms = [seconds(lambda: replies.append(
            client.compile(request)))[0] * 1e3 for _ in range(20 * n)]
        expect(all(r.cache == "hit" for r in replies), "a hit missed")
        out["serve.http.hit_ms"] = statistics.median(hit_ms)
        out["serve.http.hit_p99_ms"] = percentile(hit_ms, 99)
        out["serve.http.overhead_ms"] = (out["serve.http.hit_ms"]
                                         - out["serve.service.hit_ms"])
        out["serve.http.metrics_ms"] = median_ms(
            lambda: urllib.request.urlopen(daemon.url + "/metrics",
                                           timeout=30).read(), n)

        # A burst of duplicate in-flight requests for one unseen key.
        burst = request_for("strsm", probe_scale("strsm"))
        threads = [threading.Thread(
            target=lambda: replies.append(client.compile(burst)))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        published = daemon.metrics()
        out["serve.coalesced_ratio"] = _series_total(
            published, "repro_cache_requests_total",
            verdict="coalesced") / len(threads)
        waits = "repro_pool_queue_wait_seconds"
        out["serve.pool.queue_wait_ms"] = (
            _series_total(published, waits, "sum") * 1e3
            / _series_total(published, waits, "count"))
        out["serve.store.bytes_per_entry"] = (
            _series_total(published, "repro_store_bytes")
            / _series_total(published, "repro_store_entries"))
        out["serve.trace_files.bytes_per_request"] = (
            _dir_bytes(os.path.join(store_dir, "traces"))
            / _series_total(published, "repro_requests_total"))
        out["serve.client.retries"] = sum(r.attempts - 1 for r in replies)
    finally:
        daemon.stop()
    return out


# ---------------------------------------------------------------------------
# explore, fuzz
# ---------------------------------------------------------------------------

def probe_explore() -> Metrics:
    # Untimed first sweeps fill the compiler's lazy state, so that the
    # serial sweep is not charged for it and the forked pool spared.
    versions = [v for name in ("mm", "tp")
                for v in sweep(name, probe_scale(name), 0, NO_TRACE).versions]
    rates = {}
    for workers in (0, WIDTH):
        spent, result = seconds(
            lambda: sweep("mm", probe_scale("mm"), workers, NO_TRACE))
        rates[workers] = len(result.versions) / spent
    return {"explore.serial.candidates_per_s": rates[0],
            "explore.pool.candidates_per_s": rates[WIDTH],
            "explore.pool_speedup": rates[WIDTH] / rates[0],
            "explore.infeasible_ratio":
                sum(not v.feasible for v in versions) / len(versions)}


#: One oracle flag each, on top of a plain lockstep oracle.
FUZZ_FLAGS = {
    "lockstep": OracleOptions(backend="lockstep"),
    "auto": OracleOptions(backend="auto"),
    "both": OracleOptions(backend="both"),
    "profile": OracleOptions(backend="lockstep", check_profile=True),
    "dataflow": OracleOptions(backend="lockstep", check_dataflow=True),
    "schedules1": OracleOptions(backend="lockstep", schedules=1),
}

#: ``generate_case(0, i)``: a guarded, a colwalk and a transpose case.
FUZZ_CASES = (2, 12, 19)


def probe_fuzz() -> Metrics:
    out: Metrics = {}
    spent, _ = seconds(lambda: [generate_case(0, i) for i in range(64)])
    out["fuzz.generate.ms_per_case"] = spent * 1e3 / 64
    cases = [generate_case(0, i) for i in FUZZ_CASES]
    statuses: List[str] = []
    for flag, options in FUZZ_FLAGS.items():
        spent, results = seconds(
            lambda: [run_case(c, options) for c in cases])
        out[f"fuzz.oracle.{flag}.cases_per_s"] = len(cases) / spent
        statuses += [r.status for r in results]
    out["fuzz.rejected_ratio"] = statuses.count("rejected") / len(statuses)
    return out


def run_probes(tmp, reps: int) -> Metrics:
    """Every per-layer metric except the two ``bench.*`` ones, which
    come from the workloads' own traced passes."""
    out = probe_compile(reps)
    out.update(probe_sim(reps))
    out.update(probe_serve(tmp, reps))
    out.update(probe_explore())
    out.update(probe_fuzz())
    return out

