"""The seven ledger workloads.

Each workload turns a seeded ``random.Random`` into inputs (sources,
sizes, arrays, request order), sets itself up, runs *rounds* of a fixed
op list, and checks every op's output outside the timed interval.  The
program under test only ever sees the generated inputs, never the seed.

Why these seven, and why these sizes, is recorded in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.figures import compile_naive
from repro.compiler import compile_kernel
from repro.explore import explore
from repro.fuzz import OracleOptions, generate_case, run_case
from repro.kernels.suite import ALGORITHMS, Algorithm
from repro.lang.parser import parse_kernel
from repro.lang.semantic import check_kernel
from repro.machine import GTX280
from repro.reduction import CompiledReduction, compile_reduction
from repro.serve.client import ServeClient
from repro.serve.daemon import parse_request
from repro.sim.perf import estimate_compiled
from repro.sim.scheduled import make_scheduler

from harness import (NO_TRACE, REPO_ROOT, WIDTH, Op, Round, Tracer,
                     closed_loop, timed)

TABLE1 = list(ALGORITHMS)
NON_REDUCTION = [n for n in TABLE1 if not ALGORITHMS[n].uses_global_sync]


# ---------------------------------------------------------------------------
# Calls into the program, each under a span named after its layer
# ---------------------------------------------------------------------------

def compile_algo(algo: Algorithm, scale: int, tr: Tracer):
    """Source text -> compiled program, default options, GTX280."""
    sizes = algo.sizes(scale)
    if algo.uses_global_sync:
        with tr.span("reduction.compile_reduction"):
            return compile_reduction(algo.source, sizes["n"], GTX280)
    with tr.span("lang.parse_kernel"):
        naive = parse_kernel(algo.source)
    with tr.span("compiler.compile_kernel"):
        return compile_kernel(naive, sizes, algo.domain(sizes), GTX280)


def emitted_sources(compiled) -> Tuple[str, ...]:
    if isinstance(compiled, CompiledReduction):
        return (compiled.stage1_source, compiled.stage2_source)
    return (compiled.source,)


def launch(algo: Algorithm, compiled, work: Dict[str, np.ndarray],
           backend: str, tr: Tracer, sched_seed: int = 0
           ) -> Dict[str, np.ndarray]:
    """One launch of the optimized program; ``work`` mutates in place."""
    with tr.span(f"sim.{backend}.run"):
        if algo.uses_global_sync:
            return {"sum": np.asarray(compiled.run(work["a"],
                                                   backend=backend))}
        scheduler = (make_scheduler("random", sched_seed)
                     if backend == "scheduled" else None)
        compiled.run(work, backend=backend, scheduler=scheduler)
        return work


def reference_outputs(algo: Algorithm, arrays: Dict[str, np.ndarray],
                      sizes: Dict[str, int]) -> Dict[str, np.ndarray]:
    """The NumPy reference (``kernels/reference.py``), which shares no
    code with the compiler.  test_ledger.py swaps in a wrong one to show
    that the checker can fail."""
    return algo.reference(arrays, sizes)


def matches_reference(algo: Algorithm, arrays: Dict[str, np.ndarray],
                      sizes: Dict[str, int],
                      outputs: Dict[str, np.ndarray]) -> bool:
    expected = reference_outputs(algo, arrays, sizes)
    return all(np.allclose(outputs[name], want, rtol=algo.rtol, atol=1e-5)
               for name, want in expected.items())


def digest(arrays: Dict[str, np.ndarray]) -> str:
    """Bit-exact identity of every array a launch touched."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def reparses(source: str) -> bool:
    try:
        check_kernel(parse_kernel(source), mode="optimized")
        return True
    except Exception:
        return False


def copy_arrays(arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {k: v.copy() for k, v in arrays.items()}


def speedup_over_naive(algo: Algorithm, scale: int,
                       optimized_time_s: float) -> float:
    """Analytic-model time of the naive kernel over the emitted one's
    (simulated seconds on GTX280; base = naive)."""
    naive = estimate_compiled(compile_naive(algo, scale, GTX280))
    return naive.time_s / optimized_time_s


# ---------------------------------------------------------------------------
# Workload interface
# ---------------------------------------------------------------------------

class Workload:
    """One named workload (see module docstring).

    ``unit`` is what ``work_per_s`` counts.  ``tail_pct`` is the
    percentile ``op_tail_ms`` reports.  A round mixes kernels whose
    costs differ by an order of magnitude, so latencies come in bands;
    the percentile is chosen to land inside the slowest band (p90 sits
    on the edge of it wherever one kernel is a tenth of the ops).
    """

    name = ""
    unit = "op"
    tail_pct = 95

    def generate(self, rng: random.Random) -> Any:
        """Inputs from the seed's generator; nothing else sees it."""
        raise NotImplementedError

    def setup(self, inputs: Any, tmp) -> Any:
        """Everything before the warm-up round; returns the state the
        other methods receive."""
        return inputs

    def run_round(self, state: Any, tr: Tracer) -> List[Op]:
        raise NotImplementedError

    def after_round(self, state: Any, ops: List[Op]) -> None:
        """Untimed: shrink payloads to what ``check`` needs."""

    def check(self, state: Any, rounds: List[Round]) -> None:
        """Untimed: set ``op.error`` on every op whose output is wrong."""

    def model_speedup(self, state: Any, rounds: List[Round]
                      ) -> Optional[float]:
        return None

    def process_roots(self, state: Any) -> List[int]:
        return []

    def teardown(self, state: Any) -> None:
        pass


def _fail(op: Op, why: str) -> None:
    if op.error is None:
        op.error = why


# ---------------------------------------------------------------------------
# compile_cold
# ---------------------------------------------------------------------------

class CompileCold(Workload):
    name = "compile_cold"
    unit = "compile"

    def generate(self, rng):
        ops = [(name, scale) for name in TABLE1
               for scale in rng.sample(ALGORITHMS[name].paper_scales, 3)]
        rng.shuffle(ops)
        return {"ops": ops, "array_seed": rng.getrandbits(32)}

    def setup(self, inputs, tmp):
        return dict(inputs, first={})

    def run_round(self, state, tr):
        return [timed(f"{name}@{scale}",
                      lambda a=ALGORITHMS[name], s=scale:
                      compile_algo(a, s, tr), tr)
                for name, scale in state["ops"]]

    def after_round(self, state, ops):
        for op in ops:
            if op.error is None:
                state["first"].setdefault(op.label, op.payload)
                op.payload = emitted_sources(op.payload)

    def check(self, state, rounds):
        first = state["first"]
        bad_label = {label for label, compiled in first.items()
                     if not all(map(reparses, emitted_sources(compiled)))}
        rng = np.random.default_rng(state["array_seed"])
        bad_kernel = set()
        for name in TABLE1:
            algo = ALGORITHMS[name]
            sizes = algo.sizes(algo.test_scale)
            arrays = algo.make_arrays(rng, sizes)
            try:
                compiled = compile_algo(algo, algo.test_scale, NO_TRACE)
                out = launch(algo, compiled, copy_arrays(arrays),
                             "vectorized", NO_TRACE)
                ok = matches_reference(algo, arrays, sizes, out)
            except Exception:
                ok = False
            if not ok:
                bad_kernel.add(name)
        for rnd in rounds:
            for op in rnd.ops:
                if op.error is not None:
                    continue
                if op.label in bad_label:
                    _fail(op, "emitted source does not re-parse")
                elif op.label.split("@")[0] in bad_kernel:
                    _fail(op, "output differs from the NumPy reference")
                elif op.payload != emitted_sources(first[op.label]):
                    _fail(op, "two compiles gave different source")

    def model_speedup(self, state, rounds):
        ratios = []
        for label, compiled in sorted(state["first"].items()):
            name, scale = label.split("@")
            if not ALGORITHMS[name].uses_global_sync:
                ratios.append(speedup_over_naive(
                    ALGORITHMS[name], int(scale),
                    estimate_compiled(compiled).time_s))
        return statistics.geometric_mean(ratios) if ratios else None


# ---------------------------------------------------------------------------
# sim_vectorized, sim_scalar
# ---------------------------------------------------------------------------

#: Mid scales: no launch under 5 ms or over 200 ms on the vectorized
#: backend, so no single kernel owns the round; and the two kernels in
#: the middle (demosaic, tmv) cost the same, so the median op does not
#: hop between them.
VECTORIZED_SCALES = {"tmv": 512, "mm": 128, "mv": 512, "vv": 65536,
                     "rd": 1 << 20, "strsm": 64, "conv": 64, "tp": 512,
                     "demosaic": 224, "imregionmax": 256}

#: Per-thread scales: a 20-launch round is about 0.9 s.
SCALAR_SCALES = {"tmv": 32, "mm": 16, "mv": 32, "vv": 128, "rd": 1024,
                 "strsm": 16, "conv": 16, "tp": 32, "demosaic": 16,
                 "imregionmax": 16}


class Sim(Workload):
    unit = "launch"

    def __init__(self, name: str, backends: Tuple[str, ...],
                 scales: Dict[str, int]):
        self.name = name
        self.backends = backends
        self.scales = scales

    def generate(self, rng):
        order = list(TABLE1)
        rng.shuffle(order)
        return {"order": order, "array_seed": rng.getrandbits(32),
                "sched_seed": rng.getrandbits(16)}

    def setup(self, inputs, tmp):
        rng = np.random.default_rng(inputs["array_seed"])
        programs = {}
        for name in TABLE1:
            algo = ALGORITHMS[name]
            sizes = algo.sizes(self.scales[name])
            programs[name] = (algo, sizes,
                              compile_algo(algo, self.scales[name], NO_TRACE),
                              algo.make_arrays(rng, sizes))
        return dict(inputs, programs=programs, first={})

    def run_round(self, state, tr):
        ops = []
        for name in state["order"]:
            algo, _, compiled, arrays = state["programs"][name]
            for backend in self.backends:
                work = copy_arrays(arrays)
                ops.append(timed(
                    f"{name}/{backend}",
                    lambda w=work, b=backend: launch(
                        algo, compiled, w, b, tr, state["sched_seed"]),
                    tr))
        return ops

    def after_round(self, state, ops):
        for op in ops:
            if op.error is None:
                state["first"].setdefault(op.label, op.payload)
                op.payload = digest(op.payload)

    def check(self, state, rounds):
        want: Dict[str, Optional[str]] = {}
        for name, (algo, sizes, compiled, arrays) in \
                state["programs"].items():
            ok = True
            digests = set()
            for backend in self.backends:
                out = state["first"].get(f"{name}/{backend}")
                if out is None:
                    continue
                ok = ok and matches_reference(algo, arrays, sizes, out)
                digests.add(digest(out))
            if self.backends != ("vectorized",):
                # The same launch on the third backend, untimed.
                out = launch(algo, compiled, copy_arrays(arrays),
                             "vectorized", NO_TRACE)
                digests.add(digest(out))
            want[name] = digests.pop() if ok and len(digests) == 1 else None
        for rnd in rounds:
            for op in rnd.ops:
                if op.error is None and \
                        op.payload != want[op.label.split("/")[0]]:
                    _fail(op, "output differs from the NumPy reference, "
                              "between backends, or between rounds")


# ---------------------------------------------------------------------------
# serve_hit, serve_miss
# ---------------------------------------------------------------------------

def clean_env() -> Dict[str, str]:
    """The daemon's environment: backend and fault knobs scrubbed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_SIM_BACKEND", "REPRO_FAULTS")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


class Daemon:
    """A real ``python -m repro serve`` subprocess in its own process
    group, so ``stop`` can take the workers down with it."""

    def __init__(self, workers: int, store_dir):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(store_dir), "--workers", str(workers)],
            env=clean_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True)
        try:
            banner = self.proc.stdout.readline()
            found = re.search(r"http://\S+", banner)
            if not found:
                raise RuntimeError(f"daemon did not start: {banner!r}")
            self.url = found.group(0)
            self.client = ServeClient(self.url)
            deadline = time.monotonic() + 30
            while self.client.health().status != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon never became ready")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def metrics(self) -> Dict[str, Any]:
        """What the daemon publishes at ``/metrics``."""
        with urllib.request.urlopen(self.url + "/metrics?format=json",
                                    timeout=30) as resp:
            return json.loads(resp.read())["metrics"]

    def stop(self) -> None:
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                self.proc.wait(timeout=10)
                break
            except subprocess.TimeoutExpired:
                continue
        self.proc.stdout.close()
        self.proc.wait()


def request_for(name: str, scale: int) -> Dict[str, Any]:
    algo = ALGORITHMS[name]
    sizes = algo.sizes(scale)
    return {"source": algo.source, "sizes": sizes,
            "domain": list(algo.domain(sizes)), "machine": "GTX280"}


class Serve(Workload):
    unit = "request"
    workers = 1

    def setup(self, inputs, tmp):
        store = tempfile.mkdtemp(prefix="store-", dir=tmp)
        return dict(inputs, daemon=Daemon(self.workers, store), retries=0)

    def process_roots(self, state):
        return [state["daemon"].pid]

    def teardown(self, state):
        state["daemon"].stop()

    def send(self, state, label: str, request: Dict[str, Any],
             tr: Tracer) -> Op:
        def call():
            with tr.span("serve.client.compile"):
                return state["daemon"].client.compile(request)
        op = timed(label, call, tr)
        if op.error is None:
            state["retries"] += op.payload.attempts - 1
        return op


class ServeHit(Serve):
    name = "serve_hit"
    scales = (1024, 2048)
    #: Requests per round: each of the 18 keys ten times.
    repeats = 10

    def generate(self, rng):
        keys = [(name, scale) for name in NON_REDUCTION
                for scale in self.scales]
        return {"keys": keys, "rng": random.Random(rng.getrandbits(64))}

    def setup(self, inputs, tmp):
        state = super().setup(inputs, tmp)
        state["requests"] = {key: request_for(*key) for key in state["keys"]}
        state["bodies"] = {}
        for key, request in state["requests"].items():
            reply = state["daemon"].client.compile(request)
            if not (reply.ok and reply.cache == "miss"):
                self.teardown(state)
                raise RuntimeError(f"set-up compile of {key} failed: "
                                   f"{reply.status} {reply.cache}")
            state["bodies"][key] = reply.body
        return state

    def run_round(self, state, tr):
        order = state["keys"] * self.repeats
        state["rng"].shuffle(order)

        def one(key):
            op = self.send(state, f"{key[0]}@{key[1]}",
                           state["requests"][key], tr)
            if op.error is None:
                reply = op.payload
                if reply.status != 200 or reply.cache != "hit":
                    op.error = f"status {reply.status}, cache {reply.cache}"
                elif reply.body != state["bodies"][key]:
                    op.error = "body differs from the set-up miss"
                op.payload = None
            return op
        return closed_loop(order, one)


class ServeMiss(Serve):
    name = "serve_miss"
    workers = WIDTH
    #: strsm is left to compile_cold: at 300-450 ms by size it decided
    #: each round's wall time, and per-round throughput swung by 25 %.
    kernels = tuple(n for n in NON_REDUCTION if n != "strsm")
    #: Requests per client per round: every kernel this many times, at
    #: a never-seen odd multiple of 16 in the paper's 1k...4k input
    #: range.  Odd, so that every key takes the same path through the
    #: compiler: sizes with more factors of two get other block shapes
    #: (mv costs twice as much at 2048 as at 2064) and made rounds unequal.
    repeats = 2
    #: In-process recompiles cost as much as the timed window, so the
    #: byte-for-byte source check covers every eighth request.
    recompile_every = 8

    def generate(self, rng):
        return {"rng": random.Random(rng.getrandbits(64)), "seen": set()}

    def run_round(self, state, tr):
        rng, seen = state["rng"], state["seen"]
        shares = []
        for _ in range(WIDTH):
            share = []
            for name in self.kernels * self.repeats:
                while True:
                    scale = 16 * rng.randrange(65, 256, 2)
                    if (name, scale) not in seen:
                        break
                seen.add((name, scale))
                share.append((name, scale))
            rng.shuffle(share)
            shares.append(share)
        # closed_loop deals round-robin: interleave the clients' shares.
        dealt = [key for keys in zip(*shares) for key in keys]

        def one(key):
            return self.send(state, f"{key[0]}@{key[1]}",
                             request_for(*key), tr)
        return closed_loop(dealt, one)

    def after_round(self, state, ops):
        for op in ops:
            if op.error is None:
                reply = op.payload
                result = reply.payload.get("result") or {}
                op.payload = {
                    "status": reply.status, "cache": reply.cache,
                    "ok": reply.ok, "source": result.get("source"),
                    "time_s": (result.get("estimate") or {}).get("time_s")}

    def _sampled(self, rounds):
        ops = [op for rnd in rounds for op in rnd.ops if op.error is None]
        return ops[::self.recompile_every]

    def check(self, state, rounds):
        for rnd in rounds:
            for op in rnd.ops:
                if op.error is not None:
                    continue
                got = op.payload
                if not (got["status"] == 200 and got["ok"]
                        and got["cache"] == "miss"):
                    _fail(op, f"status {got['status']}, "
                              f"cache {got['cache']}")
                elif not reparses(got["source"] or ""):
                    _fail(op, "emitted source does not re-parse")
        for op in self._sampled(rounds):
            name, scale = op.label.split("@")
            source, sizes, domain, mach, options, _ = parse_request(
                request_for(name, int(scale)))
            local = compile_kernel(source, sizes, domain, mach, options)
            if local.source != op.payload["source"]:
                _fail(op, "source differs from the in-process compile")

    def model_speedup(self, state, rounds):
        # The first round only: how many rounds fit the time box varies,
        # and an exact metric must not vary with it.
        ratios = []
        for op in rounds[0].ops:
            if op.error is None:
                name, scale = op.label.split("@")
                ratios.append(speedup_over_naive(
                    ALGORITHMS[name], int(scale), op.payload["time_s"]))
        return statistics.geometric_mean(ratios) if ratios else None


# ---------------------------------------------------------------------------
# explore_sweep
# ---------------------------------------------------------------------------

def grid_fingerprint(result) -> Dict[str, Any]:
    """What must be identical between a serial and a pooled sweep."""
    return {"grid": [(v.block_merge, v.thread_merge, v.error,
                      v.estimate.time_s if v.estimate else None,
                      v.source_text) for v in result.versions],
            "winner": (result.best.block_merge, result.best.thread_merge),
            "winner_time_s": result.best.estimate.time_s}


def sweep(name: str, scale: int, workers: int, tr: Tracer):
    algo = ALGORITHMS[name]
    sizes = algo.sizes(scale)
    with tr.span("explore.explore"):
        return explore(algo.source, sizes, algo.domain(sizes), GTX280,
                       measure="model", workers=workers)


class ExploreSweep(Workload):
    name = "explore_sweep"
    unit = "candidate"
    # A dozen sweeps per run, a third of them mm: p80 is an mm sweep.
    tail_pct = 80
    #: mm: 20 feasible candidates, the sweep measured at 0.76x; conv: 20
    #: feasible, cheaper compiles; tp: 16 of 20 end in PassError.
    kernels = ("mm", "conv", "tp")

    def generate(self, rng):
        ops = [(name, 1024) for name in self.kernels]
        rng.shuffle(ops)
        return {"ops": ops}

    def run_round(self, state, tr):
        return [timed(f"{name}@{scale}",
                      lambda n=name, s=scale: sweep(n, s, WIDTH, tr), tr)
                for name, scale in state["ops"]]

    def after_round(self, state, ops):
        for op in ops:
            if op.error is None:
                op.units = len(op.payload.versions)
                op.payload = grid_fingerprint(op.payload)

    def check(self, state, rounds):
        serial = {f"{name}@{scale}":
                  grid_fingerprint(sweep(name, scale, 0, NO_TRACE))
                  for name, scale in state["ops"]}
        for rnd in rounds:
            for op in rnd.ops:
                if op.error is None and op.payload != serial[op.label]:
                    _fail(op, "grid or winner differs from the serial "
                              "sweep")

    def model_speedup(self, state, rounds):
        winners = {op.label: op.payload["winner_time_s"]
                   for rnd in rounds for op in rnd.ops if op.error is None}
        ratios = []
        for label, time_s in sorted(winners.items()):
            name, scale = label.split("@")
            ratios.append(speedup_over_naive(ALGORITHMS[name], int(scale),
                                             time_s))
        return statistics.geometric_mean(ratios) if ratios else None


# ---------------------------------------------------------------------------
# fuzz_campaign
# ---------------------------------------------------------------------------

class FuzzCampaign(Workload):
    name = "fuzz_campaign"
    unit = "case"
    # Two dozen cases per run, an eighth of them the stencil case, the
    # second slowest: p80 lands on it.
    tail_pct = 80
    #: ``generate_case(0, i)`` for one i per grammar shape (elementwise,
    #: guarded, pairwise, broadcast, colwalk, transpose, rowbcast,
    #: stencil).  The corpus is fixed because a case costs between 0.02 s
    #: and 5 s: drawn by seed, cases/s would measure the draw.
    corpus = (1, 2, 3, 5, 12, 24, 36, 46)
    options = OracleOptions(backend="both", check_profile=True)

    def generate(self, rng):
        order = list(self.corpus)
        rng.shuffle(order)
        return {"order": order}

    def run_round(self, state, tr):
        def one(index):
            with tr.span("fuzz.generate_case"):
                case = generate_case(0, index)
            with tr.span("fuzz.run_case"):
                return run_case(case, self.options)
        return [timed(f"case{index}", lambda i=index: one(i), tr)
                for index in state["order"]]

    def after_round(self, state, ops):
        for op in ops:
            if op.error is None:
                op.payload = op.payload.status

    def check(self, state, rounds):
        for rnd in rounds:
            for op in rnd.ops:
                if op.error is None and op.payload != "ok":
                    _fail(op, f"case status {op.payload}")


WORKLOADS: List[Workload] = [
    CompileCold(),
    Sim("sim_vectorized", ("vectorized",), VECTORIZED_SCALES),
    Sim("sim_scalar", ("lockstep", "scheduled"), SCALAR_SCALES),
    ServeHit(),
    ServeMiss(),
    ExploreSweep(),
    FuzzCampaign(),
]

BY_NAME = {w.name: w for w in WORKLOADS}
