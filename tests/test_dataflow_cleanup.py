"""Pins for the proof-carrying cleanup pass and its pipeline wiring.

Every deletion must be provable, traced, and behavior-preserving: the
guard/barrier goes away only when the dataflow engine proves it
redundant under the exact launch configuration, the proof rides into the
compilation trace as a ``proof`` event, and the outputs stay bit-exact
on both simulator backends with cleanup on or off.
"""

import numpy as np
import pytest

from repro.analysis.dataflow import (
    RULE_BARRIER_PRIVATE,
    RULE_GUARD_TRUE,
)
from repro.compiler import CompileOptions, compile_kernel
from repro.kernels.suite import ALGORITHMS
from repro.lang.parser import parse_kernel
from repro.lang.printer import print_kernel
from repro.machine import GTX280
from repro.obs.trace import Tracer
from repro.passes.simplify import cleanup_kernel
from repro.reduction import compile_reduction


class TestCleanupKernel:
    def test_always_true_guard_removed_with_proof(self):
        kernel = parse_kernel("""
__global__ void k(float a[n], int n) {
    if (idx < n) {
        a[idx] = 0.0f;
    }
}
""")
        tracer = Tracer()
        result = cleanup_kernel(kernel, {"n": 512}, (256, 1), (2, 1),
                                tracer=tracer)
        assert result.guards_removed == 1
        assert result.barriers_removed == 0
        (proof,) = result.proofs
        assert proof.rule == RULE_GUARD_TRUE
        assert "always True" in proof.evidence
        assert "if" not in print_kernel(kernel)
        # The deletion is a first-class trace event carrying the proof.
        (event,) = [e for e in tracer.events if e.kind == "proof"]
        assert event.details["proof"]["rule"] == RULE_GUARD_TRUE

    def test_ragged_guard_kept(self):
        kernel = parse_kernel("""
__global__ void k(float a[n], int n) {
    if (idx < n) {
        a[idx] = 0.0f;
    }
}
""")
        result = cleanup_kernel(kernel, {"n": 500}, (256, 1), (2, 1))
        assert not result.changed
        assert "if" in print_kernel(kernel)

    def test_redundant_barrier_removed(self):
        kernel = parse_kernel("""
__global__ void k(float a[n], int n) {
    __shared__ float s[256];
    s[tidx] = a[idx];
    __syncthreads();
    a[idx] = s[tidx] * 2.0f;
}
""")
        result = cleanup_kernel(kernel, {"n": 256}, (256, 1), (1, 1))
        assert result.barriers_removed == 1
        (proof,) = result.proofs
        assert proof.rule == RULE_BARRIER_PRIVATE
        assert "__syncthreads" not in print_kernel(kernel)

    def test_adjacent_barriers_remove_only_one(self):
        # Each of two adjacent barriers is redundant *alone*; cleanup
        # must keep one of them or the cross-thread exchange races.
        kernel = parse_kernel("""
__global__ void k(float a[n], int n) {
    __shared__ float s[256];
    s[tidx] = a[idx];
    __syncthreads();
    __syncthreads();
    a[idx] = s[255 - tidx];
}
""")
        result = cleanup_kernel(kernel, {"n": 256}, (256, 1), (1, 1))
        assert result.barriers_removed == 1
        assert print_kernel(kernel).count("__syncthreads") == 1

    def test_guard_with_memory_access_kept(self):
        # Conditions that touch memory are never folded: deleting them
        # would change the access counters the perf model reports.
        kernel = parse_kernel("""
__global__ void k(float a[n], int n) {
    if (a[0] < 1000.0f) {
        a[idx] = 0.0f;
    }
}
""")
        result = cleanup_kernel(kernel, {"n": 512}, (256, 1), (2, 1))
        assert not result.changed


class TestPipelineIntegration:
    def _outputs(self, name, options, backend, seed=7):
        algo = ALGORITHMS[name]
        sizes = algo.sizes(algo.test_scale)
        ck = compile_kernel(algo.source, sizes, algo.domain(sizes),
                            GTX280, options)
        rng = np.random.default_rng(seed)
        work = algo.make_arrays(rng, sizes)
        ck.run(work, backend=backend)
        return work

    def test_cleanup_is_bit_exact_on_both_backends(self):
        for name in ("mm", "tp"):
            for backend in ("lockstep", "vectorized"):
                off = self._outputs(name, CompileOptions(
                    enable_cleanup=False), backend)
                on = self._outputs(name, CompileOptions(
                    enable_cleanup=True), backend)
                for key in off:
                    np.testing.assert_array_equal(
                        off[key], on[key], err_msg=f"{name}:{backend}:{key}")
        # rd at the smallest size whose stage-1 guard cleanup deletes.
        from repro.kernels.naive import RD
        n = 1 << 13
        data = np.random.default_rng(7).random(n, dtype=np.float32)
        off, on = (compile_reduction(RD, n, GTX280, cleanup=enabled)
                   for enabled in (False, True))
        assert "pos < n" not in on.stage1_source
        for backend in ("lockstep", "vectorized"):
            assert (np.float32(off.run(data.copy(), backend=backend))
                    == np.float32(on.run(data.copy(), backend=backend))), \
                f"rd:{backend}"

    def test_cleanup_can_be_disabled(self):
        algo = ALGORITHMS["mm"]
        sizes = algo.sizes(algo.test_scale)
        ck = compile_kernel(algo.source, sizes, algo.domain(sizes), GTX280,
                            CompileOptions(enable_cleanup=False))
        assert all(e.pass_name != "cleanup" or e.kind != "proof"
                   for e in ck.trace.events)


#: Exact cleanup counts per kernel and scale: (guards removed, barriers
#: removed) from the trace / proof log, then vectorized-profile
#: (branch_evals, barriers) with cleanup off and on.  mm and tp are
#: honest zeros; rd at a power of two loses its stage-1 guard, one
#: branch per element.
CLEANUP_COUNTS = [
    ("mm", 64, (0, 0), (21504, 2048), (21504, 2048)),
    ("tp", 256, (0, 0), (0, 65536), (0, 65536)),
    ("rd", 1 << 15, (1, 0), (44288, 11520), (11520, 11520)),
]


def _cleanup_counts(name, scale, enabled):
    """(removed, (branch_evals, barriers)) for one compile of ``name``."""
    algo = ALGORITHMS[name]
    sizes = algo.sizes(scale)
    arrays = algo.make_arrays(np.random.default_rng(0xDF10), sizes)
    if algo.uses_global_sync:
        cr = compile_reduction(algo.source, scale, GTX280, cleanup=enabled)
        proofs = [line for line in cr.log if line.startswith("cleanup:")]
        removed = (sum("guard" in p for p in proofs),
                   sum("barrier" in p for p in proofs))
        collected = []
        cr.run(arrays["a"], backend="vectorized", profile=collected)
        profiles = [p for _, p in collected]
    else:
        ck = compile_kernel(algo.source, sizes, algo.domain(sizes), GTX280,
                            CompileOptions(enable_cleanup=enabled))
        ends = [e.counters for e in ck.trace.events
                if e.kind == "span_end" and e.counters]
        removed = tuple(sum(int(c.get(key, 0)) for c in ends)
                        for key in ("guards_removed", "barriers_removed"))
        profiles = [ck.profile(arrays, backend="vectorized")]
    return removed, (sum(p.branch_evals for p in profiles),
                     sum(p.barriers for p in profiles))


@pytest.mark.parametrize("name,scale,removed,off,on", CLEANUP_COUNTS,
                         ids=[row[0] for row in CLEANUP_COUNTS])
def test_cleanup_counts_exact(name, scale, removed, off, on):
    assert _cleanup_counts(name, scale, False) == ((0, 0), off)
    assert _cleanup_counts(name, scale, True) == (removed, on)


class TestReductionGuardElimination:
    def test_exact_size_drops_stage1_guard(self):
        # Exactly-divisible input: every stage-1 thread's strided walk
        # stays in bounds, the engine proves `pos < n` always true, and
        # cleanup deletes the guard (the paper's exact-divisibility
        # specialization, now proof-carrying instead of hand-planned).
        from repro.kernels.naive import RD
        cr = compile_reduction(RD, 1 << 16)
        assert "pos < n" not in cr.stage1_source

    def test_ragged_size_keeps_stage1_guard(self):
        from repro.kernels.naive import RD
        cr = compile_reduction(RD, (1 << 16) - 192)
        assert "pos < n" in cr.stage1_source

    def test_exact_and_ragged_agree_numerically(self):
        from repro.kernels.naive import RD
        for n in (1 << 14, (1 << 14) - 64):
            rng = np.random.default_rng(3)
            a = np.round(rng.uniform(-4, 4, n)).astype(np.float32)
            cr = compile_reduction(RD, n)
            result = cr.run(a.copy())
            assert abs(float(result) - float(a.sum(dtype=np.float64))) \
                <= 1e-2 * max(1.0, abs(float(a.sum(dtype=np.float64))))
