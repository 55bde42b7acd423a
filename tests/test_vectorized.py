"""Unit tests for the warp-vectorized simulator backend.

The cross-backend *pipeline* contract lives in
``tests/test_backend_differential.py`` (every corpus case, every stage).
This file exercises the vectorized interpreter directly on hand-written
kernels that poke the mechanisms the corpus cannot reach: masked
control flow, ragged loops, fault classification, the static
supported-kernel classifier, and backend dispatch.
"""

import numpy as np
import pytest

from repro.lang.parser import parse_kernel
from repro.sim.backend import (BACKENDS, normalize_backend, run_kernel,
                               set_default_backend)
from repro.sim.interp import (BarrierError, Interpreter, KernelRuntimeError,
                              LaunchConfig)
from repro.sim.vectorized import (UnsupportedKernelError,
                                  VectorizedInterpreter, unsupported_reasons)


def run_both(src, config, arrays, scalars=None):
    """Run ``src`` on both backends; return (lockstep, vectorized) arrays."""
    kernel = parse_kernel(src)
    outs = []
    for backend in ("lockstep", "vectorized"):
        work = {k: v.copy() for k, v in arrays.items()}
        run_kernel(kernel, config, work, scalars, backend=backend)
        outs.append(work)
    return outs


def assert_bit_identical(lk, vk):
    for name in sorted(lk):
        assert (lk[name] == vk[name]).all(), \
            f"array {name!r} differs between backends"


class TestMaskedControlFlow:
    def test_if_else_partition(self):
        src = """
        __global__ void f(float c[16]) {
            if (idx % 2)
                c[idx] = float(idx) * 10.0f;
            else
                c[idx] = 0.0f - float(idx);
        }
        """
        lk, vk = run_both(src, LaunchConfig(grid=(2, 1), block=(8, 1)),
                          {"c": np.zeros(16, np.float32)})
        assert_bit_identical(lk, vk)
        assert lk["c"][3] == 30.0 and lk["c"][4] == -4.0

    def test_nested_if(self):
        src = """
        __global__ void f(float c[16]) {
            c[idx] = 1.0f;
            if (idx < 8) {
                if (idx < 4)
                    c[idx] = 2.0f;
                else
                    c[idx] = 3.0f;
            }
        }
        """
        lk, vk = run_both(src, LaunchConfig(grid=(1, 1), block=(16, 1)),
                          {"c": np.zeros(16, np.float32)})
        assert_bit_identical(lk, vk)

    def test_ragged_thread_dependent_loop(self):
        """Each lane runs a different trip count (live-mask loop)."""
        src = """
        __global__ void f(float c[8]) {
            float sum = 0;
            for (int i = 0; i < tidx + 1; i++)
                sum += float(i);
            c[idx] = sum;
        }
        """
        lk, vk = run_both(src, LaunchConfig(grid=(1, 1), block=(8, 1)),
                          {"c": np.zeros(8, np.float32)})
        assert_bit_identical(lk, vk)
        assert list(lk["c"]) == [0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0]

    def test_ragged_while_loop(self):
        src = """
        __global__ void f(float c[8]) {
            int v = idx;
            int steps = 0;
            while (v > 0) {
                v = v / 2;
                steps = steps + 1;
            }
            c[idx] = float(steps);
        }
        """
        lk, vk = run_both(src, LaunchConfig(grid=(1, 1), block=(8, 1)),
                          {"c": np.zeros(8, np.float32)})
        assert_bit_identical(lk, vk)

    def test_short_circuit_is_per_lane(self):
        """RHS of && must only be evaluated on lanes the LHS left alive."""
        src = """
        __global__ void f(float a[8], float c[8]) {
            if (idx < 4 && a[idx] > 0.0f)
                c[idx] = a[idx];
            else
                c[idx] = 0.0f - 1.0f;
        }
        """
        a = np.array([1, -1, 2, -2, 3, -3, 4, -4], np.float32)
        lk, vk = run_both(src, LaunchConfig(grid=(1, 1), block=(8, 1)),
                          {"a": a, "c": np.zeros(8, np.float32)})
        assert_bit_identical(lk, vk)
        assert list(lk["c"]) == [1.0, -1.0, 2.0, -1.0, -1.0, -1.0, -1.0, -1.0]


class TestUniformValues:
    """Values equal on every lane stay Python scalars until a store under
    a narrower mask makes them lanes; both must read like lockstep."""

    EIGHT = LaunchConfig(grid=(1, 1), block=(8, 1))

    def _agree(self, src, arrays, scalars=None, config=None):
        lk, vk = run_both(src, config or self.EIGHT, arrays, scalars)
        assert_bit_identical(lk, vk)
        return lk

    def test_ragged_loop_iterator_becomes_lanes(self):
        src = """
        __global__ void f(float c[8], float d[8]) {
            int i = 0;
            float sum = 0;
            for (i = 0; i < tidx + 1; i++)
                sum += float(i * i);
            c[idx] = sum;
            d[idx] = float(i);
        }
        """
        out = self._agree(src, {"c": np.zeros(8, np.float32),
                                "d": np.zeros(8, np.float32)})
        assert list(out["d"]) == [float(t + 1) for t in range(8)]
        assert out["c"][3] == 0.0 + 1.0 + 4.0 + 9.0

    def test_uniform_variable_assigned_under_divergent_if(self):
        src = """
        __global__ void f(float c[8], int n) {
            int k = n;
            if (tidx % 2)
                k = k * 2 + 1;
            c[idx] = float(k) / 2;
        }
        """
        out = self._agree(src, {"c": np.zeros(8, np.float32)}, {"n": 3})
        assert list(out["c"]) == [1.5, 3.5] * 4

    def test_variable_declared_inside_divergent_region(self):
        src = """
        __global__ void f(float c[8], int n) {
            c[idx] = 0.0f - 1.0f;
            if (tidx < 3) {
                int t = n + 1;
                for (int i = 0; i < t; i++)
                    t = t - 1;
                c[idx] = float(t);
            }
        }
        """
        out = self._agree(src, {"c": np.zeros(8, np.float32)}, {"n": 5})
        assert list(out["c"]) == [3.0] * 3 + [-1.0] * 5

    def test_varying_value_through_uniform_subscript_last_lane_wins(self):
        src = """
        __global__ void f(float c[8], float d[2][4]) {
            c[0] = float(tidx);
            if (tidx < 5)
                c[1] = float(tidx * 10);
            d[1][2] = float(idx + 100);
        }
        """
        out = self._agree(src, {"c": np.zeros(8, np.float32),
                                "d": np.zeros((2, 4), np.float32)})
        assert out["c"][0] == 7.0 and out["c"][1] == 40.0
        assert out["d"][1][2] == 107.0

    def test_loop_bound_read_through_uniform_subscript(self):
        src = """
        __global__ void f(float c[8], int bounds[2]) {
            float sum = 0;
            for (int i = 0; i < bounds[1]; i++)
                sum += float(i + tidx);
            c[idx] = sum;
        }
        """
        out = self._agree(src, {"c": np.zeros(8, np.float32),
                                "bounds": np.array([9, 4], np.int32)})
        assert list(out["c"]) == [6.0 + 4 * t for t in range(8)]

    @pytest.mark.parametrize("expr,want", [
        ("n != 0 && 12 / n > 1", 0.0),
        ("n == 0 || 12 / n > 1", 1.0),
        ("n != 0 ? 12 / n : 7", 7.0),
        ("n != 0 && a[n + 99] > 0.0f", 0.0),
        ("n == 0 || a[n + 99] > 0.0f", 1.0),
        ("n == 0 ? 7 : a[n + 99]", 7.0),
        ("tidx < 4 && (n != 0 && 12 / n > 1)", 0.0),
    ])
    def test_uniform_short_circuit_guards_faults(self, expr, want):
        src = f"""
        __global__ void f(float a[8], float c[8], int n) {{
            c[idx] = float({expr});
        }}
        """
        out = self._agree(src, {"a": np.ones(8, np.float32),
                                "c": np.full(8, -1, np.float32)}, {"n": 0})
        assert list(out["c"]) == [want] * 8

    def test_unguarded_uniform_faults_are_still_faults(self):
        for expr, error in (("12 / n", ZeroDivisionError),
                            ("12 % n", ZeroDivisionError),
                            ("a[n + 99]", IndexError)):
            src = f"""
            __global__ void f(float a[8], float c[8], int n) {{
                c[idx] = float({expr});
            }}
            """
            messages = []
            for backend in ("lockstep", "vectorized"):
                with pytest.raises(error) as caught:
                    run_kernel(parse_kernel(src), self.EIGHT,
                               {"a": np.ones(8, np.float32),
                                "c": np.zeros(8, np.float32)}, {"n": 0},
                               backend=backend)
                messages.append(str(caught.value))
            assert messages[0] == messages[1]

    def test_one_row_launch_keeps_idy_uniform_and_exact(self):
        """A thread id whose extent is 1 is the uniform 0."""
        src = """
        __global__ void f(float a[1][16], float c[1][16]) {
            c[idy][idx] = a[idy][15 - idx] + float(bidy * 100 + tidy);
        }
        """
        a = np.arange(16, dtype=np.float32).reshape(1, 16)
        out = self._agree(src, {"a": a, "c": np.zeros((1, 16), np.float32)},
                          config=LaunchConfig(grid=(2, 1), block=(8, 1)))
        assert list(out["c"][0]) == list(a[0][::-1])

    def test_uniform_branch_profiles_like_lockstep(self):
        from repro.obs.profile import ProfileCollector
        src = """
        __global__ void f(float a[32], float c[32], int n) {
            if (n > 3) {
                if (tidx % 4 == 0)
                    c[idx] = a[idx];
            } else {
                c[idx] = 0.0f;
            }
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0)
                    c[idx] += 1.0f;
            }
        }
        """
        kernel = parse_kernel(src)
        config = LaunchConfig(grid=(2, 1), block=(16, 1))
        profiles = {}
        for backend in ("lockstep", "vectorized"):
            collector = ProfileCollector(kernel, config)
            used = run_kernel(kernel, config,
                              {"a": np.ones(32, np.float32),
                               "c": np.zeros(32, np.float32)}, {"n": 5},
                              backend=backend, profile=collector)
            profiles[backend] = collector.finalize(used)
        lock, vec = profiles["lockstep"], profiles["vectorized"]
        assert lock.first_mismatch(vec) is None
        assert (lock.branch_evals, lock.branch_taken,
                lock.divergent_branches) == \
            (vec.branch_evals, vec.branch_taken, vec.divergent_branches)
        assert lock.branch_evals == 32 * (2 + 5)
        assert lock.divergent_branches == 2    # the tidx % 4 guard only

    def test_step_budget_counts_every_lane_under_the_full_mask(self):
        src = """
        __global__ void f(float c[8], int n) {
            for (int i = 0; i < n; i++)
                c[idx] += 1.0f;
        }
        """
        interp = VectorizedInterpreter(parse_kernel(src))
        interp.run(self.EIGHT, {"c": np.zeros(8, np.float32)}, {"n": 3})
        # for + init, then (body + update + back-edge) x 3, on 8 lanes.
        assert interp._steps == 8 * (2 + 3 * 3)


class TestSharedMemory:
    def test_block_reverse_through_shared(self):
        src = """
        __global__ void f(float a[32], float c[32]) {
            __shared__ float s[8];
            s[tidx] = a[idx];
            __syncthreads();
            c[idx] = s[7 - tidx];
        }
        """
        a = np.arange(32, dtype=np.float32)
        lk, vk = run_both(src, LaunchConfig(grid=(4, 1), block=(8, 1)),
                          {"a": a, "c": np.zeros(32, np.float32)})
        assert_bit_identical(lk, vk)
        assert list(lk["c"][:8]) == [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]

    def test_uniform_barrier_loop(self):
        """A reduction-tree style barrier-stepped loop (phased loop)."""
        src = """
        __global__ void f(float a[16], float c[16]) {
            __shared__ float s[16];
            s[tidx] = a[idx];
            __syncthreads();
            for (int st = 8; st > 0; st = st / 2) {
                if (tidx < st)
                    s[tidx] += s[tidx + st];
                __syncthreads();
            }
            c[idx] = s[0];
        }
        """
        a = np.arange(16, dtype=np.float32)
        lk, vk = run_both(src, LaunchConfig(grid=(1, 1), block=(16, 1)),
                          {"a": a, "c": np.zeros(16, np.float32)})
        assert_bit_identical(lk, vk)
        assert lk["c"][0] == float(sum(range(16)))


class TestFaultParity:
    CONFIG = LaunchConfig(grid=(1, 1), block=(4, 1))

    def _classify(self, src, arrays, backend):
        kernel = parse_kernel(src)
        work = {k: v.copy() for k, v in arrays.items()}
        try:
            run_kernel(kernel, self.CONFIG, work, backend=backend)
            return None
        except Exception as exc:
            return type(exc).__name__, str(exc)

    @pytest.mark.parametrize("src", [
        "__global__ void f(int c[4]) { c[idx] = 1 / (idx - 2); }",
        "__global__ void f(int c[4]) { c[idx] = 1 % (idx - 2); }",
        "__global__ void f(float c[4]) { c[idx] = c[idx + 4]; }",
        "__global__ void f(float c[4]) { c[idx - 1] = 0.0f; }",
        "__global__ void f(float c[4]) { c[idx] = sqrtf(0.0f - 1.0f); }",
    ], ids=["int-div-zero", "int-mod-zero", "oob-read", "oob-write",
            "sqrt-domain"])
    def test_fault_class_and_message_match(self, src):
        arrays = {"c": np.zeros(4, np.float32)}
        if "int c" in src:
            arrays = {"c": np.zeros(4, np.int32)}
        lk = self._classify(src, arrays, "lockstep")
        vk = self._classify(src, arrays, "vectorized")
        assert lk is not None and vk is not None
        assert lk == vk, f"lockstep={lk} vectorized={vk}"

    def test_runaway_loop_hits_step_budget(self):
        src = """
        __global__ void f(float c[4]) {
            while (1)
                c[idx] = c[idx] + 1.0f;
        }
        """
        interp = VectorizedInterpreter(parse_kernel(src), max_steps=1000)
        with pytest.raises(KernelRuntimeError, match="exceeded"):
            interp.run(self.CONFIG, {"c": np.zeros(4, np.float32)})


class TestUnsupportedKernels:
    COND_BARRIER = """
    __global__ void f(float c[8]) {
        if (tidx < 2)
            __syncthreads();
        c[idx] = 1.0f;
    }
    """

    def test_conditional_barrier_refused(self):
        kernel = parse_kernel(self.COND_BARRIER)
        assert unsupported_reasons(kernel)
        with pytest.raises(UnsupportedKernelError):
            run_kernel(kernel, LaunchConfig(grid=(1, 1), block=(4, 1)),
                       {"c": np.zeros(8, np.float32)}, backend="vectorized")

    def test_auto_falls_back_and_matches_lockstep(self):
        """auto must reproduce lockstep's BarrierError, not refuse."""
        kernel = parse_kernel(self.COND_BARRIER)
        config = LaunchConfig(grid=(1, 1), block=(4, 1))
        for backend in ("lockstep", "auto"):
            with pytest.raises(BarrierError):
                run_kernel(kernel, config,
                           {"c": np.zeros(8, np.float32)}, backend=backend)

    def test_barrier_loop_bound_reading_array_refused(self):
        src = """
        __global__ void f(float c[8], int bounds[1]) {
            __shared__ float s[8];
            for (int i = 0; i < bounds[0]; i++) {
                s[tidx] = c[idx];
                __syncthreads();
            }
        }
        """
        assert unsupported_reasons(parse_kernel(src))

    def test_barrier_loop_bound_from_bdim_allowed(self):
        src = """
        __global__ void f(float c[8]) {
            __shared__ float s[8];
            for (int i = 0; i < bdimx; i++) {
                s[tidx] = c[idx] + float(i);
                __syncthreads();
            }
            c[idx] = s[tidx];
        }
        """
        assert unsupported_reasons(parse_kernel(src)) == []

    def test_barrierless_kernel_always_supported(self):
        src = "__global__ void f(float c[8]) { c[idx] = float(tidx); }"
        assert unsupported_reasons(parse_kernel(src)) == []


class TestDispatch:
    SRC = "__global__ void f(float c[8]) { c[idx] = float(idx); }"
    CONFIG = LaunchConfig(grid=(1, 1), block=(8, 1))

    def _arrays(self):
        return {"c": np.zeros(8, np.float32)}

    def test_backends_tuple(self):
        assert BACKENDS == ("lockstep", "vectorized", "auto", "scheduled")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulator backend"):
            normalize_backend("cuda")
        with pytest.raises(ValueError):
            run_kernel(parse_kernel(self.SRC), self.CONFIG, self._arrays(),
                       backend="warp")

    def test_run_kernel_reports_backend_used(self):
        kernel = parse_kernel(self.SRC)
        assert run_kernel(kernel, self.CONFIG, self._arrays(),
                          backend="lockstep") == "lockstep"
        assert run_kernel(kernel, self.CONFIG, self._arrays(),
                          backend="vectorized") == "vectorized"
        assert run_kernel(kernel, self.CONFIG, self._arrays(),
                          backend="auto") == "vectorized"

    def test_auto_resolves_to_lockstep_on_unsupported(self):
        kernel = parse_kernel(TestUnsupportedKernels.COND_BARRIER)
        config = LaunchConfig(grid=(1, 1), block=(2, 1))
        assert run_kernel(kernel, config, {"c": np.zeros(8, np.float32)},
                          backend="auto") == "lockstep"

    def test_set_default_backend_roundtrip(self):
        previous = set_default_backend("vectorized")
        try:
            assert run_kernel(parse_kernel(self.SRC), self.CONFIG,
                              self._arrays()) == "vectorized"
        finally:
            assert set_default_backend(previous) == "vectorized"

    def test_trace_forces_lockstep_under_auto(self):
        events = []

        def hook(array, addr, is_store, block, thread, site):
            events.append(array)

        kernel = parse_kernel(self.SRC)
        used = run_kernel(kernel, self.CONFIG, self._arrays(),
                          backend="auto", trace=hook)
        assert used == "lockstep"
        assert len(events) == 8

    def test_trace_with_explicit_vectorized_refused(self):
        with pytest.raises(UnsupportedKernelError):
            run_kernel(parse_kernel(self.SRC), self.CONFIG, self._arrays(),
                       backend="vectorized", trace=lambda *a: None)

    def test_vectorized_interpreter_rejects_trace(self):
        with pytest.raises(UnsupportedKernelError):
            VectorizedInterpreter(parse_kernel(self.SRC),
                                  trace=lambda *a: None)


class TestValueParity:
    def test_float2_roundtrip(self):
        src = """
        __global__ void f(float2 a[8], float c[8]) {
            float2 v = a[idx];
            c[idx] = v.x * 2.0f + v.y;
        }
        """
        a = np.arange(16, dtype=np.float32).reshape(8, 2)
        lk, vk = run_both(src, LaunchConfig(grid=(1, 1), block=(8, 1)),
                          {"a": a, "c": np.zeros(8, np.float32)})
        assert_bit_identical(lk, vk)

    def test_make_float2_store(self):
        src = """
        __global__ void f(float2 a[8]) {
            a[idx] = make_float2(float(idx), float(idx) * 3.0f);
        }
        """
        lk, vk = run_both(src, LaunchConfig(grid=(1, 1), block=(8, 1)),
                          {"a": np.zeros((8, 2), np.float32)})
        assert_bit_identical(lk, vk)

    def test_member_store_on_vector_array(self):
        src = "__global__ void f(float2 a[8]) { a[idx].y = float(idx); }"
        lk, vk = run_both(src, LaunchConfig(grid=(1, 1), block=(8, 1)),
                          {"a": np.ones((8, 2), np.float32)})
        assert_bit_identical(lk, vk)

    def test_transcendental_builtins_bit_identical(self):
        """Per-lane libm calls must match lockstep to the last bit."""
        src = """
        __global__ void f(float a[16], float c[16]) {
            c[idx] = sinf(a[idx]) + cosf(a[idx]) * expf(a[idx] * 0.01f)
                   + logf(a[idx] + 1.0f) + floorf(a[idx] * 2.5f);
        }
        """
        a = (np.arange(16, dtype=np.float32) * 0.37).astype(np.float32)
        lk, vk = run_both(src, LaunchConfig(grid=(1, 1), block=(16, 1)),
                          {"a": a, "c": np.zeros(16, np.float32)})
        assert_bit_identical(lk, vk)

    def test_int_truncation_parity(self):
        """C-style truncating division/casts agree for negative values."""
        src = """
        __global__ void f(int c[8]) {
            int v = idx - 4;
            c[idx] = v / 3 + int(float(v) * 0.5f);
        }
        """
        lk, vk = run_both(src, LaunchConfig(grid=(1, 1), block=(8, 1)),
                          {"c": np.zeros(8, np.int32)})
        assert_bit_identical(lk, vk)

    def test_local_arrays_stay_per_thread(self):
        src = """
        __global__ void f(float c[8]) {
            float buf[4];
            for (int i = 0; i < 4; i++)
                buf[i] = float(idx * 10 + i);
            c[idx] = buf[3];
        }
        """
        lk, vk = run_both(src, LaunchConfig(grid=(1, 1), block=(8, 1)),
                          {"c": np.zeros(8, np.float32)})
        assert_bit_identical(lk, vk)

    def test_lockstep_still_reference(self):
        """The plain Interpreter still runs (no dispatch regression)."""
        kernel = parse_kernel(TestDispatch.SRC)
        c = np.zeros(8, np.float32)
        Interpreter(kernel).run(LaunchConfig(grid=(1, 1), block=(8, 1)),
                                {"c": c})
        assert list(c) == [float(i) for i in range(8)]
