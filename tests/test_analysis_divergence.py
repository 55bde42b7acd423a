"""Barrier-divergence checking (repro.analysis.divergence)."""

from repro.analysis.divergence import check_divergence
from repro.compiler import compile_stages
from repro.kernels.suite import ALGORITHMS
from repro.lang.parser import parse_kernel


def divergence(src):
    return check_divergence(parse_kernel(src))


class TestSeededDivergence:
    def test_barrier_under_tid_guard(self):
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            s[tidx] = a[idx];
            if (tidx < 8) {
                __syncthreads();
            }
            a[idx] = s[tidx];
        }
        """
        diags = divergence(src)
        assert len(diags) == 1
        assert diags[0].severity.name == "ERROR"
        assert "if-condition" in diags[0].message

    def test_barrier_in_tid_trip_loop(self):
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            for (int i = 0; i < tidx; i = i + 1) {
                s[tidx] = a[idx] + i;
                __syncthreads();
            }
            a[idx] = s[tidx];
        }
        """
        diags = divergence(src)
        assert len(diags) == 1
        assert "trip count" in diags[0].message

    def test_taint_flows_through_locals(self):
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            int lane = tidx % 16;
            if (lane == 0) {
                __syncthreads();
            }
            a[idx] = s[lane];
        }
        """
        assert len(divergence(src)) == 1

    def test_assignment_under_divergent_guard_taints(self):
        # Control dependence: m is 2 only in threads tidx < 5, so the
        # loop's trip count differs across the block.
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            int m = 1;
            if (tidx < 5)
                m = 2;
            for (int i = 0; i < m; i = i + 1) {
                s[tidx] = a[idx] + i;
                __syncthreads();
            }
            a[idx] = s[tidx];
        }
        """
        diags = divergence(src)
        assert len(diags) == 1
        assert "trip count" in diags[0].message

    def test_loop_carried_taint(self):
        # m turns thread-dependent at the end of the first outer trip, so
        # the inner loop diverges on the second.
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            int m = 1;
            for (int r = 0; r < 2; r = r + 1) {
                for (int i = 0; i < m; i = i + 1) {
                    s[tidx] = a[idx] + i;
                    __syncthreads();
                }
                m = tidx;
            }
            a[idx] = s[tidx];
        }
        """
        diags = divergence(src)
        assert len(diags) == 1
        assert "trip count" in diags[0].message


class TestUniformBarriers:
    def test_barrier_under_block_uniform_guard(self):
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            s[tidx] = a[idx];
            if (bidx == 0) {
                __syncthreads();
            }
            a[idx] = s[tidx];
        }
        """
        assert divergence(src) == []

    def test_barrier_in_uniform_loop(self):
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            for (int i = 0; i < n; i = i + 16) {
                s[tidx] = a[i + tidx];
                __syncthreads();
            }
            a[idx] = s[tidx];
        }
        """
        assert divergence(src) == []

    def test_untaint_on_uniform_reassignment(self):
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            int v = tidx;
            s[v] = a[idx];
            v = 0;
            if (v < 1) {
                __syncthreads();
            }
            a[idx] = s[tidx];
        }
        """
        assert divergence(src) == []

    def test_loop_local_reset_clears_carried_taint(self):
        # m is redeclared as 1 on every outer trip, so the inner loop runs
        # once in every thread; the trailing m = tidx dies with the trip.
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            for (int r = 0; r < 2; r = r + 1) {
                int m = 1;
                for (int i = 0; i < m; i = i + 1) {
                    s[tidx] = a[idx] + i;
                    __syncthreads();
                }
                m = tidx;
            }
            a[idx] = s[tidx];
        }
        """
        assert divergence(src) == []

    def test_compiled_suite_has_uniform_barriers(self):
        # The guard ifs coalesce_transform emits keep their barriers
        # outside; every compiled stage must stay divergence-free.
        for name in ("mm", "tp", "strsm"):
            alg = ALGORITHMS[name]
            sizes = alg.sizes(alg.test_scale)
            for stage, ck in compile_stages(alg.source, sizes,
                                            alg.domain(sizes)).items():
                diags = check_divergence(ck.kernel, kernel_name=name,
                                         stage=stage)
                assert diags == [], f"{name} {stage}: {diags}"
