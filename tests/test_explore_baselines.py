"""Design-space exploration, baselines, machines, and the suite registry."""

import numpy as np
import pytest

from repro.explore import autotune, explore
from repro.kernels.baselines import BASELINES, rd_cublas
from repro.kernels.naive import body_loc
from repro.kernels.suite import ALGORITHMS, get_algorithm, table1_rows
from repro.machine import GTX280, GTX8800, machine

SIZES = {"n": 256, "m": 256, "w": 256}


class TestExplore:
    def test_sweep_covers_the_grid(self, mm_source):
        res = explore(mm_source, SIZES, (256, 256), GTX280,
                      block_factors=(4, 8), thread_factors=(1, 4))
        assert len(res.versions) == 4
        assert {(v.block_merge, v.thread_merge) for v in res.versions} == \
            {(4, 1), (4, 4), (8, 1), (8, 4)}

    def test_best_is_feasible_minimum(self, mm_source):
        res = explore(mm_source, SIZES, (256, 256), GTX280,
                      block_factors=(4, 8, 16), thread_factors=(1, 4, 8))
        feasible = [v for v in res.versions if v.feasible]
        assert res.best.time_s == min(v.time_s for v in feasible)

    def test_infeasible_space_raises(self, mv_source):
        # A 32-block merge makes mv's column tile exceed shared memory;
        # with no other candidates the whole space is infeasible.
        from repro.passes.base import PassError
        with pytest.raises(PassError):
            explore(mv_source, {"n": 2048, "w": 2048}, (2048, 1), GTX280,
                    block_factors=(32,), thread_factors=(1,))

    def test_infeasible_versions_recorded_alongside_feasible(
            self, mv_source):
        res = explore(mv_source, {"n": 2048, "w": 2048}, (2048, 1), GTX280,
                      block_factors=(8, 32), thread_factors=(1,))
        infeasible = [v for v in res.versions if not v.feasible]
        assert infeasible and all(v.error for v in infeasible)
        assert res.best.block_merge == 8

    def test_autotune_returns_runnable_kernel(self, mm_source, rng):
        sizes = {"n": 64, "m": 64, "w": 64}
        ck = autotune(mm_source, sizes, (64, 64), GTX280,
                      block_factors=(2, 4), thread_factors=(1, 4))
        a = rng.random((64, 64), dtype=np.float32)
        b = rng.random((64, 64), dtype=np.float32)
        arrays = {"a": a, "b": b, "c": np.zeros((64, 64), np.float32)}
        ck.run(arrays)
        np.testing.assert_allclose(arrays["c"], a @ b, rtol=1e-4)

    def test_grid_accessor(self, mm_source):
        res = explore(mm_source, SIZES, (256, 256), GTX280,
                      block_factors=(4,), thread_factors=(1, 4))
        grid = res.grid()
        assert (4, 1) in grid and (4, 4) in grid


class TestMachines:
    def test_lookup(self):
        assert machine("GTX280") is GTX280
        with pytest.raises(KeyError):
            machine("RTX9999")

    def test_camping_stride(self):
        assert GTX280.camping_stride_bytes == 8 * 256
        assert GTX8800.camping_stride_bytes == 6 * 256

    def test_architectural_contrasts(self):
        assert GTX8800.num_sms < GTX280.num_sms
        assert not GTX8800.relaxed_coalescing
        assert GTX280.relaxed_coalescing

    def test_peak_gflops_reasonable(self):
        assert 300 < GTX8800.peak_gflops < 400
        assert 550 < GTX280.peak_gflops < 700


class TestSuiteRegistry:
    def test_ten_algorithms(self):
        assert len(ALGORITHMS) == 10
        assert set(ALGORITHMS) == {"tmv", "mm", "mv", "vv", "rd", "strsm",
                                   "conv", "tp", "demosaic",
                                   "imregionmax"}

    def test_loc_close_to_paper(self):
        for row in table1_rows():
            assert row["loc"] <= row["paper_loc"] + 8

    def test_body_loc_counts_body_only(self):
        src = "__global__ void f(int n) {\n int a = 1;\n\n int b = 2;\n}"
        assert body_loc(src) == 2

    def test_get_algorithm_error(self):
        with pytest.raises(KeyError):
            get_algorithm("nope")

    def test_workloads_match_reference_shapes(self, rng):
        for name, algo in ALGORITHMS.items():
            sizes = algo.sizes(algo.test_scale)
            arrays = algo.make_arrays(rng, sizes)
            ref = algo.reference(arrays, sizes)
            assert ref  # at least one output
            for v in arrays.values():
                assert v.dtype in (np.float32, np.int32)


class TestBaselines:
    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_baseline_matches_reference(self, name, rng):
        b = BASELINES[name]
        algo = ALGORITHMS[b.algorithm]
        sizes = algo.sizes(64)
        arrays = algo.make_arrays(rng, sizes)
        work = {k: v.copy() for k, v in arrays.items()}
        b.run(work, sizes)
        for out, expected in algo.reference(arrays, sizes).items():
            np.testing.assert_allclose(work[out], expected, rtol=5e-3,
                                       atol=1e-5, err_msg=f"{name}:{out}")

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_baseline_estimates(self, name):
        b = BASELINES[name]
        algo = ALGORITHMS[b.algorithm]
        sizes = algo.sizes(1024)
        est = b.estimate(sizes, GTX280)
        assert 0 < est.time_s < 10.0

    def test_rd_cublas_functional(self, rng):
        data = rng.random(1 << 13, dtype=np.float32)
        cr = rd_cublas(len(data), GTX280)
        result = cr.run(data.copy())
        assert abs(result - data.sum()) / data.sum() < 1e-3
