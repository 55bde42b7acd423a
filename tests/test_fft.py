"""The Section 7 FFT case study kernels."""

import numpy as np
import pytest

from repro.kernels import fft
from repro.kernels.fft import (bit_reverse_permutation, estimate_fft,
                               fft_gflops, plan_fft, run_fft)
from repro.machine import GTX280
from repro.sim.perf import estimate


class TestPlan:
    def test_radix2_plan_has_log2_passes(self):
        assert plan_fft(1 << 10, radix8=False).passes == 10

    def test_radix8_plan_fuses_late_stages(self):
        plan = plan_fft(1 << 10, radix8=True)
        assert plan.passes < 10
        kinds = [name for name, _ in plan.steps]
        assert "fft8" in kinds
        # Early (misaligned) stages stay radix-2.
        assert plan.steps[0][0] == "fft2"

    def test_bit_reverse_permutation_is_involution(self):
        perm = bit_reverse_permutation(64)
        assert np.array_equal(perm[perm], np.arange(64))


class TestFunctional:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("radix8", [False, True])
    def test_matches_numpy(self, n, radix8, rng):
        data = (rng.standard_normal(n)
                + 1j * rng.standard_normal(n)).astype(np.complex64)
        out = run_fft(data.copy(), radix8=radix8)
        ref = np.fft.fft(data)
        err = np.abs(out - ref).max() / np.abs(ref).max()
        assert err < 2e-4

    def test_impulse_is_flat(self):
        data = np.zeros(128, dtype=np.complex64)
        data[0] = 1.0
        out = run_fft(data)
        np.testing.assert_allclose(out, np.ones(128), atol=1e-5)


class TestSection7Shape:
    def test_merged_kernel_wins(self):
        n = 1 << 18
        t2 = estimate_fft(n, radix8=False, machine=GTX280)
        t8 = estimate_fft(n, radix8=True, machine=GTX280)
        assert t8 < t2              # the paper's 24 -> 41 GFLOPS ordering
        assert fft_gflops(n, t8) > fft_gflops(n, t2)

    @pytest.mark.parametrize("radix8", [False, True])
    def test_run_and_estimate_walk_the_same_launches(self, radix8,
                                                     monkeypatch):
        ran, priced = [], []

        def run(kernel, config, arrays, scalars):
            ran.append((kernel.name, scalars["h"], config))

        def price(kernel, sizes, config, machine):
            priced.append((kernel.name, sizes["h"], config))
            return estimate(kernel, sizes, config, machine)

        monkeypatch.setattr(fft, "run_kernel", run)
        monkeypatch.setattr(fft, "estimate", price)
        n = 1 << 12
        run_fft(np.zeros(n, dtype=np.complex64), radix8=radix8)
        estimate_fft(n, radix8=radix8)
        assert ran == priced
        assert len(ran) == plan_fft(n, radix8).passes

    def test_gflops_formula(self):
        assert fft_gflops(1 << 20, 1.0) == pytest.approx(
            5.0 * (1 << 20) * 20 / 1e9)
