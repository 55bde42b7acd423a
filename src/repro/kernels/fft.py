"""The Section 7 FFT case study: algorithm exploration with the compiler.

The paper's limitations section uses 1-D FFT to show the compiler
*facilitates but cannot replace* algorithm-level exploration:

* the naive kernel does a **2-point** butterfly per thread per
  Cooley-Tukey stage (log2 N passes over the data; 24 GFLOPS measured);
* the compiler's thread merge turns it into an **8-point-per-step**
  kernel built from 2-point pieces (3 stages fused in registers,
  log8 N passes; 41 GFLOPS);
* a hand-written radix-8 kernel computes the same step with fewer
  operations (44 GFLOPS), and restarting the compiler from *that* naive
  kernel reaches 59 GFLOPS.

We implement the first two as runnable kernels on the simulator
(validated against numpy's FFT) and model the hand-8-point variant by its
reduced operation count, reproducing the ordering.

Decimation-in-time Cooley-Tukey over separate re/im arrays; the host
bit-reverses the input once (the paper's kernels do the same outside the
timed loop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.lang.parser import parse_kernel
from repro.machine import GTX280, GpuSpec
from repro.sim.backend import run_kernel
from repro.sim.interp import Launch, LaunchConfig
from repro.sim.perf import estimate, estimate_plan

# One radix-2 DIT butterfly per thread.  For stage half-size h, thread j
# works on pair (base, base + h) with base = (j/h)*2h + j%h and twiddle
# angle -pi * (j%h) / h.
FFT2_STAGE = """
__global__ void fft2(float xr[n], float xi[n], int n, int h) {
    int k = idx % h;
    int base = idx / h * 2 * h + k;
    float ang = 0.0f - 3.14159265358979f * float(k) / float(h);
    float wr = cosf(ang);
    float wi = sinf(ang);
    float br = xr[base + h];
    float bi = xi[base + h];
    float tr = br * wr - bi * wi;
    float ti = br * wi + bi * wr;
    float ar = xr[base];
    float ai = xi[base];
    xr[base] = ar + tr;
    xi[base] = ai + ti;
    xr[base + h] = ar - tr;
    xi[base + h] = ai - ti;
}
"""

# Three consecutive radix-2 stages fused into one thread (the shape the
# compiler's thread merge produces): each thread owns 8 elements spaced h
# apart and performs the stage-h, stage-2h, and stage-4h butterflies in
# registers, writing each element once instead of three times.
FFT8_STEP = """
__global__ void fft8(float xr[n], float xi[n], int n, int h) {
    int k = idx % h;
    int base = idx / h * 8 * h + k;
    float ang = 0.0f - 3.14159265358979f * float(k) / float(4 * h);
    float c4 = cosf(ang);
    float s4 = sinf(ang);
    float c2 = c4 * c4 - s4 * s4;
    float s2 = 2.0f * c4 * s4;
    float c1 = c2 * c2 - s2 * s2;
    float s1 = 2.0f * c2 * s2;
    float rq = 0.70710678118655f;
    float r0 = xr[base];         float i0 = xi[base];
    float r1 = xr[base + h];     float i1 = xi[base + h];
    float r2 = xr[base + 2 * h]; float i2 = xi[base + 2 * h];
    float r3 = xr[base + 3 * h]; float i3 = xi[base + 3 * h];
    float r4 = xr[base + 4 * h]; float i4 = xi[base + 4 * h];
    float r5 = xr[base + 5 * h]; float i5 = xi[base + 5 * h];
    float r6 = xr[base + 6 * h]; float i6 = xi[base + 6 * h];
    float r7 = xr[base + 7 * h]; float i7 = xi[base + 7 * h];
    float tr = r1 * c1 - i1 * s1;
    float ti = r1 * s1 + i1 * c1;
    float a0r = r0 + tr; float a0i = i0 + ti;
    float a1r = r0 - tr; float a1i = i0 - ti;
    tr = r3 * c1 - i3 * s1;
    ti = r3 * s1 + i3 * c1;
    float a2r = r2 + tr; float a2i = i2 + ti;
    float a3r = r2 - tr; float a3i = i2 - ti;
    tr = r5 * c1 - i5 * s1;
    ti = r5 * s1 + i5 * c1;
    float a4r = r4 + tr; float a4i = i4 + ti;
    float a5r = r4 - tr; float a5i = i4 - ti;
    tr = r7 * c1 - i7 * s1;
    ti = r7 * s1 + i7 * c1;
    float a6r = r6 + tr; float a6i = i6 + ti;
    float a7r = r6 - tr; float a7i = i6 - ti;
    tr = a2r * c2 - a2i * s2;
    ti = a2r * s2 + a2i * c2;
    float b0r = a0r + tr; float b0i = a0i + ti;
    float b2r = a0r - tr; float b2i = a0i - ti;
    tr = a3r * s2 + a3i * c2;
    ti = a3i * s2 - a3r * c2;
    float b1r = a1r + tr; float b1i = a1i + ti;
    float b3r = a1r - tr; float b3i = a1i - ti;
    tr = a6r * c2 - a6i * s2;
    ti = a6r * s2 + a6i * c2;
    float b4r = a4r + tr; float b4i = a4i + ti;
    float b6r = a4r - tr; float b6i = a4i - ti;
    tr = a7r * s2 + a7i * c2;
    ti = a7i * s2 - a7r * c2;
    float b5r = a5r + tr; float b5i = a5i + ti;
    float b7r = a5r - tr; float b7i = a5i - ti;
    float c4b = rq * (c4 + s4);
    float s4b = rq * (s4 - c4);
    float c4c = s4;
    float s4c = 0.0f - c4;
    float c4d = rq * (s4 - c4);
    float s4d = 0.0f - rq * (c4 + s4);
    tr = b4r * c4 - b4i * s4;
    ti = b4r * s4 + b4i * c4;
    xr[base] = b0r + tr;         xi[base] = b0i + ti;
    xr[base + 4 * h] = b0r - tr; xi[base + 4 * h] = b0i - ti;
    tr = b5r * c4b - b5i * s4b;
    ti = b5r * s4b + b5i * c4b;
    xr[base + h] = b1r + tr;         xi[base + h] = b1i + ti;
    xr[base + 5 * h] = b1r - tr;     xi[base + 5 * h] = b1i - ti;
    tr = b6r * c4c - b6i * s4c;
    ti = b6r * s4c + b6i * c4c;
    xr[base + 2 * h] = b2r + tr;     xi[base + 2 * h] = b2i + ti;
    xr[base + 6 * h] = b2r - tr;     xi[base + 6 * h] = b2i - ti;
    tr = b7r * c4d - b7i * s4d;
    ti = b7r * s4d + b7i * c4d;
    xr[base + 3 * h] = b3r + tr;     xi[base + 3 * h] = b3i + ti;
    xr[base + 7 * h] = b3r - tr;     xi[base + 7 * h] = b3i - ti;
}
"""


def bit_reverse_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        out[i] = int(format(i, f"0{bits}b")[::-1], 2)
    return out


@dataclass
class FftPlan:
    """A staged FFT execution: which step kernel runs at which h."""

    n: int
    steps: List[Tuple[str, int]]    # (kernel name 'fft2'|'fft8', h)

    @property
    def passes(self) -> int:
        return len(self.steps)


def plan_fft(n: int, radix8: bool) -> FftPlan:
    """Stage plan: pure radix-2, or fused 8-point steps with a radix-2
    tail when log2(n) is not a multiple of 3."""
    stages = int(math.log2(n))
    steps: List[Tuple[str, int]] = []
    h = 1
    remaining = stages
    while remaining > 0:
        # The fused 8-point step only pays off once the strided accesses
        # are segment-aligned (h >= 16); early stages stay 2-point.
        if radix8 and remaining >= 3 and h >= 16:
            steps.append(("fft8", h))
            h *= 8
            remaining -= 3
        else:
            steps.append(("fft2", h))
            h *= 2
            remaining -= 1
    return FftPlan(n=n, steps=steps)


def fft_launches(n: int, radix8: bool) -> List[Launch]:
    """The staged FFT's launches, one per pass.

    :func:`run_fft` executes exactly these and :func:`estimate_fft`
    prices exactly these, so the model prices what the simulator runs.
    """
    kernels = {"fft2": parse_kernel(FFT2_STAGE),
               "fft8": parse_kernel(FFT8_STEP)}
    launches = []
    for name, h in plan_fft(n, radix8).steps:
        threads = n // (2 if name == "fft2" else 8)
        block = min(256, threads)
        launches.append(Launch(name, kernels[name],
                               LaunchConfig(grid=(max(1, threads // block), 1),
                                            block=(block, 1)),
                               {"n": n, "h": h}))
    return launches


def run_fft(data: np.ndarray, radix8: bool = False) -> np.ndarray:
    """Execute the staged FFT on the functional simulator.

    ``data`` is a complex128/complex64 vector whose length is a power of
    two; returns the transform.
    """
    n = len(data)
    perm = bit_reverse_permutation(n)
    xr = np.ascontiguousarray(data.real[perm], dtype=np.float32)
    xi = np.ascontiguousarray(data.imag[perm], dtype=np.float32)
    for launch in fft_launches(n, radix8):
        run_kernel(launch.kernel, launch.config, {"xr": xr, "xi": xi},
                   launch.scalars)
    return xr.astype(np.complex128) + 1j * xi.astype(np.complex128)


def estimate_fft(n: int, radix8: bool,
                 machine: GpuSpec = GTX280) -> float:
    """Predicted total time of the staged FFT (seconds)."""
    return estimate_plan([estimate(launch.kernel, launch.scalars,
                                   launch.config, machine)
                          for launch in fft_launches(n, radix8)],
                         machine).time_s


def fft_gflops(n: int, time_s: float) -> float:
    """The standard 5 n log2(n) flop count for complex FFT."""
    return 5.0 * n * math.log2(n) / time_s / 1e9
