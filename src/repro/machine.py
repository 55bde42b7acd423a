"""GPU machine descriptions (paper Sections 2 and 4.2).

The compiler is parameterized by the target's hardware limits — register
file, shared memory, SM count, memory partitions — so the same naive kernel
compiles to different optimized versions per GPU, exactly the
hardware-specific tuning the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class GpuSpec:
    """Architecture parameters of one GPU generation."""

    name: str
    num_sms: int
    sps_per_sm: int
    warp_size: int = 32
    half_warp: int = 16

    # Per-SM resources.
    registers_per_sm: int = 8192        # 32-bit registers
    shared_mem_per_sm: int = 16 * 1024  # bytes
    max_threads_per_sm: int = 768
    max_warps_per_sm: int = 24
    max_blocks_per_sm: int = 8
    max_threads_per_block: int = 512

    # Shared memory banks.
    shared_banks: int = 16

    # Off-chip memory system.
    num_partitions: int = 6
    partition_width_bytes: int = 256
    mem_bandwidth_gbps: float = 86.4    # peak, GB/s
    mem_latency_cycles: int = 500

    # Clocks.
    core_clock_ghz: float = 1.35

    # Host-side cost of one kernel launch (driver + dispatch); the naive
    # grid-synchronized kernels pay this once per halving step.
    launch_overhead_s: float = 5e-6

    # Vectorization behaviour (Section 3.1): NVIDIA prefers float2 with
    # small gains; AMD/ATI gains a lot from float2/float4.
    preferred_vector: int = 2
    vector_bandwidth_gain: Dict[int, float] = field(
        default_factory=lambda: {1: 1.0, 2: 1.03, 4: 0.81})

    # Minimum threads per SM recommended to hide register RAW latency
    # (CUDA programming guide figure quoted in Section 4.1).
    min_threads_for_latency: int = 192

    # G80 (compute 1.0/1.1) serializes any non-perfectly-coalesced half
    # warp into 16 transactions; GT200 (1.2+) coalesces into the minimal
    # set of segments.  This is why the paper's naive kernels run much
    # better on GTX280 (Section 6.2).
    relaxed_coalescing: bool = False

    @property
    def total_sps(self) -> int:
        return self.num_sms * self.sps_per_sm

    @property
    def peak_gflops(self) -> float:
        # MAD (2 flops) per SP per cycle.
        return self.total_sps * self.core_clock_ghz * 2.0

    @property
    def camping_stride_bytes(self) -> int:
        """Strides that are a multiple of this hit one partition
        (partition width * number of partitions, Section 3.7)."""
        return self.partition_width_bytes * self.num_partitions


GTX8800 = GpuSpec(
    name="GTX8800",
    num_sms=16,
    sps_per_sm=8,
    registers_per_sm=8192,          # 32 kB
    shared_mem_per_sm=16 * 1024,
    max_threads_per_sm=768,
    max_warps_per_sm=24,
    num_partitions=6,
    partition_width_bytes=256,
    mem_bandwidth_gbps=86.4,
    core_clock_ghz=1.35,
)

GTX280 = GpuSpec(
    name="GTX280",
    num_sms=30,
    sps_per_sm=8,
    registers_per_sm=16384,         # 64 kB
    shared_mem_per_sm=16 * 1024,
    max_threads_per_sm=1024,
    max_warps_per_sm=32,
    num_partitions=8,
    partition_width_bytes=256,
    mem_bandwidth_gbps=141.7,
    core_clock_ghz=1.296,
    vector_bandwidth_gain={1: 1.0, 2: 1.03, 4: 0.81},
    relaxed_coalescing=True,
)

# AMD/ATI-like target: float2/float4 vectorization pays off strongly
# (HD 5870 sustained 71/98/101 GB/s for float/float2/float4, Section 2).
HD5870 = GpuSpec(
    name="HD5870",
    num_sms=20,
    sps_per_sm=16,
    registers_per_sm=16384,
    shared_mem_per_sm=32 * 1024,
    max_threads_per_sm=1024,
    max_warps_per_sm=32,
    num_partitions=8,
    partition_width_bytes=256,
    mem_bandwidth_gbps=153.6,
    core_clock_ghz=0.85,
    preferred_vector=4,
    vector_bandwidth_gain={1: 1.0, 2: 1.38, 4: 1.42},
    relaxed_coalescing=True,
)

MACHINES: Dict[str, GpuSpec] = {
    "GTX8800": GTX8800,
    "GTX280": GTX280,
    "HD5870": HD5870,
}


def machine(name: str) -> GpuSpec:
    """Look up a machine description by name."""
    try:
        return MACHINES[name]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; available: {sorted(MACHINES)}"
        ) from None
