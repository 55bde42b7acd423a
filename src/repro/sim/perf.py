"""The analytic performance model.

Combines the static cost profile (:mod:`repro.sim.timing`), the occupancy
calculator, and the machine description into a launch-time estimate::

    T = max(T_compute, T_bandwidth, T_latency)

* ``T_compute``   — warp instruction issue: a 32-thread warp occupies the
  SM's 8 SPs for 4 cycles per instruction; shared-memory bank conflicts
  serialize further.
* ``T_bandwidth`` — per-access traffic (transactions x transaction size)
  over the effective bandwidth, which is scaled by the vector-type gain
  (Section 2a) and divided by the access's partition imbalance
  (Section 3.7: camped requests queue on one partition).
* ``T_latency``   — each outstanding memory request holds a warp for the
  memory latency; with N resident warps per SM the exposed latency is
  ``requests_per_sm * L / N`` (the MWP-style bound the paper cites from
  Hong & Kim).

Absolute numbers are simulator estimates; the benchmarks compare *shapes*
against the paper (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.lang.astnodes import Kernel
from repro.machine import GTX280, GpuSpec
from repro.sim.interp import Launch, LaunchConfig
from repro.sim.occupancy import Occupancy, compute_occupancy, \
    estimate_registers
from repro.sim.timing import analyze_kernel

_WARP_ISSUE_CYCLES = 4          # 32 threads over 8 SPs
_SHARED_ACCESS_CYCLES = 2.0     # per conflict-free shared access, per thread
# Independent outstanding requests one warp keeps in flight (loads of one
# iteration pipeline; only dependent uses stall).
_MEMORY_PARALLELISM = 4.0


@dataclass
class PerfEstimate:
    """The model's output for one kernel launch."""

    machine: str
    config: LaunchConfig
    time_s: float
    compute_s: float
    bandwidth_s: float
    latency_s: float
    bound_by: str                     # 'compute' | 'bandwidth' | 'latency'
    occupancy: Occupancy
    total_bytes: float
    total_transactions: float
    partition_factor: float           # traffic-weighted imbalance
    registers_per_thread: int
    shared_bytes_per_block: int

    def gflops(self, flops: float) -> float:
        return flops / self.time_s / 1e9 if self.time_s > 0 else 0.0


def shared_bytes_of(kernel: Kernel, sizes: Mapping[str, int]) -> int:
    from repro.lang.astnodes import DeclStmt, walk_stmts
    total = 0
    for stmt in walk_stmts(kernel.body):
        if isinstance(stmt, DeclStmt) and stmt.shared:
            elems = 1
            for d in stmt.dims:
                elems *= d if isinstance(d, int) else sizes.get(d, 1)
            total += elems * stmt.type.size_bytes
    return total


def estimate(kernel: Kernel, sizes: Mapping[str, int], config: LaunchConfig,
             machine: GpuSpec = GTX280,
             registers: Optional[int] = None,
             vector_lanes: int = 1) -> PerfEstimate:
    """Estimate one launch's execution time on ``machine``."""
    stats = analyze_kernel(kernel, sizes, config, machine)
    regs = registers if registers is not None else \
        estimate_registers(kernel)
    shared_bytes = shared_bytes_of(kernel, sizes)
    occ = compute_occupancy(machine, config, shared_bytes, regs)
    total_threads = config.total_threads
    clock_hz = machine.core_clock_ghz * 1e9

    # -- compute time ------------------------------------------------------
    warp_insts = stats.alu_ops_per_thread            # per thread ~= per lane
    shared_cycles = stats.shared_cycles_per_thread * _SHARED_ACCESS_CYCLES
    cycles_per_thread = warp_insts * _WARP_ISSUE_CYCLES / machine.warp_size \
        * machine.warp_size + shared_cycles
    # Per warp, issuing one instruction costs 4 SP-cycles; aggregate over
    # all warps and spread over the SMs.
    total_warps = max(1, total_threads // machine.warp_size)
    compute_cycles_total = (stats.alu_ops_per_thread * _WARP_ISSUE_CYCLES
                            + shared_cycles) * total_warps
    compute_s = compute_cycles_total / machine.num_sms / clock_hz

    # -- bandwidth time ----------------------------------------------------
    lanes_gain = machine.vector_bandwidth_gain.get(vector_lanes, 1.0)
    bw = machine.mem_bandwidth_gbps * 1e9 * lanes_gain
    total_bytes = 0.0
    weighted_time = 0.0
    total_transactions = 0.0
    for t in stats.global_traffic:
        b = t.total_bytes(total_threads)
        total_bytes += b
        weighted_time += b * t.partition_imbalance / bw
        total_transactions += t.total_transactions(total_threads)
    bandwidth_s = weighted_time
    partition_factor = (max(1.0, weighted_time * bw / total_bytes)
                        if total_bytes > 0 else 1.0)

    # -- register spilling ---------------------------------------------------
    # When one block's registers exceed the file, the excess lives in
    # (off-chip) local memory; every spilled value costs extra instructions
    # and latency (this is the cliff that caps the merge factors the
    # empirical search can profitably pick, Section 4.1).
    affordable = machine.registers_per_sm // max(1,
                                                 config.threads_per_block)
    spilled = max(0, regs - affordable)
    spill_factor = 1.0 + 0.2 * spilled
    compute_s *= spill_factor

    # -- latency time ------------------------------------------------------
    warps_resident = max(1, occ.warps_per_sm)
    requests_per_sm = total_transactions / machine.num_sms
    latency_s = (requests_per_sm * machine.mem_latency_cycles
                 / warps_resident / _MEMORY_PARALLELISM / clock_hz)
    latency_s *= spill_factor

    time_s = max(compute_s, bandwidth_s, latency_s, 1e-12)
    bound = {compute_s: "compute", bandwidth_s: "bandwidth",
             latency_s: "latency"}[max(compute_s, bandwidth_s, latency_s)]
    return PerfEstimate(
        machine=machine.name, config=config, time_s=time_s,
        compute_s=compute_s, bandwidth_s=bandwidth_s, latency_s=latency_s,
        bound_by=bound, occupancy=occ, total_bytes=total_bytes,
        total_transactions=total_transactions,
        partition_factor=partition_factor,
        registers_per_thread=regs, shared_bytes_per_block=shared_bytes)


def estimate_launch(launch: Launch, machine: GpuSpec) -> PerfEstimate:
    """Estimate one :class:`~repro.sim.interp.Launch` (no launch overhead)."""
    return estimate(launch.kernel, launch.scalars, launch.config, machine,
                    registers=launch.registers,
                    vector_lanes=launch.vector_lanes)


def estimate_plan(estimates: Sequence[PerfEstimate],
                  machine: GpuSpec) -> PerfEstimate:
    """Total time of a multi-launch program: the sum over its launches'
    estimates of each one's time plus the machine's launch overhead.

    Returns the first launch's estimate carrying the summed time.
    """
    first = estimates[0]
    first.time_s = sum(est.time_s + machine.launch_overhead_s
                       for est in estimates)
    return first


def estimate_compiled(compiled, machine: Optional[GpuSpec] = None,
                      ) -> PerfEstimate:
    """Estimate a :class:`repro.compiler.CompiledKernel`'s launch."""
    (launch,) = compiled.launch_plan()
    return estimate_launch(launch, machine or compiled.ctx.machine)


def estimate_reduction(compiled_reduction, machine: Optional[GpuSpec] = None,
                       ) -> PerfEstimate:
    """Total time of a fissioned reduction program (sums all launches)."""
    machine = machine or compiled_reduction.machine
    return estimate_plan([estimate_launch(launch, machine)
                          for launch in compiled_reduction.launch_plan()],
                         machine)
