"""The paper's evaluation as one ordered table: :data:`FIGURES`.

There is one :class:`Figure` per file under ``results/``: Table 1,
Figures 10-16 and the Section 7 FFT study, in the paper's order.  An
entry's ``build()`` runs the figure at the paper's scale and returns
``(rows, text)``: the rows the paper's claims are scored on, and the
table saved as ``results/<name>.txt``.  Every number comes from the
analytic timing model, so the text is deterministic.

``tests/test_figures.py`` is the one runner.  It builds every entry once
per session, compares each text byte for byte with ``results/``
(``UPDATE_GOLDEN=1`` rewrites the files), scores the paper's claims over
the rows, and checks that each number EXPERIMENTS.md quotes as measured
is a regenerated cell.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.bench.report import format_table, geomean
from repro.compiler import CompiledKernel, CompileOptions, compile_kernel, \
    compile_stages
from repro.explore import BLOCK_MERGE_FACTORS, THREAD_MERGE_FACTORS, explore
from repro.kernels.baselines import BASELINES, rd_cublas
from repro.kernels.naive import RD, RD_COMPLEX
from repro.kernels.suite import ALGORITHMS, Algorithm, table1_rows
from repro.lang.parser import parse_kernel
from repro.machine import GTX280, GTX8800, GpuSpec
from repro.reduction import compile_reduction
from repro.sim.interp import LaunchConfig
from repro.sim.perf import estimate, estimate_compiled, estimate_reduction

NAIVE_OPTIONS = CompileOptions(
    enable_vectorize=False, enable_coalesce=False, enable_merge=False,
    enable_prefetch=False, enable_partition=False)

_RD_STEP = """
__global__ void rdstep(float a[n], int n, int s) {
    if (idx < s)
        a[idx] += a[idx + s];
}
"""

Rows = List[Dict[str, Any]]


class Figure(NamedTuple):
    """One paper artefact: ``results/<name>.txt`` and how to build it."""

    name: str
    build: Callable[[], Tuple[Any, str]]


def compile_naive(algo: Algorithm, scale: int,
                  machine: GpuSpec) -> CompiledKernel:
    sizes = algo.sizes(scale)
    return compile_kernel(algo.source, sizes, algo.domain(sizes), machine,
                          NAIVE_OPTIONS)


def compile_optimized(algo: Algorithm, scale: int,
                      machine: GpuSpec) -> CompiledKernel:
    sizes = algo.sizes(scale)
    return compile_kernel(algo.source, sizes, algo.domain(sizes), machine)


def _naive_reduction_time(n: int, machine: GpuSpec) -> float:
    """Total time of the naive grid-synchronized reduction: one launch per
    halving step (a grid barrier is a kernel boundary on real hardware)."""
    kernel = parse_kernel(_RD_STEP)
    total = 0.0
    s = n // 2
    while s >= 1:
        threads = max(16, min(n, 1 << int(math.ceil(math.log2(max(s, 1))))))
        block = min(256, threads)
        grid = max(1, threads // block)
        est = estimate(kernel, {"n": n, "s": s},
                       LaunchConfig(grid=(grid, 1), block=(block, 1)),
                       machine)
        total += est.time_s + machine.launch_overhead_s
        s //= 2
    return total


def _optimized_reduction_time(n: int, machine: GpuSpec) -> float:
    return estimate_reduction(compile_reduction(RD, n, machine),
                              machine).time_s


def _table1() -> Tuple[Rows, str]:
    """Table 1; every kernel but rd is also compiled end to end."""
    rows = table1_rows()
    for row, algo in zip(rows, ALGORITHMS.values()):
        row["compiled"] = None if algo.uses_global_sync else \
            compile_optimized(algo, algo.test_scale, GTX280)
    return rows, format_table(
        ["algorithm", "short", "input sizes", "LOC", "paper LOC"],
        [[r["algorithm"], r["short"], r["input"], r["loc"], r["paper_loc"]]
         for r in rows],
        "Table 1: algorithms optimized with the compiler")


def _fig10() -> Tuple[Dict[str, Any], str]:
    """Figure 10: mm over the merge-factor grid, GTX 280, 2k x 2k."""
    algo = ALGORITHMS["mm"]
    sizes = algo.sizes(2048)
    result = explore(algo.source, sizes, algo.domain(sizes), GTX280)
    flops = algo.flops(sizes)
    gflops = {(v.block_merge, v.thread_merge):
              flops / v.time_s / 1e9 if v.feasible else None
              for v in result.versions}
    best = (result.best.block_merge, result.best.thread_merge)

    def cell(bm: int, tm: int) -> str:
        g = gflops[bm, tm]
        return "infeas" if g is None else f"{g:.1f}"

    table = format_table(
        ["merge"] + [f"thread x{tm}" for tm in THREAD_MERGE_FACTORS],
        [[f"block x{bm}"] + [cell(bm, tm) for tm in THREAD_MERGE_FACTORS]
         for bm in BLOCK_MERGE_FACTORS],
        "Figure 10: mm GFLOPS vs merge factors (GTX 280, 2k x 2k)")
    return {"gflops": gflops, "best": best}, f"{table}\nbest: {best}"


def _fig11() -> Tuple[Rows, str]:
    """Figure 11: optimized-over-naive speedups, both GPUs."""
    machines = (GTX8800, GTX280)
    rows: Rows = []
    for name, algo in ALGORITHMS.items():
        row: Dict[str, Any] = {"algorithm": name}
        for machine in machines:
            if algo.uses_global_sync:
                naive_t = _naive_reduction_time(algo.default_scale, machine)
                opt_t = _optimized_reduction_time(algo.default_scale,
                                                  machine)
            else:
                naive_t = estimate_compiled(
                    compile_naive(algo, 2048, machine)).time_s
                opt_t = estimate_compiled(
                    compile_optimized(algo, 2048, machine)).time_s
            row[machine.name] = naive_t / opt_t
        rows.append(row)
    means = [geomean([r[m.name] for r in rows]) for m in machines]
    return rows, format_table(
        ["algorithm", "GTX8800 speedup", "GTX280 speedup"],
        [[r["algorithm"], r["GTX8800"], r["GTX280"]] for r in rows]
        + [["geomean"] + means],
        "Figure 11: optimized-over-naive speedups")


STAGES = ("naive", "+vectorize", "+coalesce", "+merge", "+prefetch",
          "+partition")


def _fig12() -> Tuple[Dict[str, Dict[str, float]], str]:
    """Figure 12: speedup over naive after each cumulative stage.

    rd is excluded (its pipeline is the reduction path); the paper's
    geometric mean includes it, ours is over the other nine kernels.
    """
    data: Dict[str, Dict[str, float]] = {}
    for machine in (GTX8800, GTX280):
        speedups: Dict[str, List[float]] = {s: [] for s in STAGES}
        for algo in ALGORITHMS.values():
            if algo.uses_global_sync:
                continue
            sizes = algo.sizes(2048)
            stages = compile_stages(algo.source, sizes, algo.domain(sizes),
                                    machine)
            naive_t = estimate_compiled(stages["naive"]).time_s
            for stage_name, compiled in stages.items():
                t = estimate_compiled(compiled).time_s
                speedups[stage_name].append(naive_t / t)
        data[machine.name] = {s: geomean(v) for s, v in speedups.items()}
    return data, format_table(
        ["stage"] + list(data),
        [[stage] + [data[m][stage] for m in data] for stage in STAGES],
        "Figure 12: cumulative speedup over naive after each step")


CUBLAS_PAIRS = {
    "tmv": "tmv_cublas",
    "mm": "mm_cublas",
    "mv": "mv_cublas",
    "vv": "vv_cublas",
    "strsm": "strsm_cublas",
}


def _fig13() -> Tuple[Rows, str]:
    """Figure 13: optimized vs CUBLAS 2.2, GTX 280."""
    rows: Rows = []
    for name, baseline_name in CUBLAS_PAIRS.items():
        algo = ALGORITHMS[name]
        baseline = BASELINES[baseline_name]
        for scale in (1024, 2048, 4096):
            sizes = algo.sizes(scale)
            flops = algo.flops(sizes)
            ours = estimate_compiled(compile_optimized(algo, scale, GTX280))
            base = baseline.estimate(sizes, GTX280)
            rows.append({"algorithm": name, "scale": scale,
                         "ours_gflops": flops / ours.time_s / 1e9,
                         "cublas_gflops": flops / base.time_s / 1e9})
    # Reduction: compiler's fissioned tree vs cublasSasum-style baseline.
    for n in (1 << 20, 1 << 22, 1 << 24):
        ours_t = _optimized_reduction_time(n, GTX280)
        base_t = estimate_reduction(rd_cublas(n, GTX280), GTX280).time_s
        rows.append({"algorithm": "rd", "scale": n,
                     "ours_gflops": n / ours_t / 1e9,
                     "cublas_gflops": n / base_t / 1e9})
    for r in rows:
        r["ratio"] = r["ours_gflops"] / r["cublas_gflops"]
    return rows, format_table(
        ["algorithm", "scale", "ours GFLOPS", "CUBLAS GFLOPS", "ratio"],
        [[r["algorithm"], r["scale"], r["ours_gflops"], r["cublas_gflops"],
          r["ratio"]] for r in rows],
        "Figure 13: compiler-optimized kernels vs CUBLAS 2.2 (GTX 280)")


def _fig14() -> Tuple[Rows, str]:
    """Figure 14: complex reduction with and without vectorization."""
    rows: Rows = []
    for n in (1 << 20, 1 << 22, 1 << 24):
        t_vec, t_wo = (estimate_reduction(
            compile_reduction(RD_COMPLEX, n, GTX280, vectorize=vectorize),
            GTX280).time_s for vectorize in (True, False))
        row = {"elements": n, "optimized_gflops": 2 * n / t_vec / 1e9,
               "optimized_wo_vec_gflops": 2 * n / t_wo / 1e9}
        row["gain"] = row["optimized_gflops"] / row["optimized_wo_vec_gflops"]
        rows.append(row)
    return rows, format_table(
        ["elements", "optimized GFLOPS", "optimized_wo_vec GFLOPS", "gain"],
        [[r["elements"], r["optimized_gflops"], r["optimized_wo_vec_gflops"],
          r["gain"]] for r in rows],
        "Figure 14: complex reduction, vectorization effect (GTX 280)")


def _transpose_rows(scales: Sequence[int], machine: GpuSpec) -> Rows:
    algo = ALGORITHMS["tp"]
    rows: Rows = []
    for scale in scales:
        sizes = algo.sizes(scale)
        useful = algo.bytes_moved(sizes)
        ours = estimate_compiled(compile_optimized(algo, scale, machine))
        prev = BASELINES["tp_sdk_prev"].estimate(sizes, machine)
        new = BASELINES["tp_sdk_new"].estimate(sizes, machine)
        naive = estimate_compiled(compile_naive(algo, scale, machine))
        rows.append({
            "scale": scale,
            "naive_gbps": useful / naive.time_s / 1e9,
            "sdk_prev_gbps": useful / prev.time_s / 1e9,
            "sdk_new_gbps": useful / new.time_s / 1e9,
            "optimized_gbps": useful / ours.time_s / 1e9,
        })
    return rows


def _fig15() -> Tuple[Dict[str, Rows], str]:
    """Figure 15: transpose vs the SDK kernels on GTX 280, plus the
    GTX 8800 3k-vs-4k camping contrast."""
    data = {"GTX280": _transpose_rows((1024, 2048, 3072, 4096, 8192),
                                      GTX280),
            "GTX8800": _transpose_rows((3072, 4096), GTX8800)}

    def table(rows: Rows, title: str) -> str:
        return format_table(
            ["scale", "naive GB/s", "SDK prev GB/s", "SDK new GB/s",
             "optimized GB/s"],
            [[r["scale"], r["naive_gbps"], r["sdk_prev_gbps"],
              r["sdk_new_gbps"], r["optimized_gbps"]] for r in rows],
            title)

    return data, (
        table(data["GTX280"],
              "Figure 15: transpose effective bandwidth (GTX 280)")
        + "\n\n"
        + table(data["GTX8800"],
                "Figure 15 (companion): GTX 8800, 3k vs 4k camping contrast"))


def _fig16() -> Tuple[Rows, str]:
    """Figure 16: mv with and without partition-camping elimination."""
    algo = ALGORITHMS["mv"]
    rows: Rows = []
    for scale in (1024, 2048, 4096):
        sizes = algo.sizes(scale)
        flops = algo.flops(sizes)
        naive = estimate_compiled(compile_naive(algo, scale, GTX280))
        no_pc = estimate_compiled(compile_kernel(
            algo.source, sizes, algo.domain(sizes), GTX280,
            CompileOptions(enable_partition=False)))
        opt = estimate_compiled(compile_optimized(algo, scale, GTX280))
        cublas = BASELINES["mv_cublas"].estimate(sizes, GTX280)
        rows.append({
            "scale": scale,
            "naive_gflops": flops / naive.time_s / 1e9,
            "opti_pc_gflops": flops / no_pc.time_s / 1e9,
            "optimized_gflops": flops / opt.time_s / 1e9,
            "cublas_gflops": flops / cublas.time_s / 1e9,
        })
    return rows, format_table(
        ["scale", "naive", "Opti_PC", "optimized", "CUBLAS"],
        [[r["scale"], r["naive_gflops"], r["opti_pc_gflops"],
          r["optimized_gflops"], r["cublas_gflops"]] for r in rows],
        "Figure 16: mv GFLOPS (GTX 280)")


def _sec7() -> Tuple[Rows, str]:
    """Section 7: the 2-point and merged 8-point FFT of 2^20 points, plus
    each kernel's error against numpy.fft on a 256-point input."""
    import numpy as np

    from repro.kernels.fft import estimate_fft, fft_gflops, plan_fft, \
        run_fft
    n = 1 << 20
    rng = np.random.default_rng(3)
    data = (rng.standard_normal(256)
            + 1j * rng.standard_normal(256)).astype(np.complex64)
    ref = np.fft.fft(data)
    rows: Rows = []
    for label, radix8 in (("naive 2-point / step", False),
                          ("merged 8-point / step", True)):
        out = run_fft(data.copy(), radix8=radix8)
        rows.append({
            "kernel": label,
            "passes": plan_fft(n, radix8).passes,
            "gflops": fft_gflops(n, estimate_fft(n, radix8, GTX280)),
            "numpy_error": float(np.abs(out - ref).max()
                                 / np.abs(ref).max()),
        })
    return rows, format_table(
        ["kernel", "passes", "GFLOPS"],
        [[r["kernel"], r["passes"], r["gflops"]] for r in rows],
        "Section 7: 1-D FFT of 2^20 complex (GTX 280); "
        "paper measured 24 -> 41 GFLOPS")


FIGURES: Tuple[Figure, ...] = (
    Figure("table1_suite", _table1),
    Figure("fig10_design_space", _fig10),
    Figure("fig11_speedups", _fig11),
    Figure("fig12_step_dissection", _fig12),
    Figure("fig13_vs_cublas", _fig13),
    Figure("fig14_vectorization", _fig14),
    Figure("fig15_transpose", _fig15),
    Figure("fig16_mv_partition", _fig16),
    Figure("sec7_fft", _sec7),
)
