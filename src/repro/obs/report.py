"""Profile reports: measured counters vs the static model's predictions.

:mod:`repro.obs.profile` measures memory transactions, bank conflicts and
barriers while a kernel runs; :mod:`repro.sim.timing` predicts the same
quantities from affine access forms.  This module puts the two side by
side — per access site (coalescing verdicts) and per program (the drift
table) — and turns disagreement beyond a tolerance into a failing exit
code, so a change that silently breaks the paper's Section 3.2 cost model
is caught the same way a functional regression would be.

The drift gate compares *program totals* (summed over every launch of a
fissioned reduction): the static model is a whole-program cost model, and
its per-launch error on tiny relaunch tails (default 16-trip estimates
for data-dependent loops, half-warp rounding under sparse guards) is
documented in the report rather than gated.  Gated metrics are global
memory transactions and shared-memory conflict cycles; bytes and barriers
are informational (the static sync count uses the same crude default trip
counts).

``python -m repro profile`` is the CLI front end; see :func:`profile_main`.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.ir.access import collect_accesses
from repro.ir.segments import HALF_WARP
from repro.lang.astnodes import Kernel
from repro.machine import GpuSpec
from repro.obs.envelope import make_envelope
from repro.obs.profile import PROFILE_SCHEMA, KernelProfile
from repro.sim.interp import Launch, LaunchConfig
from repro.sim.timing import (
    _count_syncs,
    access_executions,
    shared_conflict_degree,
    transactions_for_access,
)

#: Default relative-error bound of the drift gate (``--tolerance``).
DRIFT_TOLERANCE = 0.35

#: Metrics the drift gate fails on; everything else is informational.
GATED_METRICS = ("global_transactions", "shared_conflict_cycles")


# ---------------------------------------------------------------------------
# Static-model comparables
# ---------------------------------------------------------------------------

@dataclass
class StaticCounters:
    """The static model's predictions in the profiler's units."""

    transactions: float = 0.0      # global half-warp segment transactions
    bytes_moved: float = 0.0
    conflict_cycles: float = 0.0   # shared-memory extra cycles
    barriers: float = 0.0          # thread arrivals (crude loop trips)

    def add(self, other: "StaticCounters") -> None:
        self.transactions += other.transactions
        self.bytes_moved += other.bytes_moved
        self.conflict_cycles += other.conflict_cycles
        self.barriers += other.barriers


def static_counters(kernel: Kernel, sizes: Mapping[str, int],
                    config: LaunchConfig,
                    machine: GpuSpec) -> StaticCounters:
    """Predict one launch's dynamic counters from the static model.

    Uses the exact building blocks ``timing.analyze_kernel`` uses —
    :func:`~repro.sim.timing.access_executions` (trip counts x guard
    fractions), :func:`~repro.sim.timing.transactions_for_access` and
    :func:`~repro.sim.timing.shared_conflict_degree` — scaled from
    per-thread to launch totals by ``total_threads / HALF_WARP`` half
    warps, which is the same convention the profiler measures in.
    """
    out = StaticCounters()
    halfwarps = config.total_threads / HALF_WARP
    for acc in collect_accesses(kernel, sizes):
        execs = access_executions(acc, config)
        if execs <= 0:
            continue
        instances = execs * halfwarps
        if acc.space == "global":
            trans, byts = transactions_for_access(acc, machine, config)
            out.transactions += instances * trans
            out.bytes_moved += instances * byts
        elif acc.space == "shared":
            degree = shared_conflict_degree(acc, machine, config)
            out.conflict_cycles += instances * (degree - 1)
    out.barriers = (_count_syncs(kernel, sizes, config)
                    * config.total_threads)
    return out


# ---------------------------------------------------------------------------
# Drift table
# ---------------------------------------------------------------------------

@dataclass
class DriftRow:
    """One metric of the measured-vs-predicted comparison."""

    metric: str
    predicted: float
    measured: float
    gated: bool

    @property
    def rel_err(self) -> float:
        return abs(self.predicted - self.measured) / max(self.measured, 1.0)

    def ok(self, tolerance: float) -> bool:
        return (not self.gated) or self.rel_err <= tolerance

    def to_dict(self, tolerance: float) -> Dict[str, object]:
        return {"metric": self.metric,
                "predicted": round(self.predicted, 3),
                "measured": round(self.measured, 3),
                "rel_err": round(self.rel_err, 4),
                "gated": self.gated,
                "ok": self.ok(tolerance)}


def drift_rows(static: StaticCounters,
               measured: Mapping[str, float]) -> List[DriftRow]:
    """Compare predicted program totals against measured ones."""
    return [
        DriftRow("global_transactions", static.transactions,
                 measured["global_transactions"], gated=True),
        DriftRow("shared_conflict_cycles", static.conflict_cycles,
                 measured["shared_conflict_cycles"], gated=True),
        DriftRow("global_bytes", static.bytes_moved,
                 measured["global_bytes"], gated=False),
        DriftRow("barriers", static.barriers,
                 measured["barriers"], gated=False),
    ]


def measured_totals(profiles: List[KernelProfile]) -> Dict[str, float]:
    """Program totals of one backend's launch profiles."""
    return {
        "global_transactions": float(sum(p.global_transactions
                                         for p in profiles)),
        "global_bytes": float(sum(p.global_bytes for p in profiles)),
        "shared_conflict_cycles": float(sum(p.shared_conflict_cycles
                                            for p in profiles)),
        "barriers": float(sum(p.barriers for p in profiles)),
    }


# ---------------------------------------------------------------------------
# Suite drivers
# ---------------------------------------------------------------------------

@dataclass
class LaunchReport:
    """One kernel launch: its static prediction and per-backend profiles."""

    label: str
    config: LaunchConfig
    static: StaticCounters
    profiles: Dict[str, KernelProfile] = field(default_factory=dict)

    def any_profile(self) -> KernelProfile:
        return next(iter(self.profiles.values()))


@dataclass
class StageReport:
    """One kernel x stage: launches, cross-backend verdict, drift table."""

    kernel: str
    stage: str
    launches: List[LaunchReport]
    backend_mismatch: Optional[str] = None   # dotted counter path, or None

    @property
    def static_total(self) -> StaticCounters:
        total = StaticCounters()
        for launch in self.launches:
            total.add(launch.static)
        return total

    @property
    def measured_total(self) -> Dict[str, float]:
        backend = sorted(self.launches[0].profiles)[0]
        return measured_totals([l.profiles[backend] for l in self.launches])

    @property
    def drift(self) -> List[DriftRow]:
        return drift_rows(self.static_total, self.measured_total)

    def drift_ok(self, tolerance: float) -> bool:
        return all(row.ok(tolerance) for row in self.drift)

    def ok(self, tolerance: float, check_drift: bool = True) -> bool:
        if self.backend_mismatch is not None:
            return False
        return self.drift_ok(tolerance) if check_drift else True

    def to_dict(self, tolerance: float) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "stage": self.stage,
            "backends": sorted(self.launches[0].profiles),
            "backend_mismatch": self.backend_mismatch,
            "drift": [row.to_dict(tolerance) for row in self.drift],
            "launches": [{
                "label": l.label,
                "grid": list(l.config.grid),
                "block": list(l.config.block),
                "profile": l.any_profile().counters_dict(),
            } for l in self.launches],
        }


#: Per-kernel default profiling scales.  Reductions need the element count
#: to divide the per-block chunk (block 256 x thread-merge 32) so the
#: stage-1 bounds guard disappears, matching the static model's
#: guard-free accounting; everything else uses the suite's test scale.
PROFILE_SCALES = {"rd": 32768}


def profile_algorithm(name: str, scale: Optional[int] = None,
                      machine: Optional[GpuSpec] = None,
                      backends: Tuple[str, ...] = ("lockstep", "vectorized"),
                      stages: Optional[List[str]] = None,
                      seed: int = 0) -> List[StageReport]:
    """Profile one suite kernel: every cumulative stage, every backend.

    Ordinary kernels produce one :class:`StageReport` per cumulative
    pipeline stage (one launch each).  ``__global_sync`` reductions take
    the fission path and produce a single ``fission`` stage whose report
    covers the whole multi-launch program.
    """
    from repro.kernels.suite import get_algorithm
    from repro.machine import GTX280
    machine = machine or GTX280
    alg = get_algorithm(name)
    scale = scale or PROFILE_SCALES.get(name, alg.test_scale)
    sizes = alg.sizes(scale)
    rng = np.random.default_rng(seed)
    arrays = alg.make_arrays(rng, sizes)
    # (stage, program, backend -> one KernelProfile per launch)
    if alg.uses_global_sync:
        from repro.reduction import compile_reduction
        red = compile_reduction(alg.source, sizes["n"], machine=machine)

        def run(backend: str) -> List[KernelProfile]:
            pairs: List[Tuple[str, KernelProfile]] = []
            red.run(np.array(arrays["a"], copy=True), backend=backend,
                    profile=pairs)
            return [prof for _, prof in pairs]
        programs = [("fission", red, run)]
    else:
        from repro.compiler import compile_stages
        programs = [(stage, ck, lambda backend, ck=ck:
                     [ck.profile(arrays, backend=backend)])
                    for stage, ck in compile_stages(
                        alg.source, sizes, alg.domain(sizes),
                        machine).items()
                    if stages is None or stage in stages]
    return [_stage_report(alg.name, stage, program.launch_plan(), run,
                          machine, backends)
            for stage, program, run in programs]


def _stage_report(kernel: str, stage: str, plan: List[Launch],
                  run: Callable[[str], List[KernelProfile]],
                  machine: GpuSpec, backends: Tuple[str, ...]
                  ) -> StageReport:
    """Profile every launch of one program on every backend.

    A launch is reported under its label (its stage's name when the
    program has one unlabelled launch), and launches after the first
    carry their index: ``stage1``, ``stage2[1]``, ``stage2[2]``...
    """
    launches = []
    for i, launch in enumerate(plan):
        label = launch.label or stage
        launches.append(LaunchReport(
            label=f"{label}[{i}]" if i else label, config=launch.config,
            static=static_counters(launch.kernel, launch.scalars,
                                   launch.config, machine)))
    for backend in backends:
        for report, prof in zip(launches, run(backend)):
            report.profiles[backend] = prof
    mismatch = None
    for report, launch in zip(launches, plan):
        mismatch = _mismatch(report)
        if mismatch:
            if launch.label:
                mismatch = f"{report.label}: {mismatch}"
            break
    return StageReport(kernel=kernel, stage=stage, launches=launches,
                       backend_mismatch=mismatch)


def _mismatch(launch: LaunchReport) -> Optional[str]:
    names = sorted(launch.profiles)
    base = launch.profiles[names[0]]
    for other in names[1:]:
        diff = base.first_mismatch(launch.profiles[other])
        if diff:
            return f"{names[0]} vs {other}: {diff}"
    return None


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_stage(report: StageReport, tolerance: float,
                 check_drift: bool = True) -> List[str]:
    """Human-readable lines for one stage report."""
    lines = []
    backends = sorted(report.launches[0].profiles)
    agree = ("counters identical across "
             + "/".join(backends) if len(backends) > 1 else backends[0])
    if report.backend_mismatch:
        agree = f"BACKEND MISMATCH: {report.backend_mismatch}"
    lines.append(f"{report.kernel} {report.stage}: {agree}")
    for launch in report.launches:
        prof = launch.any_profile()
        lines.append(
            f"  {launch.label} {launch.config}: "
            f"{prof.global_transactions} transactions, "
            f"{prof.global_bytes} B, "
            f"{prof.shared_conflict_cycles} conflict cycles, "
            f"{prof.barriers} barriers, "
            f"{prof.divergent_branches} divergent branches")
        for site in prof.sites:
            verdict = ""
            if site.space == "global":
                if site.coalesced is None:
                    verdict = "unexecuted"
                elif site.coalesced:
                    verdict = "coalesced"
                else:
                    verdict = (f"UNCOALESCED "
                               f"({site.transactions}/{site.instances} "
                               f"transactions/instance)")
            else:
                verdict = (f"{site.conflict_cycles} conflict cycles"
                           if site.conflict_cycles
                           else "conflict-free")
            lines.append(f"    [{site.space:6}] {site.label:28} "
                         f"{site.loads}L/{site.stores}S  {verdict}")
    lines.append("  drift vs static model"
                 + ("" if check_drift else " (not gated)") + ":")
    for row in report.drift:
        mark = "ok" if row.ok(tolerance) or not check_drift else "DRIFT"
        gate = "gated" if row.gated else "info"
        lines.append(f"    {row.metric:24} predicted {row.predicted:12.1f} "
                     f"measured {row.measured:12.1f} "
                     f"rel_err {row.rel_err:7.3f}  [{gate}] {mark}")
    return lines


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_BACKEND_SETS = {
    "both": ("lockstep", "vectorized"),
    "lockstep": ("lockstep",),
    "vectorized": ("vectorized",),
    "auto": ("auto",),
}


def profile_main(argv=None) -> int:
    """``python -m repro profile``: dynamic counters + drift gate."""
    from repro.compiler import STAGE_CHOICES
    from repro.kernels.suite import ALGORITHMS
    from repro.machine import MACHINES, machine

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Run suite kernels under the simulator profiler and "
                    "compare measured counters against the static model.")
    parser.add_argument("kernels", nargs="*", metavar="KERNEL",
                        help="suite kernel names (default: mm tp rd)")
    parser.add_argument("--stage", default="all",
                        choices=["all"] + list(STAGE_CHOICES),
                        help="profile only one cumulative stage "
                             "(reductions always profile the whole "
                             "fissioned program)")
    parser.add_argument("--scale", type=int, default=None,
                        help="problem scale (default: per-kernel profile "
                             "scale)")
    parser.add_argument("--backend", default="both",
                        choices=sorted(_BACKEND_SETS),
                        help="backends to profile; 'both' also checks "
                             "bit-for-bit counter agreement")
    parser.add_argument("--machine", default="GTX280",
                        choices=sorted(MACHINES))
    parser.add_argument("--tolerance", type=float, default=DRIFT_TOLERANCE,
                        help="drift gate relative-error bound "
                             f"(default {DRIFT_TOLERANCE})")
    parser.add_argument("--no-drift", action="store_true",
                        help="report drift but never fail on it")
    parser.add_argument("--seed", type=int, default=0,
                        help="input-data RNG seed")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a repro.profile/1 envelope")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    args = parser.parse_args(argv)

    names = args.kernels or ["mm", "tp", "rd"]
    unknown = [n for n in names if n not in ALGORITHMS]
    if unknown:
        print(f"error: unknown kernel(s) {', '.join(unknown)}; "
              f"choose from {', '.join(sorted(ALGORITHMS))}",
              file=sys.stderr)
        return 2
    stages = None if args.stage == "all" else [STAGE_CHOICES[args.stage]]
    backends = _BACKEND_SETS[args.backend]
    check_drift = not args.no_drift
    mach = machine(args.machine)

    reports: List[StageReport] = []
    failed_compiles = 0
    for name in names:
        try:
            reports.extend(profile_algorithm(
                name, scale=args.scale, machine=mach,
                backends=backends, stages=stages, seed=args.seed))
        except Exception as exc:        # compile or simulation failure
            print(f"error: {name}: {exc}", file=sys.stderr)
            failed_compiles += 1

    mismatches = sum(1 for r in reports if r.backend_mismatch)
    drift_failures = sum(1 for r in reports
                         if not r.drift_ok(args.tolerance))
    exit_code = 1 if (mismatches or failed_compiles
                      or (check_drift and drift_failures)) else 0

    if args.as_json:
        import json
        print(json.dumps(make_envelope(
            PROFILE_SCHEMA,
            command="profile",
            exit_code=exit_code,
            tolerance=args.tolerance,
            drift_gated=check_drift,
            backends=list(backends),
            summary={
                "stages": len(reports),
                "backend_mismatches": mismatches,
                "drift_failures": drift_failures,
                "failed_compiles": failed_compiles,
            },
            results=[r.to_dict(args.tolerance) for r in reports],
        ), indent=2))
        return exit_code
    if not args.quiet:
        for report in reports:
            for line in render_stage(report, args.tolerance, check_drift):
                print(line)
    print(f"profile: {len(reports)} kernel stage(s), "
          f"{mismatches} backend mismatch(es), "
          f"{drift_failures} drift failure(s) "
          f"(tolerance {args.tolerance:g}"
          + (", not gated" if not check_drift else "") + ")")
    return exit_code
