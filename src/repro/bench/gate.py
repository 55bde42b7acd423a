"""``python -m repro bench-check`` — the benchmark regression gate.

The repo commits three benchmark records at its root (``BENCH_backend
.json``, ``BENCH_dataflow.json``, ``BENCH_serve.json``).  This gate
re-measures each one and fails (exit 1) when a tracked quantity
regresses beyond tolerance:

* **deterministic fields compare exactly** — ``bit_identical``,
  ``guards_removed`` / ``barriers_removed`` / branch- and barrier-count
  deltas, ``grids_identical`` / ``same_winner``: these are promises of
  the compiler, not of the host, so any drift is a real regression;
* **timing ratios compare host-relatively** — speedups (vectorized vs
  lockstep, warm vs cold, parallel vs serial) are dimensionless, so a
  slower CI box shifts both sides; the gate only requires ``fresh >=
  committed * (1 - tolerance)``.  The default tolerance (0.6) is
  deliberately loose: shared single-CPU runners jitter wildly, and a
  real vectorization regression collapses a 50-180x ratio to ~1x,
  which no honest tolerance misses.  ``warm_speedup`` is cold / warm and
  its numerator is compile time, so a faster compiler lowers it:
  re-measure and recommit ``BENCH_serve.json`` with such a change;
* the **explore parallel-speedup** check mirrors the cpus>=2 guard the
  serve benchmark itself uses: on a single-CPU host process-parallel
  exploration legitimately loses to serial, so the gate only bounds
  the overhead there.

``--quick`` re-measures at tiny scales (seconds, not minutes) and
skips the scale-dependent ratio and counter comparisons — the CI mode.
Every run appends its verdict and tracked ratios to
``results/bench_history.jsonl`` (see :mod:`repro.bench.history`).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.history import DEFAULT_HISTORY, append_run
from repro.obs.envelope import validate_envelope

#: Default committed records, relative to the repo root.
DEFAULT_RECORDS = ("BENCH_backend.json", "BENCH_dataflow.json",
                   "BENCH_serve.json")

#: Host-relative ratio tolerance: fresh >= committed * (1 - tolerance).
DEFAULT_TOLERANCE = 0.6

#: Tiny --quick scales: smoke the full pipeline in seconds.
QUICK_BACKEND_SCALES = {"mm": 16, "tp": 32, "rd": 1 << 10}
QUICK_SERVE_SCALES = {"mm": 16, "tp": 32, "mv": 32}

_SCHEMA_TO_BENCH = {
    "repro.bench-backend/1": "bench_backend",
    "repro.bench-dataflow/1": "bench_dataflow",
    "repro.bench-serve/1": "bench_serve",
}


def repo_root() -> str:
    """The repo root, derived from this file (src/repro/bench/gate.py)."""
    here = os.path.abspath(__file__)
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(here))))


def _load_bench_module(name: str):
    path = os.path.join(repo_root(), "benchmarks", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"repro_gate_{name}",
                                                 path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_fresh(schema: str, quick: bool = False) -> Dict[str, Any]:
    """Run the matching benchmark and return its fresh envelope."""
    bench = _SCHEMA_TO_BENCH.get(schema)
    if bench is None:
        raise ValueError(f"no benchmark known for schema {schema!r}")
    module = _load_bench_module(bench)
    if schema == "repro.bench-backend/1":
        if quick:
            return module.run_bench(scales=QUICK_BACKEND_SCALES, repeats=1)
        return module.run_bench(repeats=1)
    if schema == "repro.bench-dataflow/1":
        if quick:
            return module.run_bench(scales=QUICK_BACKEND_SCALES)
        return module.run_bench()
    if quick:
        return module.run_bench(cache_scales=QUICK_SERVE_SCALES,
                                explore_scale=24, workers=2, repeats=1)
    return module.run_bench(repeats=1)


# ---------------------------------------------------------------------------
# Pure per-schema checks: (name, ok, detail) findings + tracked ratios
# ---------------------------------------------------------------------------

Finding = Tuple[str, bool, str]


def _ratio_ok(fresh: float, committed: float, tolerance: float) -> bool:
    return fresh >= committed * (1.0 - tolerance)


def check_backend(committed: Dict[str, Any], fresh: Dict[str, Any],
                  tolerance: float, quick: bool
                  ) -> Tuple[List[Finding], Dict[str, float]]:
    findings: List[Finding] = []
    tracked: Dict[str, float] = {}
    fresh_by = {r["kernel"]: r for r in fresh.get("results", [])}
    for row in committed.get("results", []):
        kernel = row["kernel"]
        got = fresh_by.get(kernel)
        if got is None:
            findings.append((f"{kernel}.present", False,
                             "kernel missing from fresh run"))
            continue
        findings.append((
            f"{kernel}.bit_identical", bool(got.get("bit_identical")),
            "lockstep and vectorized outputs must match bit-for-bit"))
        tracked[f"{kernel}.speedup"] = float(got.get("speedup", 0.0))
        if quick:
            continue
        ok = _ratio_ok(float(got.get("speedup", 0.0)),
                       float(row.get("speedup", 0.0)), tolerance)
        findings.append((
            f"{kernel}.speedup", ok,
            f"fresh {got.get('speedup', 0.0):.1f}x vs committed "
            f"{row.get('speedup', 0.0):.1f}x "
            f"(tolerance {tolerance:.0%})"))
    return findings, tracked


def check_dataflow(committed: Dict[str, Any], fresh: Dict[str, Any],
                   tolerance: float, quick: bool
                   ) -> Tuple[List[Finding], Dict[str, float]]:
    findings: List[Finding] = []
    tracked: Dict[str, float] = {}
    fresh_by = {r["kernel"]: r for r in fresh.get("results", [])}
    for row in committed.get("results", []):
        kernel = row["kernel"]
        got = fresh_by.get(kernel)
        if got is None:
            findings.append((f"{kernel}.present", False,
                             "kernel missing from fresh run"))
            continue
        bit = got.get("bit_identical") or {}
        findings.append((
            f"{kernel}.bit_identical",
            bool(bit.get("lockstep")) and bool(bit.get("vectorized")),
            "guard/barrier elimination must not change outputs"))
        for field in ("guards_removed", "barriers_removed"):
            tracked[f"{kernel}.{field}"] = float(got.get(field, 0))
        if quick:
            # Guard/barrier elimination counts and counter deltas all
            # depend on the problem scale; quick mode runs tiny scales,
            # so only the bit-identity promise is comparable.
            continue
        # Full mode runs the committed scales: every structural fact
        # and counter delta must reproduce exactly.
        for field in ("guards_removed", "barriers_removed"):
            findings.append((
                f"{kernel}.{field}",
                int(got.get(field, -1)) == int(row.get(field, -2)),
                f"fresh {got.get(field)} vs committed {row.get(field)} "
                f"(exact)"))
        got_counters = got.get("counters") or {}
        for counter, value in (row.get("counters") or {}).items():
            findings.append((
                f"{kernel}.counters.{counter}",
                int(got_counters.get(counter, -1)) == int(value),
                f"fresh {got_counters.get(counter)} vs committed "
                f"{value} (exact)"))
    return findings, tracked


def check_serve(committed: Dict[str, Any], fresh: Dict[str, Any],
                tolerance: float, quick: bool
                ) -> Tuple[List[Finding], Dict[str, float]]:
    findings: List[Finding] = []
    tracked: Dict[str, float] = {}
    fresh_by = {r["kernel"]: r for r in fresh.get("cache", [])}
    for row in committed.get("cache", []):
        kernel = row["kernel"]
        got = fresh_by.get(kernel)
        if got is None:
            findings.append((f"{kernel}.present", False,
                             "kernel missing from fresh run"))
            continue
        findings.append((
            f"{kernel}.bit_identical", bool(got.get("bit_identical")),
            "cold and warm responses must be byte-identical"))
        findings.append((
            f"{kernel}.warm_lt_cold",
            float(got.get("warm_s", 1.0)) < float(got.get("cold_s", 0.0)),
            f"warm {got.get('warm_s', 0.0):.6f}s must beat cold "
            f"{got.get('cold_s', 0.0):.6f}s"))
        tracked[f"{kernel}.warm_speedup"] = float(
            got.get("warm_speedup", 0.0))
        if quick:
            continue
        ok = _ratio_ok(float(got.get("warm_speedup", 0.0)),
                       float(row.get("warm_speedup", 0.0)), tolerance)
        findings.append((
            f"{kernel}.warm_speedup", ok,
            f"fresh {got.get('warm_speedup', 0.0):.1f}x vs committed "
            f"{row.get('warm_speedup', 0.0):.1f}x "
            f"(tolerance {tolerance:.0%})"))
    explore = fresh.get("explore") or {}
    committed_explore = committed.get("explore") or {}
    for field in ("grids_identical", "same_winner"):
        findings.append((
            f"explore.{field}", bool(explore.get(field)),
            "parallel and serial exploration must agree"))
    tracked["explore.speedup"] = float(explore.get("speedup", 0.0))
    if not quick:
        cpus = int(fresh.get("cpus", 1))
        if cpus >= 2:
            ok = _ratio_ok(float(explore.get("speedup", 0.0)),
                           float(committed_explore.get("speedup", 0.0)),
                           tolerance)
            findings.append((
                "explore.speedup", ok,
                f"fresh {explore.get('speedup', 0.0):.2f}x vs committed "
                f"{committed_explore.get('speedup', 0.0):.2f}x "
                f"(tolerance {tolerance:.0%}, cpus={cpus})"))
        else:
            # Single-CPU host: process parallelism legitimately loses;
            # only bound the overhead (mirrors the bench's own guard).
            serial = float(explore.get("serial_s", 0.0))
            parallel = float(explore.get("parallel_s", 0.0))
            findings.append((
                "explore.overhead", parallel < 2.0 * serial *
                (1.0 + tolerance),
                f"parallel {parallel:.3f}s vs serial {serial:.3f}s on a "
                f"single-CPU host (bounding overhead only, cpus={cpus})"))
    return findings, tracked


_CHECKERS = {
    "repro.bench-backend/1": check_backend,
    "repro.bench-dataflow/1": check_dataflow,
    "repro.bench-serve/1": check_serve,
}


def check_record(committed: Dict[str, Any], fresh: Dict[str, Any],
                 tolerance: float = DEFAULT_TOLERANCE,
                 quick: bool = False
                 ) -> Tuple[List[Finding], Dict[str, float]]:
    """Dispatch one committed/fresh envelope pair to its checker."""
    schema = committed.get("schema")
    checker = _CHECKERS.get(schema)
    if checker is None:
        raise ValueError(f"no checker for schema {schema!r}")
    validate_envelope(fresh, schema)
    return checker(committed, fresh, tolerance, quick)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def bench_check_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro bench-check`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench-check",
        description="Gate the committed BENCH_*.json records against "
                    "freshly measured runs (exit 1 on regression).")
    parser.add_argument("--records", nargs="+", metavar="PATH",
                        help="committed bench records to gate "
                             "(default: the BENCH_*.json at the repo "
                             "root)")
    parser.add_argument("--fresh", action="append", default=[],
                        metavar="SCHEMA=PATH",
                        help="use a pre-measured fresh envelope for one "
                             "schema (e.g. repro.bench-backend/1=f.json) "
                             "instead of re-running the benchmark")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="host-relative ratio tolerance "
                             f"(default: {DEFAULT_TOLERANCE})")
    parser.add_argument("--quick", action="store_true",
                        help="tiny scales; skip scale-dependent ratio "
                             "and counter comparisons (CI mode)")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        metavar="PATH",
                        help="trajectory JSONL to append each run to "
                             f"(default: {DEFAULT_HISTORY})")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append to the trajectory file")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    records = args.records
    if not records:
        records = [os.path.join(repo_root(), name)
                   for name in DEFAULT_RECORDS]
        records = [p for p in records if os.path.exists(p)]
        if not records:
            print("bench-check: no committed BENCH_*.json records found",
                  file=sys.stderr)
            return 2

    fresh_paths: Dict[str, str] = {}
    for spec in args.fresh:
        schema, sep, path = spec.partition("=")
        if not sep:
            print(f"bench-check: bad --fresh {spec!r}; "
                  f"expected SCHEMA=PATH", file=sys.stderr)
            return 2
        fresh_paths[schema] = path

    all_findings: List[Dict[str, Any]] = []
    failed = False
    for path in records:
        try:
            with open(path, "r", encoding="utf-8") as fp:
                committed = validate_envelope(json.load(fp))
        except (OSError, ValueError) as exc:
            print(f"bench-check: cannot read record {path}: {exc}",
                  file=sys.stderr)
            return 2
        schema = committed["schema"]
        try:
            if schema in fresh_paths:
                with open(fresh_paths[schema], "r",
                          encoding="utf-8") as fp:
                    fresh = validate_envelope(json.load(fp))
            else:
                if not args.json:
                    print(f"bench-check: measuring fresh {schema} "
                          f"({'quick' if args.quick else 'full'})...",
                          flush=True)
                fresh = measure_fresh(schema, quick=args.quick)
            findings, tracked = check_record(
                committed, fresh, tolerance=args.tolerance,
                quick=args.quick)
        except (OSError, ValueError) as exc:
            print(f"bench-check: {schema}: {exc}", file=sys.stderr)
            return 2
        failures = [name for name, ok, _ in findings if not ok]
        status = "ok" if not failures else "regressed"
        failed = failed or bool(failures)
        all_findings.append({
            "record": path, "schema": schema, "status": status,
            "checks": [{"check": name, "ok": ok, "detail": detail}
                       for name, ok, detail in findings],
            "tracked": tracked,
        })
        if not args.no_history:
            append_run(args.history, schema, status, tracked,
                       tolerance=args.tolerance, quick=args.quick,
                       failures=failures)

    if args.json:
        print(json.dumps({"ok": not failed, "quick": args.quick,
                          "tolerance": args.tolerance,
                          "records": all_findings}, indent=2))
    else:
        for entry in all_findings:
            print(f"{entry['schema']}: {entry['status']} "
                  f"({len(entry['checks'])} checks)")
            for check in entry["checks"]:
                mark = "ok " if check["ok"] else "FAIL"
                line = f"  [{mark}] {check['check']}"
                if not check["ok"]:
                    line += f" -- {check['detail']}"
                print(line)
        verdict = "REGRESSED" if failed else "all records within tolerance"
        print(f"bench-check: {verdict}")
    return 1 if failed else 0
