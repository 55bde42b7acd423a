"""``python -m repro resilience`` — exercise the degradation ladder.

Two modes:

* **default** — compile each requested suite kernel in resilient
  (optionally validated) mode, with any faults armed via ``--inject`` or
  ``REPRO_FAULTS``, then differentially check the result against the
  naive kernel bit-for-bit on both simulator backends.
* **``--chaos``** — run the full fault-injection matrix: every pipeline
  site crossed with every fault kind, one fresh compile per cell, each
  required to recover to a runnable kernel whose output is bit-identical
  to the naive reference.  This is the CI chaos step.

Exit codes follow the repo convention: 0 = every compile recovered and
matched, 1 = a mismatch or unrecovered failure, 2 = usage error.
``--json`` emits one ``repro.resilience/1`` envelope object.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.machine import MACHINES, machine
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultPlan,
    FaultSpecError,
)
from repro.resilience.report import resilience_envelope

#: Backends every differential check must agree on, bit for bit.
CHECK_BACKENDS = ("lockstep", "vectorized")

#: Kernels the resilience acceptance matrix covers by default: a staged
#: compute kernel, the transpose-tile special case, and the reduction
#: (global-sync) path.
DEFAULT_KERNELS = ("mm", "tp", "rd")

#: Pipeline sites that apply to the standard pipeline vs the reduction.
PIPELINE_SITES = tuple(s for s in FAULT_SITES if s != "reduction")


def _check_pipeline_kernel(alg, scale, mach, *, validate: bool,
                           faults: Optional[FaultPlan],
                           budget: Optional[float]) -> Dict[str, object]:
    """Resiliently compile one suite kernel and diff it against naive."""
    from repro.compiler import CompileOptions, compile_kernel, naive_launch
    from repro.lang.parser import parse_kernel
    from repro.resilience.validate import synth_arrays
    from repro.sim.differential import compare, run

    sizes = alg.sizes(scale)
    domain = alg.domain(sizes)
    naive = parse_kernel(alg.source)
    options = CompileOptions(resilient=True, validate=validate,
                             faults=faults, pass_budget_s=budget)
    result: Dict[str, object] = {"kernel": alg.name, "scale": scale}
    try:
        compiled = compile_kernel(alg.source, sizes, domain, mach, options)
    except Exception as exc:
        result["status"] = "compile-failed"
        result["detail"] = f"{type(exc).__name__}: {exc}"
        return result

    report = compiled.resilience
    result["attempts"] = [
        {"target_threads": a.target_threads, "floor": a.floor,
         "ok": a.ok, "error": a.error}
        for a in compiled.attempts]
    result["report"] = report.to_dict() if report is not None else None

    base = synth_arrays(naive, sizes)
    ref = run(naive, naive_launch(domain, mach), base, sizes, backend="auto")
    mismatches: List[str] = []
    for backend in CHECK_BACKENDS:
        got = run(compiled.kernel, compiled.config, base,
                  compiled.size_bindings(), backend=backend)
        mismatch = (f"crash: {type(got.exc).__name__}: {got.exc}"
                    if got.exc is not None else compare(got, ref))
        if mismatch is not None:
            mismatches.append(f"{backend}: {mismatch}")
    result["bit_identical"] = not mismatches
    if mismatches:
        result["status"] = "mismatch"
        result["detail"] = "; ".join(mismatches)
    else:
        result["status"] = "ok"
    return result


def _check_reduction_kernel(alg, scale, mach, *, validate: bool,
                            faults: Optional[FaultPlan]
                            ) -> Dict[str, object]:
    """Resiliently compile the reduction and check the exact sum."""
    import zlib

    from repro.reduction import compile_reduction
    from repro.resilience.validate import exact_sum_failures

    n = alg.sizes(scale)["n"]
    result: Dict[str, object] = {"kernel": alg.name, "scale": scale}
    try:
        compiled = compile_reduction(alg.source, n, machine=mach,
                                     resilient=True, validate=validate,
                                     faults=faults)
    except Exception as exc:
        result["status"] = "compile-failed"
        result["detail"] = f"{type(exc).__name__}: {exc}"
        return result

    result["attempts"] = compiled.resilience
    failures = exact_sum_failures(
        compiled, zlib.crc32(f"resilience:{alg.name}:{n}".encode()),
        CHECK_BACKENDS)
    mismatches = [f"{backend}: {failure}"
                  for backend, failure in failures.items()]
    result["bit_identical"] = not mismatches
    if mismatches:
        result["status"] = "mismatch"
        result["detail"] = "; ".join(mismatches)
    else:
        result["status"] = "ok"
    return result


def _check_one(alg, scale, mach, *, validate, faults, budget):
    if alg.uses_global_sync:
        return _check_reduction_kernel(alg, scale, mach, validate=validate,
                                       faults=faults)
    return _check_pipeline_kernel(alg, scale, mach, validate=validate,
                                  faults=faults, budget=budget)


def resilience_main(argv: Optional[List[str]] = None) -> int:
    from repro.kernels.suite import ALGORITHMS

    parser = argparse.ArgumentParser(
        prog="python -m repro resilience",
        description="Exercise the checkpointed degradation ladder: "
                    "resilient compiles, fault injection, differential "
                    "recovery checks.")
    parser.add_argument("kernels", nargs="*", metavar="KERNEL",
                        help=f"suite kernel names (default: "
                             f"{', '.join(DEFAULT_KERNELS)})")
    parser.add_argument("--scale", type=int, default=None,
                        help="problem scale (default: each kernel's "
                             "test scale)")
    parser.add_argument("--machine", default="GTX280",
                        choices=sorted(MACHINES))
    parser.add_argument("--inject", action="append", default=[],
                        metavar="KIND:SITE",
                        help="arm a fault (repeatable); kinds: "
                             + ", ".join(FAULT_KINDS) + "; sites: "
                             + ", ".join(FAULT_SITES))
    parser.add_argument("--chaos", action="store_true",
                        help="run the full fault matrix (every site x "
                             "every kind, one compile per cell)")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip per-pass differential validation "
                             "(rollback still covers raised faults)")
    parser.add_argument("--budget", type=float, default=None,
                        metavar="SECONDS",
                        help="per-pass wall-clock compile budget")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit one repro.resilience/1 JSON object")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    args = parser.parse_args(argv)

    names = list(args.kernels) or list(DEFAULT_KERNELS)
    unknown = [n for n in names if n not in ALGORITHMS]
    if unknown:
        print(f"error: unknown kernel(s) {', '.join(unknown)}; "
              f"choose from {', '.join(sorted(ALGORITHMS))}",
              file=sys.stderr)
        return 2
    try:
        injected = FaultPlan.parse(args.inject).specs()
        ambient = FaultPlan.from_env().specs()
    except FaultSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base_specs = injected + ambient
    validate = not args.no_validate
    mach = machine(args.machine)

    results: List[Dict[str, object]] = []
    for name in names:
        alg = ALGORITHMS[name]
        scale = args.scale or alg.test_scale
        if args.chaos:
            sites = (("reduction",) if alg.uses_global_sync
                     else PIPELINE_SITES)
            for site in sites:
                for kind in FAULT_KINDS:
                    spec = f"{kind}:{site}"
                    row = _check_one(alg, scale, mach, validate=validate,
                                     faults=FaultPlan.parse(spec),
                                     budget=args.budget)
                    row["fault"] = spec
                    results.append(row)
            # The matrix also includes a clean validated compile.
            row = _check_one(alg, scale, mach, validate=validate,
                             faults=FaultPlan.parse(base_specs) or None,
                             budget=args.budget)
            row["fault"] = ",".join(base_specs)
            results.append(row)
        else:
            row = _check_one(alg, scale, mach, validate=validate,
                             faults=FaultPlan.parse(base_specs) or None,
                             budget=args.budget)
            row["fault"] = ",".join(base_specs)
            results.append(row)

    failed = [r for r in results if r["status"] != "ok"]
    exit_code = 1 if failed else 0
    summary = {
        "kernels": names,
        "mode": "chaos" if args.chaos else "single",
        "validated": validate,
        "injected": base_specs,
        "checked": len(results),
        "failed": len(failed),
        "backends": list(CHECK_BACKENDS),
    }
    if args.as_json:
        print(json.dumps(resilience_envelope(
            results, command="resilience", exit_code=exit_code,
            summary=summary), indent=2))
        return exit_code
    if not args.quiet:
        for r in results:
            fault = r.get("fault") or "none"
            line = f"{r['kernel']:12s} fault={fault:20s} {r['status']}"
            if r["status"] != "ok":
                line += f" ({r.get('detail', '')})"
            else:
                report = r.get("report")
                if report and report.get("sites"):
                    dropped = [o["site"] for o in report["sites"]
                               if o["status"] == "dropped"]
                    if dropped:
                        line += f" (dropped: {', '.join(dropped)})"
                    if report.get("floor"):
                        line += " (floor)"
            print(line)
    print(f"resilience: {len(results)} compile(s) checked "
          f"({summary['mode']} mode, validate={str(validate).lower()}), "
          f"{len(failed)} failure(s)")
    return exit_code
