"""Command-line interface: compile a kernel, lint the suite, or fuzz.

Usage::

    python -m repro KERNEL.cu --size n=2048 --size m=2048 --size w=2048 \
        --domain 2048x2048 [--machine GTX280] [--explore] [--stage coalesce] \
        [--verify]

    python -m repro lint [KERNEL ...] [--stage STAGE] [--scale N] [--json]

    python -m repro fuzz [--seed N] [--count M] [--stages S1,S2] \
        [--backend lockstep|vectorized|auto|both] [--schedules K] \
        [--resume-seeds S1,S2] [--json] [--profile]

    python -m repro profile [KERNEL ...] [--stage STAGE] [--scale N] \
        [--backend both] [--tolerance F] [--json]

    python -m repro resilience [KERNEL ...] [--chaos] [--inject K:S] \
        [--no-validate] [--budget S] [--json]

    python -m repro serve [--host H] [--port P] [--store DIR] \
        [--workers N] [--budget S] [--default-timeout S] [--max-queue N] \
        [--max-inflight N] [--store-max-bytes B] [--store-max-entries N]

    python -m repro serve-gc [--store DIR] [--max-bytes B] \
        [--max-entries N] [--verify] [--json]

    python -m repro trace-view TRACE_ID [--traces DIR] [--list] \
        [--no-durations] [--json]

The first form prints the optimized kernel, the launch configuration, the
compiler's decision log, and the analytic performance estimate; with
``--verify`` the static analyses (races / divergence / bounds / banks) run
on the result and error findings abort compilation, ``--trace OUT.JSONL``
writes the structured compilation trace, and ``--explain`` prints decision
records with provenance (pass, rule, source line). The ``lint`` form runs
the static analyses over suite kernels at every pipeline stage; the
``fuzz`` form differentially tests generated naive kernels against the
functional interpreter (see :mod:`repro.fuzz`); the ``profile`` form runs
suite kernels under the simulator's dynamic hardware counters and gates
on drift against the static model (see :mod:`repro.obs.report`); the
``serve`` form runs the persistent compile service — content-addressed
caching plus a parallel worker pool over stdlib HTTP (see
:mod:`repro.serve`); the ``serve-gc`` form enforces a byte/entry quota
on an artifact store offline, evicting least-recently-used entries (the
daemon runs the same sweep opportunistically after writes); the
``trace-view`` form renders one service
request's merged span tree from the collected per-actor trace files
(see :mod:`repro.obs.traceview`).

All subcommands share one convention: exit code 0 = clean, 1 = findings
(lint errors / fuzz divergences / profile drift / compile failure), 2 =
usage error, 70 = internal error (an unexpected exception crossed the
CLI boundary; one structured line goes to stderr), 130 = interrupted,
and ``--json`` emits a single versioned envelope object (``repro.lint/1``
/ ``repro.fuzz/1`` / ``repro.profile/1`` / ``repro.resilience/1``)
documented in the README.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

#: BSD sysexits EX_SOFTWARE: an unexpected exception reached the CLI.
EX_SOFTWARE = 70

from repro.compiler import STAGE_CHOICES, compile_kernel, stage_options
from repro.explore import explore
from repro.lang.semantic import SemanticError
from repro.machine import MACHINES, machine
from repro.passes.base import PassError
from repro.sim.backend import BACKENDS
from repro.sim.perf import estimate_compiled

#: The compile form's ``--stage`` choices (lint and profile take every
#: stage in STAGE_CHOICES).
_COMPILE_STAGES = ("naive", "vectorize", "coalesce", "merge", "full")


def _parse_sizes(pairs):
    sizes = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not value:
            raise SystemExit(f"bad --size {pair!r}; expected name=value")
        sizes[name] = int(value)
    return sizes


def _parse_domain(text):
    x, _, y = text.partition("x")
    return (int(x), int(y) if y else 1)


def main(argv=None) -> int:
    """CLI entry point: dispatch, with a last-resort internal-error net.

    ``PassError`` / ``SemanticError`` keep their exit-1 contract and
    usage problems their exit-2 one (both handled inside ``_run``); any
    *unexpected* exception is caught here, printed as one structured
    line on stderr, and mapped to exit 70 (BSD ``EX_SOFTWARE``) so
    scripts can tell a compiler bug from a compile failure.
    """
    try:
        return _run(argv)
    except (SystemExit, KeyboardInterrupt):
        raise
    except BrokenPipeError:
        # `repro ... | head` closing stdout early is not a compiler bug:
        # exit like a SIGPIPE'd process (128 + 13), quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except Exception as exc:
        print(f"repro: internal error [{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return EX_SOFTWARE


#: Subcommand -> (module, entry point), imported only when chosen.
SUBCOMMANDS = {
    "lint": (__name__, "lint_main"),            # this module
    "fuzz": ("repro.fuzz.cli", "fuzz_main"),
    "profile": ("repro.obs.report", "profile_main"),
    "resilience": ("repro.resilience.cli", "resilience_main"),
    "serve": ("repro.serve.daemon", "serve_main"),
    "serve-gc": ("repro.serve.store", "serve_gc_main"),
    "trace-view": ("repro.obs.traceview", "trace_view_main"),
}


def _run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        module, name = SUBCOMMANDS[argv[0]]
        try:
            return getattr(importlib.import_module(module), name)(argv[1:])
        except SystemExit as exc:
            # argparse's usage error (or --help) as the CLI's exit code.
            return 2 if exc.code not in (0, None) else 0

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Optimize a naive GPGPU kernel (PLDI 2010 pipeline).")
    parser.add_argument("kernel", help="path to the naive kernel source")
    parser.add_argument("--size", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="bind an integer size parameter (repeatable)")
    parser.add_argument("--domain", required=True, metavar="XxY",
                        help="output domain, e.g. 2048x2048 or 4096")
    parser.add_argument("--machine", default="GTX280",
                        choices=sorted(MACHINES))
    parser.add_argument("--stage", default="full",
                        choices=sorted(_COMPILE_STAGES),
                        help="stop after a cumulative optimization stage")
    parser.add_argument("--verify", action="store_true",
                        help="run the static verifier on the result "
                             "(errors abort compilation)")
    parser.add_argument("--resilient", action="store_true",
                        help="checkpoint every optimization pass and roll "
                             "failing passes back instead of aborting "
                             "(degradation ladder, DESIGN.md 5.5)")
    parser.add_argument("--validate", action="store_true",
                        help="after each pass, statically verify and "
                             "differentially simulate against the naive "
                             "kernel; mismatches roll the pass back "
                             "(implies --resilient)")
    parser.add_argument("--inject", action="append", default=[],
                        metavar="KIND:SITE",
                        help="arm a deterministic fault at a pipeline "
                             "site (repeatable; also via REPRO_FAULTS)")
    parser.add_argument("--budget", type=float, default=None,
                        metavar="SECONDS",
                        help="per-pass wall-clock compile budget; an "
                             "overrunning pass is rolled back (resilient "
                             "mode)")
    parser.add_argument("--explore", action="store_true",
                        help="empirically search merge factors (Section 4)")
    parser.add_argument("--remote", metavar="URL", default=None,
                        help="with --explore: compile the candidate "
                             "versions on a running compile service "
                             "(repeat sweeps hit its cache; shed "
                             "responses are retried)")
    parser.add_argument("--measure", default="model",
                        choices=("model", "sim"),
                        help="with --explore: score versions with the "
                             "analytic model or by test-running each one "
                             "on the simulator (Section 4.1)")
    parser.add_argument("--backend", default=None,
                        choices=BACKENDS,
                        help="simulator execution backend for test runs "
                             "(default: REPRO_SIM_BACKEND or lockstep)")
    parser.add_argument("--trace", metavar="OUT.JSONL", default=None,
                        help="write the structured compilation trace as "
                             "repro.trace/1 JSON-Lines")
    parser.add_argument("--explain", action="store_true",
                        help="print decision records with provenance "
                             "(pass, rule, source line) instead of the "
                             "plain log")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the optimized kernel")
    args = parser.parse_args(argv)

    with open(args.kernel) as f:
        source = f.read()
    sizes = _parse_sizes(args.size)
    domain = _parse_domain(args.domain)
    mach = machine(args.machine)
    options = stage_options(STAGE_CHOICES[args.stage])
    overrides = {}
    if args.verify:
        overrides["verify"] = True
    if args.resilient or args.validate:
        overrides["resilient"] = True
    if args.validate:
        overrides["validate"] = True
    if args.budget is not None:
        overrides["pass_budget_s"] = args.budget
    from repro.resilience.faults import FaultPlan, FaultSpecError
    try:
        faults = FaultPlan.parse(
            list(args.inject) + FaultPlan.from_env().specs())
    except FaultSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if faults:
        overrides["faults"] = faults
    if overrides:
        from dataclasses import replace
        options = replace(options, **overrides)

    if args.remote and not args.explore:
        print("error: --remote requires --explore", file=sys.stderr)
        return 2
    try:
        if args.explore:
            result = explore(source, sizes, domain, mach,
                             measure=args.measure, backend=args.backend,
                             remote=args.remote)
            compiled = result.best.compiled
        else:
            compiled = compile_kernel(source, sizes, domain, mach, options)
    except (PassError, SemanticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        compiled.trace.write_jsonl(args.trace, kernel=compiled.name,
                                   stage=args.stage, machine=args.machine)

    print(compiled.source, end="")
    if args.quiet:
        return 0
    print()
    print(f"// launch: {compiled.config}")
    print(f"// shared memory: {compiled.plan.shared_mem_bytes} B/block, "
          f"~{compiled.plan.est_registers_per_thread} regs/thread")
    est = estimate_compiled(compiled)
    print(f"// predicted on {mach.name}: {est.time_s * 1e3:.3f} ms "
          f"({est.bound_by}-bound, {est.occupancy.warps_per_sm} warps/SM)")
    if args.explore and args.measure == "sim":
        print(f"// measured on simulator "
              f"({args.backend or 'default'} backend): "
              f"{result.best.measured_s * 1e3:.3f} ms")
        print("// explored candidates (block merge x thread merge):")
        for v in result.versions:
            if not v.feasible:
                print(f"//   bm={v.block_merge:2} tm={v.thread_merge:2}: "
                      f"infeasible ({v.error})")
                continue
            counters = ""
            if v.profile is not None:
                counters = (f", {v.profile.global_transactions} "
                            f"transactions, "
                            f"{v.profile.shared_conflict_cycles} "
                            f"conflict cycles, "
                            f"{v.profile.barriers} barriers")
            print(f"//   bm={v.block_merge:2} tm={v.thread_merge:2}: "
                  f"{v.measured_s * 1e3:.3f} ms{counters}")
    if compiled.resilience is not None:
        print(f"// resilience: {compiled.resilience.summary_line()}")
    print("//")
    if args.explain:
        if len(compiled.attempts) > 1 or any(a.floor or a.error
                                             for a in compiled.attempts):
            print("// degradation history:")
            for i, attempt in enumerate(compiled.attempts):
                rung = ("floor (all optimizations off)" if attempt.floor
                        else f"{attempt.target_threads} target threads")
                if attempt.ok:
                    print(f"//   attempt {i + 1}: {rung}: succeeded")
                else:
                    print(f"//   attempt {i + 1}: {rung}: failed "
                          f"({attempt.error})")
                    for event in attempt.trace.decisions:
                        if event.kind == "rollback":
                            print(f"//     rollback: {event.message}")
        print("// decision log (structured):")
        for event in compiled.trace.decisions:
            tag = event.pass_name or "driver"
            if event.rule:
                tag += f" {event.rule}"
            head = {"warning": "warning",
                    "rollback": "rollback"}.get(event.kind, "decision")
            print(f"//   [{tag}] {head}: {event.message}")
            if event.location:
                print(f"//       at: {event.location}")
            if event.before or event.after:
                print(f"//       before: {event.before}")
                print(f"//       after:  {event.after}")
        times = compiled.trace.pass_times()
        if times:
            print("// pass times:")
            for name, seconds in times.items():
                print(f"//   {name}: {seconds * 1e3:.2f} ms")
    else:
        print("// decision log:")
        for line in compiled.log:
            print(f"//   {line}")
    return 0


def lint_main(argv=None) -> int:
    """``python -m repro lint``: verify suite kernels at pipeline stages."""
    from repro.analysis import Severity, verify_kernel
    from repro.compiler import compile_stages
    from repro.kernels.suite import ALGORITHMS

    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Statically verify suite kernels after every "
                    "pipeline stage.")
    parser.add_argument("kernels", nargs="*", metavar="KERNEL",
                        help="suite kernel names (default: all)")
    parser.add_argument("--stage", default="all",
                        choices=["all"] + sorted(STAGE_CHOICES),
                        help="verify only one cumulative stage")
    parser.add_argument("--scale", type=int, default=None,
                        help="problem scale (default: each kernel's "
                             "test scale)")
    parser.add_argument("--machine", default="GTX280",
                        choices=sorted(MACHINES))
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit diagnostics as JSON")
    parser.add_argument("--facts", action="store_true",
                        help="also dump the dataflow engine's per-kernel "
                             "facts (interval/stride values, access "
                             "summaries, guard verdicts) as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    args = parser.parse_args(argv)

    names = args.kernels or sorted(ALGORITHMS)
    unknown = [n for n in names if n not in ALGORITHMS]
    if unknown:
        print(f"error: unknown kernel(s) {', '.join(unknown)}; "
              f"choose from {', '.join(sorted(ALGORITHMS))}",
              file=sys.stderr)
        return 2
    mach = machine(args.machine)
    wanted = None if args.stage == "all" else STAGE_CHOICES[args.stage]

    diagnostics = []
    facts_entries = []
    checked = 0
    failed_compiles = 0
    for name in names:
        alg = ALGORITHMS[name]
        scale = args.scale or alg.test_scale
        sizes = alg.sizes(scale)
        try:
            if alg.uses_global_sync:
                reports = _lint_reduction(alg, sizes, mach, verify_kernel,
                                          dataflow=True)
            else:
                stages = compile_stages(alg.source, sizes,
                                        alg.domain(sizes), mach)
                reports = _verify_launches(
                    [(stage, launch) for stage, ck in stages.items()
                     if wanted is None or stage == wanted
                     for launch in ck.launch_plan()],
                    mach, verify_kernel, dataflow=True)
        except (PassError, SemanticError) as exc:
            print(f"error: {name}: compilation failed: {exc}",
                  file=sys.stderr)
            failed_compiles += 1
            continue
        for stage, report, launch in reports:
            checked += 1
            diagnostics.extend(report)
            if args.facts:
                from repro.analysis.dataflow import analyze_kernel
                kernel, bindings, block, grid = launch
                facts_entries.append({
                    "kernel": name, "stage": stage,
                    "facts": analyze_kernel(kernel, bindings,
                                            block, grid).to_dict(),
                })

    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    warnings = [d for d in diagnostics if d.severity is Severity.WARNING]
    rules: dict = {}
    for d in diagnostics:
        key = d.rule or d.analysis
        rules[key] = rules.get(key, 0) + 1
    exit_code = 1 if errors or failed_compiles else 0
    if args.as_json:
        from repro.obs.envelope import make_envelope
        extra = {"facts": facts_entries} if args.facts else {}
        print(json.dumps(make_envelope(
            "repro.lint/1",
            command="lint",
            exit_code=exit_code,
            summary={
                "checked": checked,
                "errors": len(errors),
                "warnings": len(warnings),
                "failed_compiles": failed_compiles,
                "rules": rules,
            },
            diagnostics=[d.to_dict() for d in diagnostics],
            **extra,
        ), indent=2))
        return exit_code
    if not args.quiet:
        for d in diagnostics:
            print(d.render())
    if args.facts:
        print(json.dumps(facts_entries, indent=2))
    print(f"lint: {checked} kernel stage(s) checked, "
          f"{len(errors)} error(s), {len(warnings)} warning(s)")
    return exit_code


def _verify_launches(launches, mach, verify_kernel, dataflow=False):
    """Verify each ``(stage, Launch)``; one ``(tag, report, (kernel,
    scalars, block, grid))`` per launch, tagged with the launch's label
    (its stage's name for a program of one unlabelled launch)."""
    out = []
    for stage, launch in launches:
        tag = launch.label or stage
        block, grid = tuple(launch.config.block), tuple(launch.config.grid)
        report = verify_kernel(launch.kernel, launch.scalars, block=block,
                               grid=grid, machine=mach, stage=tag,
                               dataflow=dataflow)
        out.append((tag, report, (launch.kernel, launch.scalars, block,
                                  grid)))
    return out


def _lint_reduction(alg, sizes, mach, verify_kernel, dataflow=False):
    """Verify every launch of a __global_sync reduction's fissioned
    program.  Inputs too small to relaunch stage 2 also verify it once,
    reducing one block of partials."""
    from repro.reduction import compile_reduction
    compiled = compile_reduction(alg.source, sizes["n"], machine=mach)
    plan = compiled.launch_plan()
    if len(plan) == 1:
        plan.append(compiled.stage2_launch(compiled.plan.block_threads, 1))
    return _verify_launches([("", launch) for launch in plan], mach,
                            verify_kernel, dataflow=dataflow)


if __name__ == "__main__":
    sys.exit(main())
