"""``python -m repro fuzz`` — drive the differential kernel fuzzer.

Exit codes follow the repo-wide CLI convention (see README "CLI JSON
output and exit codes"): 0 = clean, 1 = divergence found, 2 = usage
error.  ``--json`` emits a single ``repro.fuzz/1`` envelope object.

A campaign is one loop (:func:`_campaign`) over case outcomes.  Locally
each case is :func:`fuzz_case`, run in-process or, under ``--workers``,
in :mod:`repro.serve.pool` workers; ``--remote`` posts each generated
case to a compile service instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

from repro.fuzz.corpus import KernelCase, save_case
from repro.fuzz.grammar import SHAPES, generate_case
from repro.fuzz.oracle import (
    ORACLE_BACKENDS,
    STAGE_NAMES,
    OracleOptions,
    ScheduleInterrupted,
    run_case,
)
from repro.fuzz.reduce import reduce_case, source_lines
from repro.machine import MACHINES, machine
from repro.obs.envelope import make_envelope

#: JSON envelope schema tag for fuzz runs.
FUZZ_SCHEMA = "repro.fuzz/1"


def _parse_stages(text: str) -> tuple:
    """'all' or a comma list; accepts both 'coalesce' and '+coalesce'."""
    if text == "all":
        return STAGE_NAMES
    stages = []
    for token in text.split(","):
        token = token.strip()
        name = token if token in STAGE_NAMES else "+" + token
        if name not in STAGE_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown stage {token!r}; choose from "
                f"{', '.join(STAGE_NAMES)}")
        stages.append(name)
    return tuple(stages)


def _parse_seeds(text: str) -> tuple:
    """A comma list of schedule seeds, e.g. '3,5,7'."""
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--resume-seeds expects a comma list of integers, got {text!r}")


def fuzz_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Differentially test the pipeline on generated "
                    "naive kernels.")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed (default 0)")
    parser.add_argument("--count", type=int, default=100,
                        help="number of kernels to generate (default 100)")
    parser.add_argument("--shape", choices=sorted(SHAPES), default=None,
                        help="restrict generation to one grammar production")
    parser.add_argument("--stages", type=_parse_stages, default=STAGE_NAMES,
                        metavar="S1,S2,...",
                        help="cumulative stages to check (default: all); "
                             "e.g. 'coalesce,merge' or '+partition'")
    parser.add_argument("--machine", default="GTX280",
                        choices=sorted(MACHINES))
    parser.add_argument("--backend", default=None,
                        choices=ORACLE_BACKENDS,
                        help="simulator backend for oracle runs; 'both' "
                             "cross-checks lockstep against vectorized and "
                             "reports disagreements as divergences "
                             "(default: the process default backend)")
    parser.add_argument("--profile", action="store_true",
                        help="also profile every stage on both backends "
                             "and treat any dynamic-counter mismatch as a "
                             "divergence")
    parser.add_argument("--dataflow", action="store_true",
                        help="also replay every stage against its static "
                             "dataflow summary and treat any concrete "
                             "access or branch outside the abstract "
                             "summary as an 'unsound' divergence")
    parser.add_argument("--schedules", type=int, default=0, metavar="K",
                        help="also run the reference and every stage under "
                             "K seeded warp schedules (repro.sim.scheduled) "
                             "and treat any disagreement with the lockstep "
                             "run as a 'schedule' divergence carrying "
                             "replayable seed metadata")
    parser.add_argument("--resume-seeds", type=_parse_seeds, default=None,
                        metavar="S1,S2,...",
                        help="explicit schedule-seed list overriding "
                             "range(K) — resume an interrupted --schedules "
                             "campaign from the 'pending_schedule_seeds' of "
                             "its partial envelope")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="fan cases out over N worker processes "
                             "(repro.serve.pool); 0 = in-process serial. "
                             "Reduction runs inside the workers; corpus "
                             "writes stay in the parent")
    parser.add_argument("--remote", metavar="URL", default=None,
                        help="fuzz a running compile service instead of "
                             "the in-process oracle: POST each generated "
                             "case to URL via the retrying client; 200 = "
                             "ok, 422 = rejected, and any 5xx or "
                             "unreachable service counts as divergent "
                             "(a robustness failure)")
    parser.add_argument("--corpus-dir", default="tests/corpus",
                        help="where reduced reproducers are written "
                             "(default: tests/corpus)")
    parser.add_argument("--no-reduce", action="store_true",
                        help="report failures without shrinking them")
    parser.add_argument("--no-write", action="store_true",
                        help="do not persist reproducers to the corpus")
    parser.add_argument("--max-reduce-attempts", type=int, default=250,
                        help="oracle-run budget per reduction (default 250)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit one repro.fuzz/1 JSON object")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    args = parser.parse_args(argv)
    if args.count <= 0:
        print("error: --count must be positive", file=sys.stderr)
        return 2
    if args.remote and args.workers:
        print("error: --remote and --workers are exclusive (the daemon "
              "already owns a worker pool)", file=sys.stderr)
        return 2

    opts = OracleOptions(stages=args.stages, machine=machine(args.machine),
                         backend=args.backend,
                         check_profile=args.profile,
                         check_dataflow=args.dataflow,
                         schedules=args.schedules,
                         schedule_seeds=args.resume_seeds)
    tasks = [{"seed": args.seed, "index": index, "shape": args.shape,
              "opts": opts, "reduce": not args.no_reduce,
              "max_attempts": args.max_reduce_attempts}
             for index in range(args.count)]
    if args.remote:
        from repro.serve.client import ServeClient
        client = ServeClient(args.remote)
        return _campaign(args, (_remote_case(client, args, task)
                                for task in tasks))
    if args.workers > 0:
        # Reduction runs inside the workers; corpus writes stay here.
        from repro.serve.pool import WorkerPool
        with WorkerPool(args.workers) as pool:
            return _campaign(args, (t.result()
                                    for t in pool.map("fuzz", tasks)))
    return _campaign(args, map(fuzz_case, tasks))


class CaseOutcome(NamedTuple):
    """One case's verdict, wherever the case ran."""

    status: str                         # 'ok' | 'rejected' | 'divergent'
    entry: Dict[str, Any]               # its repro.fuzz/1 envelope entry
    report: List[str]                   # text lines for a divergent case
    reproducer: Optional[KernelCase]    # corpus case to write, if any


def fuzz_case(task: Dict[str, Any]) -> CaseOutcome:
    """Generate, oracle-check and (when divergent) reduce one case.

    The one per-case step of a local campaign: the serial campaign maps
    it in-process, and ``--workers`` runs it as the pool's ``"fuzz"``
    task kind.  ``task`` holds ``seed``, ``index``, ``shape``, ``opts``
    (:class:`OracleOptions`), ``reduce`` and ``max_attempts``.
    """
    case = generate_case(task["seed"], task["index"], shape=task["shape"])
    opts = task["opts"]
    result = run_case(case, opts)
    entry = result.to_dict()
    entry["lines"] = source_lines(case)
    if result.status != "divergent":
        return CaseOutcome(result.status, entry, [], None)
    divergences = [d.render() for d in result.divergences]
    report = [f"DIVERGENCE {case.name} ({case.origin})"]
    report += [f"  {line}" for line in divergences]
    reduced = case
    if task["reduce"]:
        reduced, spent = reduce_case(case, opts,
                                     max_attempts=task["max_attempts"],
                                     base_result=result)
        entry["reduced"] = {
            "source": reduced.source,
            "sizes": dict(reduced.sizes),
            "domain": list(reduced.domain),
            "lines": source_lines(reduced),
            "oracle_runs": spent,
        }
        report.append(f"  reduced to {source_lines(reduced)} line(s) in "
                      f"{spent} oracle run(s):")
        report += [f"    {line}"
                   for line in reduced.source.rstrip().splitlines()]
    reduced.note = "fuzzer-found divergence: " + "; ".join(divergences)
    return CaseOutcome("divergent", entry, report, reduced)


def _remote_case(client, args, task: Dict[str, Any]) -> CaseOutcome:
    """Post one generated case to a compile service (``--remote``).

    This checks the service's *robustness*, not correctness: the local
    differential oracle cannot see inside a remote daemon.  Any
    definitive answer is fine (200 = ok, 4xx = rejected); the only
    "divergence" is the service failing its availability contract — a
    5xx, or staying unreachable through the retrying client's whole
    backoff budget.  No reproducer is written.
    """
    from repro.serve.client import ServeUnavailable
    case = generate_case(task["seed"], task["index"], shape=task["shape"])
    entry: Dict[str, Any] = {"name": case.name, "origin": case.origin,
                             "remote": args.remote}
    try:
        reply = client.compile({
            "source": case.source,
            "sizes": {str(k): int(v) for k, v in case.sizes.items()},
            "domain": list(case.domain),
            "machine": args.machine,
        })
        entry["http_status"] = reply.status
        entry["attempts"] = reply.attempts
        entry["cache"] = reply.cache
        if reply.ok:
            status = "ok"
        else:
            status = "rejected" if 400 <= reply.status < 500 else "divergent"
            entry["error"] = reply.payload.get("error")
    except ServeUnavailable as exc:
        status = "divergent"
        entry["error"] = {"type": "ServeUnavailable", "message": str(exc),
                          "attempts": exc.attempts}
    entry["status"] = status
    report = ([f"SERVICE FAILURE {case.name}: {entry['error']}"]
              if status == "divergent" else [])
    return CaseOutcome(status, entry, report, None)


def _campaign(args, outcomes: Iterable[CaseOutcome]) -> int:
    """The one loop over case outcomes: counts, text output, corpus
    writes and envelope entries, then the summary.

    ``outcomes`` is lazy, so a Ctrl-C (or a ``ScheduleInterrupted`` from
    inside a ``--schedules`` case) still flushes a valid partial
    envelope, marked ``interrupted``, instead of dying with a traceback.
    """
    def say(*lines: str) -> None:
        if not (args.as_json or args.quiet):
            for line in lines:
                print(line)

    cases_json: List[Dict[str, Any]] = []
    counts = {"ok": 0, "rejected": 0, "divergent": 0}
    divergent_names = []
    completed = 0
    interrupted = False
    try:
        for outcome in outcomes:
            counts[outcome.status] += 1
            entry = outcome.entry
            if outcome.status == "divergent":
                divergent_names.append(entry["name"])
                say(*outcome.report)
                if outcome.reproducer is not None and not args.no_write:
                    path = save_case(outcome.reproducer, args.corpus_dir)
                    entry["corpus_path"] = path
                    say(f"  wrote reproducer to {path}")
            cases_json.append(entry)
            completed += 1
    except ScheduleInterrupted as exc:
        # Flush the in-flight case with the seed split so the campaign
        # resumes with --resume-seeds <pending>.
        entry = exc.result.to_dict()
        entry["interrupted_stage"] = exc.stage
        entry["completed_schedule_seeds"] = list(exc.completed_seeds)
        entry["pending_schedule_seeds"] = list(exc.pending_seeds)
        cases_json.append(entry)
        if not args.as_json:
            pending = ",".join(str(s) for s in exc.pending_seeds)
            print(f"interrupted during schedule campaign at stage "
                  f"{exc.stage!r}; resume with --resume-seeds {pending}",
                  file=sys.stderr)
        interrupted = True
    except KeyboardInterrupt:
        interrupted = True

    exit_code = 1 if counts["divergent"] else (130 if interrupted else 0)
    summary = {
        "cases": args.count,
        "completed": completed,
        "seed": args.seed,
        "stages": list(args.stages),
        "backend": args.backend or "default",
        "dataflow": args.dataflow,
        "schedules": (list(args.resume_seeds)
                      if args.resume_seeds is not None else args.schedules),
        "schedule_runs": sum(c.get("schedule_runs", 0) for c in cases_json),
        "ok": counts["ok"],
        "rejected": counts["rejected"],
        "divergent": counts["divergent"],
    }
    if args.as_json:
        print(json.dumps(make_envelope(
            FUZZ_SCHEMA,
            command="fuzz",
            exit_code=exit_code,
            interrupted=interrupted,
            summary=summary,
            cases=cases_json,
        ), indent=2))
    else:
        note = (f" (interrupted after {completed})" if interrupted else "")
        print(f"fuzz: {completed}/{args.count} case(s) from seed "
              f"{args.seed}{note}: "
              f"{counts['ok']} ok, {counts['rejected']} rejected, "
              f"{counts['divergent']} divergent")
        if divergent_names and args.quiet:
            print("divergent: " + ", ".join(divergent_names))
    return exit_code
