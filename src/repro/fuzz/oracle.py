"""The differential oracle: naive interpretation vs. every pipeline stage.

For one :class:`~repro.fuzz.corpus.KernelCase` the oracle

1. interprets the naive kernel directly (a plain programmer's launch,
   no compiler involvement at all) to obtain the *reference* outputs;
2. compiles every cumulative optimization stage (the Figure 12
   dissection) and re-runs each on fresh copies of the same inputs,
   demanding **bit-identical** arrays;
3. runs the static verifier on each stage's output and reports any
   error-severity finding as a divergence (warnings are tallied only);
4. round-trips each stage through the printer — printed source must
   re-parse, re-check in ``optimized`` mode, and re-interpret to the
   stage's own outputs, bit for bit.

Inputs, launches and comparisons are the shared differential harness
(:mod:`repro.sim.differential`, which states why exact comparison is
sound); the oracle seeds its inputs with a CRC of the case's source,
sizes and domain, so corpus replays need no stored arrays.

A graceful :class:`~repro.passes.base.PassError` is a *rejection* (the
compiler declined the kernel), not a divergence; any other failure —
wrong bits, verifier errors, round-trip mismatches, or unexpected
exceptions — is.

The oracle also fuzzes the *simulator* itself: with ``backend="both"``
every run (reference and stage) additionally executes on the
warp-vectorized backend (:mod:`repro.sim.vectorized`) and any
disagreement — differing bits, or differing error classification — is a
first-class ``backend`` divergence the reducer can shrink like any
miscompile.  Kernels the vectorized backend statically refuses
(:class:`~repro.sim.vectorized.UnsupportedKernelError`) are skipped, not
divergent.  A plain ``backend="vectorized"`` / ``"auto"`` instead runs
the whole oracle on that backend.

With ``schedules=K`` the oracle also walks the *schedule space*: the
reference and every stage are re-executed on the scheduled backend
(:mod:`repro.sim.scheduled`) under K seeded warp interleavings, and any
output or error-family disagreement with the lockstep run is a
first-class ``schedule`` divergence carrying replay metadata (seed,
scheduler kind, yield count, schedule trace tail) in its ``meta`` — one
recorded seed deterministically replays the interleaving.  Verifier race
errors are cross-wired with this backend: the oracle searches the
schedule space for a witnessing interleaving and attaches the
confirmation verdict to the ``verify`` divergence.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import verify_compiled
from repro.compiler import CompileOptions, compile_stages, naive_launch
from repro.fuzz.corpus import KernelCase
from repro.lang.astnodes import Kernel
from repro.lang.parser import parse_kernel
from repro.lang.printer import print_kernel
from repro.lang.semantic import SemanticError, check_kernel
from repro.machine import GTX280, GpuSpec
from repro.passes.base import PassError
from repro.sim.backend import default_backend
from repro.sim.differential import (
    Evidence,
    compare,
    inputs,
    run,
    schedule_sweep,
)
from repro.sim.interp import LaunchConfig
from repro.sim.phases import slice_phases
from repro.sim.scheduled import schedule_plan
from repro.sim.vectorized import UnsupportedKernelError

#: ``OracleOptions.backend`` values (``both`` cross-checks the backends).
ORACLE_BACKENDS: Tuple[str, ...] = ("lockstep", "vectorized", "auto", "both")

#: Cumulative stage keys, in pipeline order (= compile_stages keys).
STAGE_NAMES: Tuple[str, ...] = ("naive", "+vectorize", "+coalesce",
                                "+merge", "+prefetch", "+partition")


@dataclass(frozen=True)
class Divergence:
    """One way a stage disagreed with the naive kernel."""

    stage: str   # '' for failures before any stage ran
    # 'output' | 'verify' | 'roundtrip' | 'crash' | 'semantic' |
    # 'backend' | 'profile' | 'unsound' | 'schedule'
    kind: str
    detail: str
    #: Structured replay metadata (schedule divergences: seed, scheduler,
    #: yields, schedule trace tail) — lands in the repro.fuzz/1 envelope.
    meta: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"stage": self.stage, "kind": self.kind,
                                  "detail": self.detail}
        if self.meta is not None:
            out["meta"] = dict(self.meta)
        return out

    def render(self) -> str:
        where = self.stage or "<compile>"
        return f"{where}: {self.kind}: {self.detail}"


class ScheduleInterrupted(KeyboardInterrupt):
    """Ctrl-C landed inside a ``--schedules`` campaign.

    Carries enough state for the CLI to flush a resumable partial
    envelope: the partial :class:`CaseResult`, the stage that was being
    checked, and which schedule seeds had / had not completed there —
    ``python -m repro fuzz --schedules K --resume-seeds s1,s2`` replays
    exactly the pending ones.
    """

    def __init__(self, result: "CaseResult", stage: str,
                 completed_seeds: List[int], pending_seeds: List[int]):
        super().__init__("schedule campaign interrupted")
        self.result = result
        self.stage = stage
        self.completed_seeds = completed_seeds
        self.pending_seeds = pending_seeds


@dataclass(frozen=True)
class OracleOptions:
    """What to check, and on which machine."""

    stages: Tuple[str, ...] = STAGE_NAMES
    machine: GpuSpec = GTX280
    check_verifier: bool = True
    check_roundtrip: bool = True
    compile_options: Optional[CompileOptions] = None
    #: Simulator backend: lockstep | vectorized | auto | both; ``None``
    #: follows the process default (``REPRO_SIM_BACKEND``).
    backend: Optional[str] = None
    #: Also profile every stage on both backends and demand bit-identical
    #: dynamic counters — a mismatch is a first-class ``profile``
    #: divergence the reducer shrinks like any miscompile.
    check_profile: bool = False
    #: Abstract-covers-concrete soundness oracle: replay every stage with
    #: a checker profile asserting each concrete simulator access lies
    #: inside the dataflow engine's static summary (and each taken branch
    #: agrees with any definite static verdict).  A violation is a
    #: first-class ``unsound`` divergence the reducer shrinks like any
    #: miscompile.
    check_dataflow: bool = False
    #: Schedule-space oracle: run the reference and every stage under K
    #: seeded warp schedules (``repro.sim.scheduled``) and demand bits
    #: identical to the lockstep run — any disagreement is a first-class
    #: ``schedule`` divergence carrying replay metadata (seed, scheduler,
    #: yield count, schedule trace tail).
    schedules: int = 0
    #: Explicit schedule-seed list overriding ``range(schedules)`` — how
    #: an interrupted campaign resumes (``fuzz --resume-seeds``).
    schedule_seeds: Optional[Tuple[int, ...]] = None

    def exec_backend(self) -> str:
        """The backend the oracle's own runs use (``both`` => lockstep)."""
        name = self.backend if self.backend is not None else default_backend()
        return "lockstep" if name == "both" else name

    def schedule_seed_plan(self) -> List[Tuple[int, str]]:
        """The (seed, scheduler-kind) pairs each schedule check runs."""
        if self.schedule_seeds is not None:
            return schedule_plan(0, self.schedule_seeds)
        return schedule_plan(self.schedules)


@dataclass
class CaseResult:
    """The oracle's verdict on one case."""

    case: KernelCase
    status: str                       # 'ok' | 'rejected' | 'divergent'
    divergences: List[Divergence] = field(default_factory=list)
    stages_checked: List[str] = field(default_factory=list)
    reject_reason: str = ""
    verifier_warnings: int = 0
    schedule_runs: int = 0            # scheduled executions performed

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.case.name,
            "origin": self.case.origin,
            "status": self.status,
            "stages_checked": list(self.stages_checked),
            "divergences": [d.to_dict() for d in self.divergences],
            "reject_reason": self.reject_reason,
            "verifier_warnings": self.verifier_warnings,
            "schedule_runs": self.schedule_runs,
        }


# ---------------------------------------------------------------------------
# Deterministic inputs and the reference launch (no compiler involved)
# ---------------------------------------------------------------------------

def case_seed(case: KernelCase) -> int:
    """A stable 32-bit seed derived from the case's source and bindings."""
    return zlib.crc32(f"{case.source}|{sorted(case.sizes.items())!r}|"
                      f"{tuple(case.domain)!r}".encode())


def make_arrays(kernel: Kernel, case: KernelCase) -> Dict[str, np.ndarray]:
    """The case's inputs (:func:`repro.sim.differential.inputs`)."""
    return inputs(kernel, case.sizes, case_seed(case))


def reference_config(case: KernelCase,
                     machine: GpuSpec = GTX280) -> LaunchConfig:
    """The plain programmer's launch the reference run uses."""
    return naive_launch(case.domain, machine)


def run_reference(kernel: Kernel, case: KernelCase,
                  arrays: Dict[str, np.ndarray],
                  machine: GpuSpec = GTX280,
                  backend: Optional[str] = None) -> Dict[str, np.ndarray]:
    """Interpret the naive kernel under a plain programmer's launch."""
    ev = run(kernel, reference_config(case, machine), arrays, case.sizes,
             backend=backend)
    if ev.exc is not None:
        raise ev.exc
    return ev.outputs


# ---------------------------------------------------------------------------
# The oracle proper
# ---------------------------------------------------------------------------

def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_case(case: KernelCase,
             options: Optional[OracleOptions] = None) -> CaseResult:
    """Run the full differential check on one case."""
    opts = options or OracleOptions()
    result = CaseResult(case=case, status="ok")

    # -- parse + validate the naive kernel --------------------------------
    try:
        naive = parse_kernel(case.source)
        check_kernel(naive, mode="naive")
    except Exception as exc:
        result.status = "divergent"
        result.divergences.append(Divergence("", "semantic", _describe(exc)))
        return result

    # -- reference run -----------------------------------------------------
    arrays = make_arrays(naive, case)
    launch = (naive, reference_config(case, opts.machine), arrays, case.sizes)
    reference = run(*launch, backend=opts.exec_backend())
    if opts.backend == "both":
        _cross_check_backends("reference", launch, reference, result)
    if opts.schedules or opts.schedule_seeds:
        _check_schedules("reference", launch, reference, opts, result)
    if reference.exc is not None:
        result.status = "divergent"
        result.divergences.append(Divergence(
            "", "crash", "reference: " + _describe(reference.exc)))
        return result

    # -- compile every cumulative stage ------------------------------------
    try:
        stages = compile_stages(case.source, case.sizes, case.domain,
                                opts.machine, opts.compile_options)
    except PassError as exc:
        result.status = "rejected"
        result.reject_reason = _describe(exc)
        return result
    except SemanticError as exc:
        result.status = "divergent"
        result.divergences.append(Divergence("", "semantic", _describe(exc)))
        return result
    except Exception as exc:
        result.status = "divergent"
        result.divergences.append(Divergence("", "crash", _describe(exc)))
        return result

    wanted = [s for s in STAGE_NAMES if s in opts.stages]
    for stage in wanted:
        ck = stages[stage]
        result.stages_checked.append(stage)
        _check_stage(stage, ck, arrays, reference, opts, result)

    if result.divergences:
        result.status = "divergent"
    return result


def _cross_check_backends(stage: str, launch: tuple, lockstep: Evidence,
                          result: CaseResult) -> None:
    """Re-run ``launch`` (``run``'s positional arguments) on the
    vectorized backend and demand agreement with ``lockstep``: the same
    error family, or the same bits.  Kernels the vectorized backend
    statically refuses are skipped."""
    vec = run(*launch, backend="vectorized")
    mismatch = compare(vec, lockstep)
    if mismatch and not isinstance(vec.exc, UnsupportedKernelError):
        result.divergences.append(Divergence(
            stage, "backend", "vectorized differs from lockstep: "
            + mismatch))


def _schedule_proof(ck) -> Optional[str]:
    """The dataflow engine's schedule-invariance claim for a stage.

    Returns ``'barrier-free'`` when the phase slicing finds no barriers
    at all, ``'removable-barriers'`` when every unconditional block
    barrier is in the engine's simultaneously-removable set (PR 6's
    proof machinery) — stages whose invariance the schedule oracle makes
    dynamically falsifiable — and ``None`` when no proof applies.
    """
    slicing = slice_phases(ck.kernel)
    if not slicing.barriers:
        return "barrier-free"
    unconditional = [s for s in slicing.barriers
                     if not s.conditional and s.stmt.scope == "block"
                     and not s.loops]
    if len(unconditional) != len(slicing.barriers):
        return None
    try:
        from repro.analysis.dataflow import removable_barriers
        removable = removable_barriers(ck.kernel, ck.size_bindings(),
                                       tuple(ck.config.block),
                                       tuple(ck.config.grid))
    except Exception:
        return None
    if len(removable) == len(unconditional):
        return "removable-barriers"
    return None


def _check_schedules(stage: str, launch: tuple, lockstep: Evidence,
                     opts: OracleOptions,
                     result: CaseResult, proof: Optional[str] = None) -> None:
    """Re-run ``launch`` under K seeded schedules; demand ``lockstep``.

    Any disagreement — differing outputs, or a differing error family —
    is a ``schedule`` divergence whose ``meta`` (seed, scheduler, yield
    count, schedule trace tail) replays it deterministically.  When the
    dataflow engine claimed the stage schedule-invariant (``proof``),
    a divergence additionally marks that proof falsified.

    Ctrl-C inside the loop raises :class:`ScheduleInterrupted` with the
    completed/pending seed split so the campaign is resumable.
    """
    plan = opts.schedule_seed_plan()
    prefix = f"falsifies dataflow {proof} proof: " if proof else ""
    completed: List[int] = []
    try:
        for seed, kind, ev in schedule_sweep(*launch, plan):
            result.schedule_runs += 1
            completed.append(seed)
            mismatch = compare(ev, lockstep)
            if not mismatch:
                continue
            meta: Dict[str, object] = {"seed": seed, "scheduler": kind}
            if ev.yields is not None:
                meta["yields"] = ev.yields
                meta["trace_tail"] = list(ev.trace_tail)
            if proof is not None:
                meta["dataflow_proof"] = proof
            result.divergences.append(Divergence(
                stage, "schedule", f"{prefix}scheduler {kind!r} seed "
                f"{seed} diverges from lockstep: {mismatch}", meta))
    except KeyboardInterrupt:
        pending = [s for s, _ in plan if s not in completed]
        raise ScheduleInterrupted(result, stage, completed, pending)


def _confirm_verify_races(stage: str, ck, arrays: Dict[str, np.ndarray],
                          race_divs: List[Divergence],
                          opts: OracleOptions,
                          result: CaseResult) -> None:
    """Cross-wire verifier race errors with the schedule oracle: search
    the schedule space for a witnessing interleaving and attach the
    confirmation (or refutation-up-to-budget) to each race divergence."""
    from repro.analysis.confirm import confirm_race
    try:
        witness = confirm_race(
            ck.kernel, ck.size_bindings(), tuple(ck.config.block),
            tuple(ck.config.grid), arrays=arrays,
            schedules=max(opts.schedules, 4),
            seeds=opts.schedule_seeds)
    except Exception:
        return
    confirmation: Dict[str, object]
    if witness is None:
        confirmation = {"confirmed": False,
                        "schedules_searched": max(opts.schedules, 4)}
    else:
        confirmation = {"confirmed": True}
        confirmation.update(witness.to_dict())
    for i, div in enumerate(result.divergences):
        if div in race_divs:
            meta = dict(div.meta or {})
            meta["race_confirmation"] = confirmation
            result.divergences[i] = replace(div, meta=meta)


def _cross_check_profiles(stage: str, ck, arrays: Dict[str, np.ndarray],
                          result: CaseResult) -> None:
    """Profile the stage on both backends; counters must be bit-equal.

    Kernels the vectorized backend statically refuses are skipped (there
    is only one backend to measure); everything else must produce the
    same transactions, conflicts, barriers, and divergence counts.
    """
    try:
        lock = ck.profile(arrays, backend="lockstep")
        vec = ck.profile(arrays, backend="vectorized")
    except UnsupportedKernelError:
        return
    except Exception as exc:
        result.divergences.append(
            Divergence(stage, "profile", "profiler: " + _describe(exc)))
        return
    diff = lock.first_mismatch(vec)
    if diff:
        result.divergences.append(Divergence(
            stage, "profile",
            f"counters differ across backends: {diff}"))


class _SummaryChecker:
    """A duck-typed profile asserting abstract-covers-concrete.

    Implements the lockstep interpreter's profile interface (``access``,
    ``sync``, ``branch``) and checks every concrete event against the
    dataflow engine's :class:`~repro.analysis.dataflow.KernelFacts` for
    the same AST (facts are keyed by node identity, and the compiled
    kernel hands the interpreter the very nodes the engine analyzed).

    Violations collected: an executed access the engine never summarized
    (it claimed the site unreachable), a concrete address outside the
    static address set, a concrete store at a load-only summary, and a
    taken branch contradicting a definite static verdict.
    """

    _CAP = 5  # enough to diagnose; the reducer shrinks the rest

    def __init__(self, facts) -> None:
        self.facts = facts
        self.violations: List[str] = []

    def _note(self, text: str) -> None:
        if len(self.violations) < self._CAP:
            self.violations.append(text)

    def access(self, space, name, addr, is_store, site, path, lane) -> None:
        fact = self.facts.accesses.get(id(site))
        if fact is None:
            self._note(f"{space} {name!r}: executed access has no static "
                       f"summary (engine claimed it unreachable; lane "
                       f"{lane})")
            return
        if not fact.address.contains(addr):
            self._note(f"{space} {name!r}: concrete address {addr} outside "
                       f"static summary {fact.address} (lane {lane})")
        if is_store and not fact.is_store:
            self._note(f"{space} {name!r}: concrete store at a summary "
                       f"recorded load-only (lane {lane})")

    def sync(self, lane) -> None:
        pass

    def branch(self, stmt, path, lane, taken) -> None:
        verdict = self.facts.verdicts.get(id(stmt))
        if verdict is not None and verdict.verdict is not None \
                and taken != verdict.verdict:
            self._note(f"branch '{verdict.cond_text}': concretely "
                       f"taken={taken} (lane {lane}) contradicts static "
                       f"verdict always-{verdict.verdict}")


def _check_soundness(stage: str, ck, arrays: Dict[str, np.ndarray],
                     result: CaseResult) -> None:
    """Replay the stage against its own static summary (lockstep only:
    the cross-backend checks already pin the two backends to identical
    event streams, so one replay covers both)."""
    from repro.analysis.dataflow import analyze_kernel
    try:
        facts = analyze_kernel(ck.kernel, ck.size_bindings(),
                               ck.config.block, ck.config.grid)
    except Exception as exc:
        result.divergences.append(Divergence(
            stage, "unsound", "dataflow engine crashed: " + _describe(exc)))
        return
    checker = _SummaryChecker(facts)
    replay = run(ck.kernel, ck.config, arrays, ck.size_bindings(),
                 backend="lockstep", profile=checker)
    if replay.exc is not None:
        result.divergences.append(Divergence(
            stage, "crash", "soundness replay: " + _describe(replay.exc)))
        return
    for violation in checker.violations:
        result.divergences.append(Divergence(stage, "unsound", violation))


def _check_stage(stage: str, ck, arrays: Dict[str, np.ndarray],
                 reference: Evidence, opts: OracleOptions,
                 result: CaseResult) -> None:
    # 1. bit-exact output equivalence (and, in 'both' mode, bit-exact
    #    agreement between the two simulator backends).
    launch = (ck.kernel, ck.config, arrays, ck.size_bindings())
    out = run(*launch, backend=opts.exec_backend())
    if opts.backend == "both":
        _cross_check_backends(stage, launch, out, result)
    if out.exc is not None:
        result.divergences.append(
            Divergence(stage, "crash", _describe(out.exc)))
        return
    mismatch = compare(out, reference)
    if mismatch:
        result.divergences.append(Divergence(stage, "output", mismatch))

    # 1d. schedule-space: outputs must not depend on warp interleaving.
    #     Stages the dataflow engine proved barrier-free (or all-barriers-
    #     removable) carry that proof into any divergence — PR 6's proofs
    #     become dynamically falsifiable here.
    if opts.schedules or opts.schedule_seeds:
        _check_schedules(stage, launch, out, opts, result,
                         proof=_schedule_proof(ck))

    # 1b. dynamic counters agree bit-for-bit across backends.
    if opts.check_profile:
        _cross_check_profiles(stage, ck, arrays, result)

    # 1c. abstract-covers-concrete: every concrete access and branch the
    #     simulator performs lies inside the static dataflow summary.
    if opts.check_dataflow:
        _check_soundness(stage, ck, arrays, result)

    # 2. static verifier stays clean (errors only; warnings are tallied).
    if opts.check_verifier:
        try:
            report = verify_compiled(ck, stage=stage)
        except Exception as exc:
            result.divergences.append(
                Divergence(stage, "crash", "verifier: " + _describe(exc)))
        else:
            result.verifier_warnings += len(report.warnings)
            race_divs: List[Divergence] = []
            for diag in report.errors:
                div = Divergence(stage, "verify", diag.render())
                result.divergences.append(div)
                if diag.analysis == "races":
                    race_divs.append(div)
            # Cross-wire: hunt the schedule space for an interleaving
            # witnessing each statically-reported race.
            if race_divs and (opts.schedules or opts.schedule_seeds):
                _confirm_verify_races(stage, ck, arrays, race_divs, opts,
                                      result)

    # 3. printer round-trip: printed source re-parses, re-checks, and
    #    re-interprets to this stage's own outputs.
    if opts.check_roundtrip:
        try:
            reparsed = parse_kernel(print_kernel(ck.kernel))
            check_kernel(reparsed, mode="optimized")
        except Exception as exc:
            result.divergences.append(
                Divergence(stage, "roundtrip", _describe(exc)))
            return
        redo = run(reparsed, *launch[1:], backend=opts.exec_backend())
        mismatch = compare(redo, out)
        if mismatch:
            result.divergences.append(
                Divergence(stage, "roundtrip", "reprinted kernel differs: "
                           + mismatch))
