"""The resilience subsystem: checkpoints, faults, rollback, validation."""

import json

import numpy as np
import pytest

from repro.compiler import CompileOptions, compile_kernel, naive_launch
from repro.kernels.suite import ALGORITHMS
from repro.lang.parser import parse_kernel
from repro.passes.base import CompilationContext, PassError
from repro.resilience import (
    Checkpoint,
    FaultPlan,
    FaultSpecError,
    InjectedFault,
    PassOutcome,
    ResilienceReport,
    corrupt_kernel,
    parse_fault,
    synth_arrays,
)
from repro.sim.differential import compare as _first_mismatch
from repro.sim.differential import run
from tests.conftest import MM_SRC, TP_SRC

SIM_BACKENDS = ("lockstep", "vectorized")

#: Every standard-pipeline site the chaos tests sweep.
PIPELINE_SITES = ("vectorize", "coalesce", "merge", "partition",
                  "prefetch", "simplify")


def _suite(name):
    alg = ALGORITHMS[name]
    sizes = alg.sizes(alg.test_scale)
    return alg, sizes, alg.domain(sizes)


def _naive_outputs(source, sizes, domain):
    """Inputs plus the naive kernel's outputs on them (exact integers)."""
    from repro.machine import GTX280

    naive = parse_kernel(source)
    base = synth_arrays(naive, sizes)
    ref = run(naive, naive_launch(domain, GTX280), base, sizes,
              backend="auto")
    return base, ref.outputs


class TestFaultPlan:
    def test_parse_single_spec(self):
        fault = parse_fault("raise:merge")
        assert fault.kind == "raise" and fault.site == "merge"

    def test_parse_rejects_bad_kind(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            parse_fault("explode:merge")

    def test_parse_rejects_bad_site(self):
        with pytest.raises(FaultSpecError, match="unknown fault site"):
            parse_fault("raise:nowhere")

    def test_parse_rejects_missing_site(self):
        with pytest.raises(FaultSpecError):
            parse_fault("raise")

    def test_plan_parses_comma_and_space_lists(self):
        plan = FaultPlan.parse("raise:merge, corrupt:coalesce budget:prefetch")
        assert sorted(plan.specs()) == ["budget:prefetch", "corrupt:coalesce",
                                        "raise:merge"]

    def test_plan_from_env(self):
        plan = FaultPlan.from_env({"REPRO_FAULTS": "raise:vectorize"})
        assert plan.specs() == ["raise:vectorize"]
        assert not FaultPlan.from_env({})

    def test_faults_are_one_shot(self):
        plan = FaultPlan.parse("raise:merge")
        with pytest.raises(InjectedFault):
            plan.check_raise("merge")
        # Consumed: a retry of the same site does not re-fire.
        plan.check_raise("merge")
        assert plan.fired and not plan.pending

    def test_trip_only_matches_site_and_kind(self):
        plan = FaultPlan.parse("corrupt:coalesce")
        assert not plan.trip("corrupt", "merge")
        assert not plan.trip("raise", "coalesce")
        assert plan.trip("corrupt", "coalesce")

    def test_corrupt_kernel_offsets_an_index(self):
        kernel = parse_kernel(MM_SRC)
        before = [str(s) for s in kernel.body]
        desc = corrupt_kernel(kernel)
        assert desc is not None and "+1" in desc
        assert [str(s) for s in kernel.body] != before


class TestCheckpoint:
    def test_restore_roundtrip(self):
        alg, sizes, domain = _suite("mm")
        from repro.lang.printer import print_kernel
        from repro.passes.coalesce_transform import CoalesceTransformPass

        ctx = CompilationContext(kernel=parse_kernel(alg.source),
                                 sizes=dict(sizes), domain=domain)
        source_before = print_kernel(ctx.kernel)
        ckpt = Checkpoint(ctx)
        CoalesceTransformPass(block=(16, 1))(ctx)
        assert ckpt.changed(ctx)
        ckpt.restore(ctx)
        assert print_kernel(ctx.kernel) == source_before
        assert not ckpt.changed(ctx)
        assert not ctx.staged_loads and ctx.main_loop is None

    def test_no_op_pass_is_unchanged(self):
        # Vectorize is a no-op on mm (no float2 pair layout): the guard
        # must see "unchanged" so validation is skipped for it.
        alg, sizes, domain = _suite("mm")
        from repro.passes.vectorize import VectorizePass

        ctx = CompilationContext(kernel=parse_kernel(alg.source),
                                 sizes=dict(sizes), domain=domain)
        ckpt = Checkpoint(ctx)
        VectorizePass()(ctx)
        assert not ckpt.changed(ctx)

    def test_restore_resolves_staged_load_identity(self):
        # After restore, ctx.main_loop and StagedLoad.load_stmts must
        # point into the *restored* tree, not the abandoned one.
        alg, sizes, domain = _suite("mm")
        from repro.lang.astnodes import walk_stmts
        from repro.passes.coalesce_transform import CoalesceTransformPass

        ctx = CompilationContext(kernel=parse_kernel(alg.source),
                                 sizes=dict(sizes), domain=domain)
        CoalesceTransformPass(block=(16, 1))(ctx)
        assert ctx.staged_loads and ctx.main_loop is not None
        ckpt = Checkpoint(ctx)
        from repro.passes.merge import ThreadMergePass
        ThreadMergePass("y", 4)(ctx)
        ckpt.restore(ctx)
        stmts = list(walk_stmts(ctx.kernel.body))
        assert any(s is ctx.main_loop for s in stmts)
        for sl in ctx.staged_loads:
            for load in sl.load_stmts:
                assert any(s is load for s in stmts)

    def test_checkpoint_reusable_after_restore(self):
        alg, sizes, domain = _suite("mm")
        from repro.passes.coalesce_transform import CoalesceTransformPass

        ctx = CompilationContext(kernel=parse_kernel(alg.source),
                                 sizes=dict(sizes), domain=domain)
        ckpt = Checkpoint(ctx)
        for _ in range(2):
            CoalesceTransformPass(block=(16, 1))(ctx)
            ckpt.restore(ctx)
            assert not ckpt.changed(ctx)


class TestRollbackRecovery:
    """Every pass's failure path: rollback event + bit-identical output."""

    @pytest.mark.parametrize("site", PIPELINE_SITES)
    def test_raise_fault_rolls_back_and_recovers(self, site):
        alg, sizes, domain = _suite("mm")
        plan = FaultPlan.parse(f"raise:{site}")
        compiled = compile_kernel(
            alg.source, sizes, domain,
            options=CompileOptions(resilient=True, faults=plan))
        report = compiled.resilience
        assert report is not None
        outcome = report.outcome(site)
        assert outcome is not None and outcome.status == "dropped"
        assert outcome.cause == "fault"
        rollbacks = [e for e in compiled.trace.events if e.kind == "rollback"]
        assert any(e.details.get("site") == site for e in rollbacks)

        base, ref = _naive_outputs(alg.source, sizes, domain)
        for backend in SIM_BACKENDS:
            work = {k: v.copy() for k, v in base.items()}
            compiled.run(work, backend=backend)
            assert _first_mismatch(work, ref) is None, backend

    def test_unexpected_exception_rolls_back(self, monkeypatch):
        # A plain bug (TypeError) inside a pass must degrade, not abort.
        alg, sizes, domain = _suite("mm")
        from repro.passes import prefetch as prefetch_mod

        def boom(self, ctx):
            raise TypeError("pass bug")

        monkeypatch.setattr(prefetch_mod.PrefetchPass, "run", boom)
        compiled = compile_kernel(alg.source, sizes, domain,
                                  options=CompileOptions(resilient=True))
        outcome = compiled.resilience.outcome("prefetch")
        assert outcome.status == "dropped" and outcome.cause == "error"
        assert "TypeError" in outcome.detail

    def test_budget_fault_rolls_back(self):
        alg, sizes, domain = _suite("mm")
        plan = FaultPlan.parse("budget:coalesce")
        compiled = compile_kernel(
            alg.source, sizes, domain,
            options=CompileOptions(resilient=True, faults=plan))
        outcome = compiled.resilience.outcome("coalesce")
        assert outcome.status == "dropped" and outcome.cause == "budget"
        # Coalesce rollback forces its dependents off.
        assert compiled.resilience.outcome("merge").cause == "dependency"
        assert compiled.resilience.outcome("prefetch").cause == "dependency"

    def test_real_budget_overrun_rolls_back(self):
        alg, sizes, domain = _suite("mm")
        compiled = compile_kernel(
            alg.source, sizes, domain,
            options=CompileOptions(resilient=True, pass_budget_s=0.0))
        # A zero budget fails every site; the floor of the ladder is the
        # naive kernel, which must still compile and run.
        assert compiled.resilience.dropped
        base, ref = _naive_outputs(alg.source, sizes, domain)
        work = {k: v.copy() for k, v in base.items()}
        compiled.run(work)
        assert _first_mismatch(work, ref) is None

    def test_all_sites_faulted_still_compiles(self):
        alg, sizes, domain = _suite("mm")
        plan = FaultPlan.parse(
            " ".join(f"raise:{s}" for s in PIPELINE_SITES))
        compiled = compile_kernel(
            alg.source, sizes, domain,
            options=CompileOptions(resilient=True, faults=plan))
        report = compiled.resilience
        dropped = {o.site for o in report.dropped}
        # Sites whose pass never ran (dependencies) are skipped instead.
        skipped = {o.site for o in report.skipped}
        assert dropped | skipped >= {"vectorize", "coalesce", "merge",
                                     "prefetch"}
        base, ref = _naive_outputs(alg.source, sizes, domain)
        for backend in SIM_BACKENDS:
            work = {k: v.copy() for k, v in base.items()}
            compiled.run(work, backend=backend)
            assert _first_mismatch(work, ref) is None, backend

    def test_non_resilient_fault_propagates(self):
        alg, sizes, domain = _suite("mm")
        plan = FaultPlan.parse("raise:coalesce")
        with pytest.raises(InjectedFault):
            compile_kernel(alg.source, sizes, domain,
                           options=CompileOptions(faults=plan))

    def test_default_pipeline_unchanged_by_resilience(self):
        # NullGuard passthrough: the non-resilient compile of mm must be
        # byte-for-byte what it always was.
        alg, sizes, domain = _suite("mm")
        plain = compile_kernel(alg.source, sizes, domain)
        resilient = compile_kernel(alg.source, sizes, domain,
                                   options=CompileOptions(resilient=True))
        assert plain.source == resilient.source
        assert plain.config.block == resilient.config.block
        assert plain.resilience is None
        assert len(plain.attempts) == 1 and plain.attempts[0].ok


class TestValidatedMode:
    def test_corrupt_fault_caught_by_validation(self):
        alg, sizes, domain = _suite("mm")
        plan = FaultPlan.parse("corrupt:coalesce")
        compiled = compile_kernel(
            alg.source, sizes, domain,
            options=CompileOptions(validate=True, faults=plan))
        outcome = compiled.resilience.outcome("coalesce")
        assert outcome.status == "dropped" and outcome.cause == "validate"
        base, ref = _naive_outputs(alg.source, sizes, domain)
        work = {k: v.copy() for k, v in base.items()}
        compiled.run(work)
        assert _first_mismatch(work, ref) is None

    def test_corrupt_fault_ships_without_validation(self):
        # The control: the same miscompile survives a non-validated
        # resilient compile, proving the validator is what catches it.
        alg, sizes, domain = _suite("mm")
        plan = FaultPlan.parse("corrupt:coalesce")
        compiled = compile_kernel(
            alg.source, sizes, domain,
            options=CompileOptions(resilient=True, faults=plan))
        assert compiled.resilience.outcome("coalesce").status == "kept"
        base, ref = _naive_outputs(alg.source, sizes, domain)
        work = {k: v.copy() for k, v in base.items()}
        try:
            compiled.run(work)
            diverged = _first_mismatch(work, ref) is not None
        except Exception:
            diverged = True   # the corrupt index may simply crash
        assert diverged

    def test_validate_keeps_clean_pipeline(self):
        alg, sizes, domain = _suite("tp")
        compiled = compile_kernel(alg.source, sizes, domain,
                                  options=CompileOptions(validate=True))
        assert not compiled.resilience.dropped
        assert compiled.resilience.validated

    def test_validate_implies_resilient(self):
        alg, sizes, domain = _suite("mm")
        compiled = compile_kernel(alg.source, sizes, domain,
                                  options=CompileOptions(validate=True))
        assert compiled.resilience is not None


def _skip_events(compiled):
    return [e for e in compiled.trace.events if e.rule == "validate.skipped"]


class TestValidationSkip:
    """A validated compile that simulates no pass says so, once."""

    def test_strsm_reference_raise_is_recorded(self):
        # strsm divides by a[i][i], which the synthesized inputs draw as 0.
        alg = ALGORITHMS["strsm"]
        sizes = {"n": 48, "m": 48}
        compiled = compile_kernel(alg.source, sizes, alg.domain(sizes),
                                  options=CompileOptions(validate=True))
        report = compiled.resilience
        assert report.validated
        assert "ZeroDivisionError" in report.validation_skipped
        assert report.to_dict()["validation_skipped"] \
            == report.validation_skipped
        [event] = _skip_events(compiled)
        assert event.details["cause"] == report.validation_skipped

    def test_mm_above_work_limit_is_recorded(self):
        alg = ALGORITHMS["mm"]
        sizes = alg.sizes(512)
        compiled = compile_kernel(alg.source, sizes, alg.domain(sizes),
                                  options=CompileOptions(validate=True))
        skipped = compiled.resilience.validation_skipped
        assert "DYNAMIC_WORK_LIMIT" in skipped
        assert len(_skip_events(compiled)) == 1

    def test_mm_at_test_scale_records_no_skip(self):
        alg, sizes, domain = _suite("mm")
        compiled = compile_kernel(alg.source, sizes, domain,
                                  options=CompileOptions(validate=True))
        assert compiled.resilience.validation_skipped is None
        assert "validation_skipped" not in compiled.resilience.to_dict()
        assert not _skip_events(compiled)


class TestReductionResilience:
    def test_raise_fault_recovers_with_degraded_plan(self):
        from repro.kernels import naive
        from repro.reduction import compile_reduction

        n = 1 << 12
        compiled = compile_reduction(
            naive.RD, n, resilient=True,
            faults=FaultPlan.parse("raise:reduction"))
        assert compiled.resilience[0].get("error")
        assert compiled.resilience[-1].get("ok")
        assert compiled.plan.thread_merge == 16   # one rung down from 32
        rng = np.random.default_rng(7)
        data = rng.integers(0, 8, n).astype(np.float32)
        expected = float(data.sum(dtype=np.float64))
        for backend in SIM_BACKENDS:
            assert compiled.run(data.copy(), backend=backend) == expected

    def test_corrupt_fault_caught_by_validation(self):
        from repro.kernels import naive
        from repro.reduction import compile_reduction

        n = 1 << 12
        compiled = compile_reduction(
            naive.RD, n, resilient=True, validate=True,
            faults=FaultPlan.parse("corrupt:reduction"))
        assert any("error" in a for a in compiled.resilience)
        rng = np.random.default_rng(8)
        data = rng.integers(0, 8, n).astype(np.float32)
        assert compiled.run(data.copy()) == float(data.sum(dtype=np.float64))

    def test_non_resilient_validation_mismatch_raises(self):
        from repro.kernels import naive
        from repro.reduction import compile_reduction

        with pytest.raises((PassError, Exception)):
            compile_reduction(naive.RD, 1 << 12, validate=True,
                              faults=FaultPlan.parse("corrupt:reduction"))


class TestReportAndTrace:
    def test_report_validates_status_and_cause(self):
        report = ResilienceReport(target_threads=256)
        with pytest.raises(ValueError):
            report.record(PassOutcome(site="merge", status="exploded"))
        with pytest.raises(ValueError):
            report.record(PassOutcome(site="merge", status="dropped",
                                      cause="gremlins"))

    def test_rollback_event_serializes(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        event = tracer.rollback("resilience: rolled back merge",
                                site="merge", cause="fault")
        assert event.kind == "rollback"
        assert event in tracer.decisions
        payload = json.loads(json.dumps(event.to_dict()))
        assert payload["details"]["site"] == "merge"
        assert payload["details"]["cause"] == "fault"
        assert payload["rule"] == "resilience.rollback"

    def test_resilience_envelope_roundtrip(self):
        from repro.obs.envelope import validate_envelope
        from repro.resilience.report import resilience_envelope

        report = ResilienceReport(target_threads=128, validated=True)
        report.record(PassOutcome(site="merge", status="dropped",
                                  cause="fault", detail="injected"))
        env = resilience_envelope([{"kernel": "mm", "status": "ok",
                                    "report": report.to_dict()}],
                                  command="resilience", exit_code=0,
                                  summary={"checked": 1, "failed": 0})
        validate_envelope(env, "repro.resilience/1")
        doc = json.loads(json.dumps(env))
        assert doc["kernels"][0]["report"]["sites"][0]["cause"] == "fault"

    def test_attempts_attached_to_compiled_kernel(self):
        alg, sizes, domain = _suite("mm")
        compiled = compile_kernel(alg.source, sizes, domain,
                                  options=CompileOptions(resilient=True))
        assert len(compiled.attempts) == 1
        assert compiled.attempts[0].ok
        assert compiled.attempts[0].target_threads == 256

    def test_summary_line_names_drops(self):
        alg, sizes, domain = _suite("mm")
        compiled = compile_kernel(
            alg.source, sizes, domain,
            options=CompileOptions(resilient=True,
                                   faults=FaultPlan.parse("raise:merge")))
        line = compiled.resilience.summary_line()
        assert "merge[fault]" in line


class TestDegradationLadder:
    def test_pass_error_still_retries_blocks_first(self):
        # TP at 16x16 forces the coalesce pass to reject larger targets:
        # resilient mode must preserve the halve-the-block outer rung
        # (same final block as the non-resilient compile), not greedily
        # roll back coalesce at the first PassError.
        alg, sizes, domain = _suite("tp")
        plain = compile_kernel(alg.source, sizes, domain)
        resilient = compile_kernel(alg.source, sizes, domain,
                                   options=CompileOptions(resilient=True))
        assert resilient.config.block == plain.config.block
        assert resilient.source == plain.source

    def test_floor_when_everything_fails(self, monkeypatch):
        # Force every rung to fail with a resource PassError: resilient
        # mode must land on the all-optimizations-off floor instead of
        # raising.
        import repro.compiler as compiler_mod

        real_once = compiler_mod._compile_once

        def failing_once(naive, sizes, domain, machine, options,
                         attempts=None, floor=False):
            if not floor:
                if attempts is not None:
                    attempts.append(compiler_mod.CompileAttempt(
                        target_threads=options.target_threads,
                        trace=None, error="forced failure"))
                raise PassError("forced failure")
            return real_once(naive, sizes, domain, machine, options,
                             attempts=attempts, floor=floor)

        monkeypatch.setattr(compiler_mod, "_compile_once", failing_once)
        alg, sizes, domain = _suite("mm")
        compiled = compiler_mod.compile_kernel(
            alg.source, sizes, domain,
            options=CompileOptions(resilient=True))
        assert compiled.resilience.floor
        assert compiled.attempts[-1].floor
        base, ref = _naive_outputs(alg.source, sizes, domain)
        work = {k: v.copy() for k, v in base.items()}
        compiled.run(work)
        assert _first_mismatch(work, ref) is None

    def test_non_resilient_exhaustion_still_raises(self, monkeypatch):
        import repro.compiler as compiler_mod

        def always_fail(*a, **kw):
            raise PassError("nope")

        monkeypatch.setattr(compiler_mod, "_compile_once", always_fail)
        alg, sizes, domain = _suite("mm")
        with pytest.raises(PassError):
            compiler_mod.compile_kernel(alg.source, sizes, domain)


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "mm.cu"
    path.write_text(MM_SRC)
    return str(path)


def run_cli(capsys, *args):
    from repro.__main__ import main

    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MM_ARGS = ("--size", "n=64", "--size", "m=64", "--size", "w=64",
           "--domain", "64x64")


class TestResilienceCli:
    def test_subcommand_json_envelope(self, capsys):
        from repro.obs.envelope import validate_envelope

        code, out, _ = run_cli(capsys, "resilience", "mm", "--json",
                               "--no-validate")
        assert code == 0
        env = json.loads(out)
        validate_envelope(env, "repro.resilience/1")
        assert env["summary"]["failed"] == 0
        assert env["kernels"][0]["kernel"] == "mm"
        assert env["kernels"][0]["bit_identical"] is True

    def test_subcommand_inject_drops_site(self, capsys):
        code, out, _ = run_cli(capsys, "resilience", "mm", "--inject",
                               "raise:merge", "--no-validate")
        assert code == 0
        assert "dropped: merge" in out

    def test_subcommand_bad_inject_spec(self, capsys):
        code, _, err = run_cli(capsys, "resilience", "mm", "--inject",
                               "frobnicate:merge")
        assert code == 2
        assert "unknown fault kind" in err

    def test_subcommand_unknown_kernel(self, capsys):
        code, _, err = run_cli(capsys, "resilience", "nosuch")
        assert code == 2
        assert "unknown kernel" in err

    def test_chaos_matrix_reduction(self, capsys):
        # The reduction slice of the chaos matrix: 3 fault kinds plus a
        # clean compile, each recovering to the exact integer sum.
        code, out, _ = run_cli(capsys, "resilience", "rd", "--chaos")
        assert code == 0
        assert "4 compile(s) checked (chaos mode" in out
        assert "0 failure(s)" in out

    def test_compile_resilient_summary_line(self, kernel_file, capsys):
        code, out, _ = run_cli(capsys, kernel_file, *MM_ARGS,
                               "--resilient", "--inject", "raise:merge")
        assert code == 0
        assert "// resilience:" in out
        assert "merge[fault]" in out

    def test_compile_explain_shows_rollback(self, kernel_file, capsys):
        code, out, _ = run_cli(capsys, kernel_file, *MM_ARGS,
                               "--resilient", "--inject", "raise:merge",
                               "--explain")
        assert code == 0
        assert "rolled back merge" in out

    def test_env_var_arms_faults(self, kernel_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise:merge")
        code, out, _ = run_cli(capsys, kernel_file, *MM_ARGS, "--resilient")
        assert code == 0
        assert "merge[fault]" in out

    def test_unhandled_fault_exits_70(self, kernel_file, capsys):
        # Without --resilient an injected fault is an ordinary unexpected
        # exception: the top-level handler turns it into one structured
        # stderr line and EX_SOFTWARE.
        code, out, err = run_cli(capsys, kernel_file, *MM_ARGS,
                                 "--inject", "raise:coalesce")
        assert code == 70
        assert err.startswith("repro: internal error [InjectedFault]")
        assert "Traceback" not in err

    def test_semantic_error_still_exits_1(self, tmp_path, capsys):
        # SemanticError keeps its historical exit code; 70 is only for
        # *unexpected* exceptions.
        path = tmp_path / "bad.cu"
        path.write_text(
            "__global__ void f(float a[n], int n) { a[idx] = q; }")
        code, _, err = run_cli(capsys, str(path), "--size", "n=64",
                               "--domain", "64")
        assert code == 1
        assert "internal error" not in err


class TestFuzzInterrupt:
    def test_partial_envelope_on_keyboard_interrupt(self, capsys,
                                                    monkeypatch):
        import repro.fuzz.cli as fuzz_cli
        from repro.fuzz.oracle import CaseResult
        from repro.obs.envelope import validate_envelope

        calls = {"n": 0}

        def fake_run_case(case, opts):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            return CaseResult(case=case, status="ok")

        monkeypatch.setattr(fuzz_cli, "run_case", fake_run_case)
        code, out, _ = run_cli(capsys, "fuzz", "--count", "5",
                               "--no-write", "--json")
        assert code == 130
        env = json.loads(out)
        validate_envelope(env, "repro.fuzz/1")
        assert env["interrupted"] is True
        assert env["summary"]["completed"] == 1
        assert len(env["cases"]) == 1

    def test_interrupt_text_summary(self, capsys, monkeypatch):
        import repro.fuzz.cli as fuzz_cli

        def fake_run_case(case, opts):
            raise KeyboardInterrupt

        monkeypatch.setattr(fuzz_cli, "run_case", fake_run_case)
        code, out, _ = run_cli(capsys, "fuzz", "--count", "5", "--no-write")
        assert code == 130
        assert "(interrupted after 0)" in out
