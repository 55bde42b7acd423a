"""The differential oracle and the automatic case reducer.

The end-to-end property — "a deliberately broken pass is caught and
the failing kernel shrinks to a handful of lines" — is tested by
re-introducing a real bug class: dropping the barrier between the
G2S loads and the compute loop that CoalesceTransform emits.
"""

import pytest

from repro.fuzz.corpus import KernelCase
from repro.fuzz.grammar import generate_case
from repro.fuzz.oracle import (
    STAGE_NAMES,
    CaseResult,
    OracleOptions,
    ScheduleInterrupted,
    case_seed,
    make_arrays,
    run_case,
)
from repro.fuzz.reduce import reduce_case, source_lines
from repro.lang.astnodes import SyncStmt
from repro.lang.parser import parse_kernel
from repro.passes.coalesce_transform import CoalesceTransformPass

MM_LIKE = KernelCase(
    name="mm_like",
    source="""
__global__ void mm_like(float a[n][w], float b[w][m], float c[n][m],
                        int n, int m, int w) {
    float s = 0.0f;
    for (int i = 0; i < w; i = i + 1) {
        s += a[idy][i] * b[i][idx];
    }
    c[idy][idx] = s;
}
""",
    sizes={"n": 32, "m": 32, "w": 32},
    domain=(32, 32),
)


@pytest.fixture
def broken_coalesce(monkeypatch):
    """CoalesceTransform that forgets the barrier after its G2S loads."""
    orig = CoalesceTransformPass.run

    def broken(self, ctx):
        orig(self, ctx)
        loop = ctx.main_loop
        if loop is not None:
            for i, stmt in enumerate(loop.body):
                if isinstance(stmt, SyncStmt):
                    del loop.body[i]
                    break

    monkeypatch.setattr(CoalesceTransformPass, "run", broken)


class TestOracle:
    def test_clean_case_is_ok(self):
        result = run_case(MM_LIKE)
        assert result.ok
        assert result.stages_checked == list(STAGE_NAMES)
        assert result.divergences == []

    def test_semantic_error_is_divergence(self):
        case = KernelCase(
            name="bad", sizes={"n": 16}, domain=(16, 1),
            source="__global__ void bad(float a[n], int n) { a[idx] = q; }")
        result = run_case(case)
        assert result.status == "divergent"
        assert result.divergences[0].kind == "semantic"

    def test_global_sync_kernel_is_rejected_not_divergent(self):
        case = KernelCase(
            name="rd", sizes={"n": 64}, domain=(64, 1), source="""
#pragma output a
__global__ void rd(float a[n], int n) {
    for (int s = n / 2; s > 0; s = s / 2) {
        if (idx < s)
            a[idx] += a[idx + s];
        __global_sync();
    }
}
""")
        result = run_case(case)
        assert result.status == "rejected"
        assert result.reject_reason

    def test_inputs_are_deterministic_and_integer_valued(self):
        kernel = parse_kernel(MM_LIKE.source)
        a1 = make_arrays(kernel, MM_LIKE)
        a2 = make_arrays(kernel, MM_LIKE)
        assert case_seed(MM_LIKE) == case_seed(MM_LIKE)
        for name in a1:
            assert (a1[name] == a2[name]).all()
            assert (a1[name] == a1[name].astype(int)).all()
        assert not a1["c"].any()          # outputs start zeroed

    def test_stage_restriction(self):
        opts = OracleOptions(stages=("naive", "+coalesce"))
        result = run_case(MM_LIKE, opts)
        assert result.ok
        assert result.stages_checked == ["naive", "+coalesce"]

    def test_broken_pass_is_caught(self, broken_coalesce):
        result = run_case(MM_LIKE)
        assert result.status == "divergent"
        kinds = {d.kind for d in result.divergences}
        # The missing barrier surfaces as a verifier race at least; with
        # the interpreter's phase order it also corrupts the outputs.
        assert "verify" in kinds or "output" in kinds
        stages = {d.stage for d in result.divergences}
        assert stages <= set(STAGE_NAMES)


class TestReducer:
    def test_ok_case_is_returned_unchanged(self):
        reduced, attempts = reduce_case(MM_LIKE)
        assert reduced is MM_LIKE
        assert attempts == 0

    def test_broken_pass_case_shrinks(self, broken_coalesce):
        case = generate_case(0, 36)        # a rowbcast kernel
        base = run_case(case)
        assert base.status == "divergent"
        reduced, attempts = reduce_case(case, base_result=base,
                                        max_attempts=120)
        assert attempts > 0
        assert source_lines(reduced) <= source_lines(case)
        assert source_lines(reduced) <= 10
        # The reduced case still reproduces the same failure mode.
        again = run_case(reduced)
        assert again.status == "divergent"


class TestScheduleOracle:
    def test_clean_case_is_schedule_invariant(self):
        opts = OracleOptions(schedules=3)
        result = run_case(MM_LIKE, opts)
        assert result.ok, [d.render() for d in result.divergences]
        # reference + 6 stages, 3 schedules each.
        assert result.schedule_runs == 3 * (1 + len(STAGE_NAMES))
        assert result.to_dict()["schedule_runs"] == result.schedule_runs

    def test_explicit_seed_list_overrides_count(self):
        opts = OracleOptions(stages=("naive",), schedule_seeds=(4, 1))
        assert opts.schedule_seed_plan() == [(4, "chaos"), (1, "chaos")]
        result = run_case(MM_LIKE, opts)
        assert result.ok
        assert result.schedule_runs == 2 * 2  # reference + naive stage

    def test_dropped_barrier_surfaces_as_schedule_divergence(
            self, broken_coalesce):
        opts = OracleOptions(schedules=6)
        result = run_case(MM_LIKE, opts)
        assert result.status == "divergent"
        schedule_divs = [d for d in result.divergences
                         if d.kind == "schedule"]
        assert schedule_divs, \
            "racy miscompile should diverge under some seeded schedule"
        for div in schedule_divs:
            assert div.meta is not None
            assert div.meta["scheduler"] in ("rr", "random", "chaos")
            assert isinstance(div.meta["seed"], int)
            assert div.meta["yields"] > 0
            assert div.meta["trace_tail"]
            # meta lands in the envelope via to_dict.
            assert div.to_dict()["meta"]["seed"] == div.meta["seed"]

    def test_verifier_race_gets_schedule_confirmation(self,
                                                      broken_coalesce):
        opts = OracleOptions(schedules=6)
        result = run_case(MM_LIKE, opts)
        confirmed = [d for d in result.divergences
                     if d.kind == "verify" and d.meta
                     and "race_confirmation" in d.meta]
        assert confirmed, "race-verify divergences should carry the " \
            "confirm_race verdict when schedules are on"
        for div in confirmed:
            conf = div.meta["race_confirmation"]
            assert conf["confirmed"] is True
            assert "seed" in conf and "scheduler" in conf

    def test_schedule_divergence_shrinks(self, broken_coalesce):
        opts = OracleOptions(stages=("+coalesce",), schedules=3)
        case = generate_case(0, 36)
        base = run_case(case, opts)
        assert base.status == "divergent"
        reduced, attempts = reduce_case(case, opts, base_result=base,
                                        max_attempts=60)
        assert source_lines(reduced) <= source_lines(case)
        again = run_case(reduced, opts)
        assert again.status == "divergent"

    def test_interrupt_is_resumable(self, monkeypatch):
        # A KeyboardInterrupt mid-campaign surfaces as
        # ScheduleInterrupted with the completed/pending seed split.
        from repro.sim import scheduled as sched_mod
        fired = {"n": 0}
        orig = sched_mod.ScheduledInterpreter.run

        def interrupting(self, *args, **kwargs):
            fired["n"] += 1
            if fired["n"] == 3:
                raise KeyboardInterrupt
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(sched_mod.ScheduledInterpreter, "run",
                            interrupting)
        with pytest.raises(ScheduleInterrupted) as info:
            run_case(MM_LIKE, OracleOptions(schedules=5))
        exc = info.value
        assert isinstance(exc, KeyboardInterrupt)
        assert isinstance(exc.result, CaseResult)
        assert exc.completed_seeds == [0, 1]
        assert exc.pending_seeds == [2, 3, 4]
        # Resuming with exactly the pending seeds completes cleanly.
        resumed = run_case(MM_LIKE, OracleOptions(
            schedule_seeds=tuple(exc.pending_seeds)))
        assert resumed.ok


def test_launches_per_corpus_case(monkeypatch):
    # The CI smoke configuration's launch budget per case: the reference
    # plus, per stage, the output run, the profiled run and the
    # round-trip run on lockstep (1 + 6 * 3), and the reference plus the
    # cross-check and the profiled run per stage on vectorized (1 + 6 * 2).
    import os
    from collections import Counter

    from repro.fuzz.corpus import load_corpus
    from repro.sim.interp import Interpreter
    from repro.sim.vectorized import VectorizedInterpreter

    counts = Counter()
    for cls in (Interpreter, VectorizedInterpreter):
        def counting(self, *args, _run=cls.run, _cls=cls, **kwargs):
            counts[_cls.__name__] += 1
            return _run(self, *args, **kwargs)
        monkeypatch.setattr(cls, "run", counting)
    opts = OracleOptions(backend="both", check_profile=True)
    corpus = load_corpus(os.path.join(os.path.dirname(__file__), "corpus"))
    assert len(corpus) == 14
    for case in corpus:
        counts.clear()
        result = run_case(case, opts)
        assert result.ok, [d.render() for d in result.divergences]
        assert (counts["Interpreter"], counts["VectorizedInterpreter"]) \
            == (19, 13), case.name
