"""Dynamic profiler (repro.obs.profile), drift gate, and profile CLI.

The pinned counter values below are the profiler's contract: they were
measured once on both backends, cross-checked bit-for-bit, and hand
checked against the paper's Section 3.2 accounting (e.g. naive tp's
column-major store costs 16 transactions per half warp until +coalesce
tiles it).  A pin moving means the simulator's memory model changed —
that must be deliberate.
"""

import json

import numpy as np
import pytest

from repro.fuzz.corpus import load_corpus
from repro.fuzz.oracle import (OracleOptions, make_arrays, reference_config,
                               run_case)
from repro.lang.parser import parse_kernel
from repro.lang.semantic import check_kernel
from repro.machine import GTX280
from repro.obs.envelope import validate_envelope
from repro.obs.profile import PROFILE_SCHEMA, ProfileCollector
from repro.obs.report import (DRIFT_TOLERANCE, GATED_METRICS, StaticCounters,
                              drift_rows, profile_algorithm, render_stage)
from repro.sim.backend import run_kernel
from repro.sim.interp import LaunchConfig

import os

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
BACKENDS = ("lockstep", "vectorized")

#: Program totals (transactions, barriers) per cumulative stage, scale 32.
MM_STAGE_PINS = {
    "naive": (4160, 0),
    "+vectorize": (4160, 0),
    "+coalesce": (2240, 4096),
    "+merge": (256, 256),
    "+prefetch": (256, 256),
    "+partition": (256, 256),
}
TP_STAGE_PINS = {
    "naive": (1088, 0),
    "+vectorize": (1088, 0),
    "+coalesce": (128, 1024),
    "+merge": (128, 1024),
    "+prefetch": (128, 1024),
    "+partition": (128, 1024),
}

#: Naive-launch global transactions per corpus case (both backends).
CORPUS_PINS = {
    "regress_cast_guarded_store": 128,
    "regress_cast_plain_store": 128,
    "regress_fz_colwalk_0_40": 50,
    "regress_fz_rowbcast_0_36": 432,
    "seed_broadcast": 130,
    "seed_colwalk": 1090,
    "seed_elementwise": 4,
    "seed_guarded": 608,
    "seed_pairwise": 20,
    "seed_rowbcast": 1040,
    "seed_rowbcast2": 1040,
    "seed_stencil": 408,
    "seed_stencil2": 204,
    "seed_transpose": 1152,
}

BANK_SRC = """
__global__ void bank(float a[n], int n) {
    __shared__ float s[64];
    s[2 * tidx] = a[idx];
    __syncthreads();
    a[idx] = s[2 * tidx];
}
"""


def profile_raw(source, config, sizes, backend):
    """Profile a hand-written (already optimized-form) kernel launch."""
    kernel = parse_kernel(source)
    check_kernel(kernel, mode="optimized")
    n = sizes["n"]
    arrays = {"a": np.arange(n, dtype=np.float32)}
    collector = ProfileCollector(kernel, config)
    used = run_kernel(kernel, config, arrays, sizes, backend=backend,
                      profile=collector)
    return collector.finalize(used)


@pytest.fixture(scope="module")
def mm_reports():
    return {r.stage: r for r in profile_algorithm("mm", 32)}


@pytest.fixture(scope="module")
def tp_reports():
    return {r.stage: r for r in profile_algorithm("tp", 32)}


@pytest.fixture(scope="module")
def rd_report():
    (report,) = profile_algorithm("rd", 32768)
    return report


class TestBankConflicts:
    """The 16-bank model: a stride-2 walk costs one extra cycle per warp."""

    def test_stride_two_shared_access_conflicts(self):
        config = LaunchConfig(grid=(1, 1), block=(32, 1))
        prof = profile_raw(BANK_SRC, config, {"n": 32}, "lockstep")
        # 2 half-warps x 2 sites x (degree 2 - 1) extra cycles.
        assert prof.shared_conflict_cycles == 4
        shared_sites = [s for s in prof.sites if s.space == "shared"]
        assert [s.conflict_cycles for s in shared_sites] == [2, 2]
        assert prof.barriers == 32          # one __syncthreads, 32 threads
        # The global traffic stays perfectly coalesced.
        assert all(s.coalesced for s in prof.sites if s.space == "global")

    def test_conflicts_identical_across_backends(self):
        config = LaunchConfig(grid=(1, 1), block=(32, 1))
        lock = profile_raw(BANK_SRC, config, {"n": 32}, "lockstep")
        vec = profile_raw(BANK_SRC, config, {"n": 32}, "vectorized")
        assert lock.first_mismatch(vec) is None

    def test_padded_tile_is_conflict_free(self, tp_reports):
        # tp's +coalesce stage pads its transpose tile to 17 columns —
        # the dynamic model must agree the padding removed all conflicts.
        prof = tp_reports["+coalesce"].launches[0].any_profile()
        assert prof.shared_conflict_cycles == 0
        assert any(s.space == "shared" for s in prof.sites)


class TestStagePins:
    """Counter pins for the suite kernels at every cumulative stage."""

    def test_mm_transactions_and_barriers(self, mm_reports):
        got = {stage: (int(r.measured_total["global_transactions"]),
                       int(r.measured_total["barriers"]))
               for stage, r in mm_reports.items()}
        assert got == MM_STAGE_PINS

    def test_tp_transactions_and_barriers(self, tp_reports):
        got = {stage: (int(r.measured_total["global_transactions"]),
                       int(r.measured_total["barriers"]))
               for stage, r in tp_reports.items()}
        assert got == TP_STAGE_PINS

    def test_tp_coalesce_stage_fixes_the_store(self, tp_reports):
        # Naive tp: the column-major access costs 16 transactions per
        # half-warp instance (one segment per lane).  After +coalesce the
        # whole kernel runs fully coalesced.
        naive = tp_reports["naive"].launches[0].any_profile()
        bad = [s for s in naive.sites
               if s.space == "global" and s.coalesced is False]
        assert bad and all(
            s.transactions == 16 * s.instances for s in bad)
        tiled = tp_reports["+coalesce"].launches[0].any_profile()
        assert all(s.coalesced for s in tiled.sites if s.space == "global")

    def test_no_backend_mismatch_anywhere(self, mm_reports, tp_reports,
                                          rd_report):
        reports = list(mm_reports.values()) + list(tp_reports.values())
        reports.append(rd_report)
        assert all(r.backend_mismatch is None for r in reports)

    def test_rd_fission_program_totals(self, rd_report):
        total = rd_report.measured_total
        assert int(total["global_transactions"]) == 2054
        assert int(total["barriers"]) == 11520
        labels = [l.label for l in rd_report.launches]
        assert labels == ["stage1", "stage2[1]"]
        stage1 = rd_report.launches[0].any_profile()
        assert stage1.global_transactions == 2052
        assert stage1.divergent_branches == 20
        stage2 = rd_report.launches[1].any_profile()
        assert stage2.global_transactions == 2
        assert stage2.divergent_branches == 5


class TestCorpusEquality:
    """Both backends must report bit-identical counters on every case."""

    @pytest.mark.parametrize("case", load_corpus(CORPUS_DIR),
                             ids=lambda c: c.name)
    def test_backends_agree_and_pins_hold(self, case):
        kernel = parse_kernel(case.source)
        arrays = make_arrays(kernel, case)
        config = reference_config(case)
        scalars = {p.name: case.sizes[p.name]
                   for p in kernel.scalar_params()}
        profiles = {}
        for backend in BACKENDS:
            work = {k: v.copy() for k, v in arrays.items()}
            collector = ProfileCollector(kernel, config)
            used = run_kernel(kernel, config, work, scalars,
                              backend=backend, profile=collector)
            profiles[backend] = collector.finalize(used)
        lock, vec = profiles["lockstep"], profiles["vectorized"]
        assert lock.first_mismatch(vec) is None
        assert lock.global_transactions == CORPUS_PINS[case.name]

    def test_guarded_case_counts_divergence(self):
        (case,) = [c for c in load_corpus(CORPUS_DIR)
                   if c.name == "seed_guarded"]
        kernel = parse_kernel(case.source)
        arrays = make_arrays(kernel, case)
        collector = ProfileCollector(kernel, reference_config(case))
        scalars = {p.name: case.sizes[p.name]
                   for p in kernel.scalar_params()}
        used = run_kernel(kernel, reference_config(case), arrays, scalars,
                          backend="lockstep", profile=collector)
        prof = collector.finalize(used)
        assert prof.divergent_branches == 64
        assert 0.0 < prof.guard_fraction < 1.0


class TestOracleProfileCheck:
    """Counter mismatches are first-class fuzz divergences."""

    def test_clean_case_stays_ok_with_profiling(self):
        (case,) = [c for c in load_corpus(CORPUS_DIR)
                   if c.name == "seed_elementwise"]
        result = run_case(case, OracleOptions(check_profile=True))
        assert result.status == "ok"

    def test_counter_mismatch_is_a_profile_divergence(self, monkeypatch):
        from repro.obs.profile import KernelProfile
        monkeypatch.setattr(KernelProfile, "first_mismatch",
                            lambda self, other: "global_transactions: 1 != 2")
        (case,) = [c for c in load_corpus(CORPUS_DIR)
                   if c.name == "seed_elementwise"]
        result = run_case(case, OracleOptions(check_profile=True))
        assert result.status == "divergent"
        kinds = {d.kind for d in result.divergences}
        assert "profile" in kinds


class TestDriftGate:
    """Static Section 3.2 predictions vs measured counters."""

    def test_rows_and_gating(self):
        static = StaticCounters(transactions=100, bytes_moved=6400,
                                conflict_cycles=0, barriers=0)
        measured = {"global_transactions": 100.0, "global_bytes": 9999.0,
                    "shared_conflict_cycles": 0.0, "barriers": 77.0}
        rows = {r.metric: r for r in drift_rows(static, measured)}
        assert set(GATED_METRICS) == {m for m, r in rows.items() if r.gated}
        assert rows["global_transactions"].rel_err == 0.0
        # Info rows never fail, however far off.
        assert rows["global_bytes"].ok(0.0)
        assert rows["barriers"].ok(0.0)

    def test_gated_row_fails_beyond_tolerance(self):
        static = StaticCounters(transactions=150)
        measured = {"global_transactions": 100.0, "global_bytes": 0.0,
                    "shared_conflict_cycles": 0.0, "barriers": 0.0}
        (row,) = [r for r in drift_rows(static, measured)
                  if r.metric == "global_transactions"]
        assert row.rel_err == pytest.approx(0.5)
        assert not row.ok(0.35)
        assert row.ok(0.6)

    def test_mm_and_tp_predictions_track_measurements(self, mm_reports,
                                                      tp_reports):
        # tp is exact at every stage; mm is exact through +merge, and the
        # prefetch prologue's extra predicted fetch stays well inside the
        # gate afterwards.
        for report in tp_reports.values():
            for row in report.drift:
                if row.gated:
                    assert row.rel_err == 0.0, (report.stage, row.metric)
        for stage in ("naive", "+vectorize", "+coalesce", "+merge"):
            for row in mm_reports[stage].drift:
                if row.gated:
                    assert row.rel_err == 0.0, (stage, row.metric)
        for stage in ("+prefetch", "+partition"):
            (trans,) = [r for r in mm_reports[stage].drift
                        if r.metric == "global_transactions"]
            assert trans.rel_err == pytest.approx(0.125)
            assert trans.ok(DRIFT_TOLERANCE)

    def test_rd_within_default_tolerance(self, rd_report):
        assert rd_report.drift_ok(DRIFT_TOLERANCE)
        # ... but the data-dependent stage-2 loop keeps it from being
        # exact; a much tighter gate must fail, proving the gate bites.
        assert not rd_report.drift_ok(0.01)

    def test_render_mentions_verdicts(self, tp_reports):
        naive = "\n".join(render_stage(tp_reports["naive"],
                                       DRIFT_TOLERANCE))
        assert "UNCOALESCED" in naive
        tiled = "\n".join(render_stage(tp_reports["+coalesce"],
                                       DRIFT_TOLERANCE))
        assert "conflict-free" in tiled
        assert "drift vs static model" in tiled


class TestProfileCli:
    def run(self, argv, capsys):
        from repro.obs.report import profile_main
        code = profile_main(argv)
        return code, capsys.readouterr().out

    def test_single_stage_passes(self, capsys):
        code, out = self.run(["mm", "--scale", "32", "--stage", "merge"],
                             capsys)
        assert code == 0
        assert "counters identical across lockstep/vectorized" in out
        assert "coalesced" in out
        assert "0 backend mismatch(es), 0 drift failure(s)" in out

    def test_tight_tolerance_fails_rd(self, capsys):
        code, out = self.run(["rd", "--tolerance", "0.01"], capsys)
        assert code == 1
        assert "1 drift failure(s)" in out

    def test_no_drift_reports_without_failing(self, capsys):
        code, out = self.run(["rd", "--tolerance", "0.01", "--no-drift"],
                             capsys)
        assert code == 0
        assert "not gated" in out

    def test_json_envelope(self, capsys):
        code, out = self.run(["tp", "--scale", "32", "--stage", "coalesce",
                              "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        validate_envelope(doc, PROFILE_SCHEMA,
                          required=("summary", "results"))
        assert doc["summary"]["stages"] == 1
        (result,) = doc["results"]
        assert result["kernel"] == "tp" and result["stage"] == "+coalesce"
        assert all(row["ok"] for row in result["drift"] if row["gated"])

    def test_unknown_kernel_is_usage_error(self, capsys):
        code, _ = self.run(["nosuchkernel"], capsys)
        assert code == 2


class TestExploreIntegration:
    def test_sim_measure_attaches_profiles(self, mm_source):
        from repro.explore import explore
        sizes = {"n": 64, "m": 64, "w": 64}
        res = explore(mm_source, sizes, (64, 64), GTX280,
                      block_factors=(4,), thread_factors=(1, 4),
                      measure="sim", backend="vectorized")
        feasible = [v for v in res.versions if v.feasible]
        assert feasible and all(v.profile is not None for v in feasible)
        # More merging must not increase measured global traffic.
        by_tm = {v.thread_merge: v.profile.global_transactions
                 for v in feasible}
        assert by_tm[4] <= by_tm[1]

    def test_model_measure_leaves_profiles_unset(self, mm_source):
        from repro.explore import explore
        sizes = {"n": 64, "m": 64, "w": 64}
        res = explore(mm_source, sizes, (64, 64), GTX280,
                      block_factors=(4,), thread_factors=(1,))
        assert all(v.profile is None for v in res.versions)
