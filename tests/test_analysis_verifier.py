"""The verifier facade, diagnostics framework, phase slicing, and the
acceptance criterion: every suite kernel verifies clean at every stage."""

import pytest

from repro.analysis import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    slice_phases,
    verify_compiled,
    verify_kernel,
)
from repro.compiler import CompileOptions, compile_kernel, compile_stages
from repro.kernels.suite import ALGORITHMS
from repro.lang.astnodes import ForStmt, SyncStmt, walk_stmts
from repro.lang.parser import parse_kernel
from repro.passes.base import PassError
from repro.reduction import compile_reduction

NON_GSYNC = sorted(n for n, a in ALGORITHMS.items()
                   if not a.uses_global_sync)


class TestSuiteIsClean:
    @pytest.mark.parametrize("name", NON_GSYNC)
    def test_every_stage_verifies_clean(self, name):
        alg = ALGORITHMS[name]
        sizes = alg.sizes(alg.test_scale)
        stages = compile_stages(alg.source, sizes, alg.domain(sizes))
        for stage, ck in stages.items():
            report = verify_compiled(ck, stage=stage)
            noisy = report.at_least(Severity.WARNING)
            assert noisy == [], \
                f"{name} {stage}:\n{report.render(Severity.INFO)}"

    def test_reduction_stages_verify_clean(self):
        alg = ALGORITHMS["rd"]
        sizes = alg.sizes(alg.test_scale)
        compiled = compile_reduction(alg.source, sizes["n"])
        for launch in compiled.launch_plan():
            report = verify_kernel(launch.kernel, launch.scalars,
                                   block=tuple(launch.config.block),
                                   grid=tuple(launch.config.grid),
                                   stage=launch.label)
            assert report.at_least(Severity.WARNING) == []

    def test_compile_with_verify_option(self):
        alg = ALGORITHMS["mm"]
        sizes = alg.sizes(alg.test_scale)
        ck = compile_kernel(alg.source, sizes, alg.domain(sizes),
                            options=CompileOptions(verify=True))
        assert ck.source


class TestVerifyHook:
    def test_verify_raises_pass_error_on_seeded_race(self):
        # verify_compiled feeds CompileOptions(verify=True): a racy
        # hand-"optimized" kernel must be rejected, not silently compiled.
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            s[tidx / 2] = a[idx];
            __syncthreads();
            a[idx] = s[tidx / 2];
        }
        """
        report = verify_kernel(parse_kernel(src), {"n": 64},
                               block=(16, 1), grid=(4, 1))
        assert report.has_errors

    def test_error_findings_raise_pass_error_via_compiler_hook(self,
                                                               monkeypatch):
        import repro.analysis.verifier as verifier_mod

        alg = ALGORITHMS["mm"]
        sizes = alg.sizes(alg.test_scale)

        def sabotage(compiled, stage="", options=None):
            report = DiagnosticReport()
            report.add(Diagnostic(analysis="races",
                                  severity=Severity.ERROR,
                                  message="injected failure"))
            return report

        import repro.analysis
        monkeypatch.setattr(repro.analysis, "verify_compiled", sabotage)
        with pytest.raises(PassError, match="static verification failed"):
            compile_kernel(alg.source, sizes, alg.domain(sizes),
                           options=CompileOptions(verify=True))

    def test_warnings_land_in_decision_log(self, monkeypatch):
        import repro.analysis

        def warn(compiled, stage="", options=None):
            report = DiagnosticReport()
            report.add(Diagnostic(analysis="banks",
                                  severity=Severity.WARNING,
                                  message="injected warning"))
            return report

        monkeypatch.setattr(repro.analysis, "verify_compiled", warn)
        alg = ALGORITHMS["mm"]
        sizes = alg.sizes(alg.test_scale)
        ck = compile_kernel(alg.source, sizes, alg.domain(sizes),
                            options=CompileOptions(verify=True))
        assert any("injected warning" in line for line in ck.log)


class TestDiagnostics:
    def test_to_dict_is_machine_readable(self):
        d = Diagnostic(analysis="bounds", severity=Severity.ERROR,
                       message="oops", kernel="mm", stage="+merge",
                       array="as", details={"index": 17})
        data = d.to_dict()
        assert data["severity"] == "error"
        assert data["analysis"] == "bounds"
        assert data["kernel"] == "mm"
        assert data["details"] == {"index": 17}
        import json
        json.dumps(data)  # JSON-serializable

    def test_report_queries_and_render(self):
        report = DiagnosticReport()
        report.add(Diagnostic(analysis="races", severity=Severity.ERROR,
                              message="bad"))
        report.add(Diagnostic(analysis="banks", severity=Severity.WARNING,
                              message="meh"))
        report.add(Diagnostic(analysis="bounds", severity=Severity.INFO,
                              message="fyi"))
        assert report.has_errors
        assert len(report.errors) == 1
        assert len(report.at_least(Severity.WARNING)) == 2
        rendered = report.render(Severity.WARNING)
        assert "error[races]: bad" in rendered
        assert "fyi" not in rendered
        assert report.summary() == "1 error(s), 1 warning(s), 1 info"


class TestPhaseSlicing:
    def test_straight_line_barrier_splits(self):
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            s[tidx] = a[idx];
            __syncthreads();
            a[idx] = s[tidx];
        }
        """
        k = parse_kernel(src)
        slicing = slice_phases(k)
        store, sync, load = k.body[1], k.body[2], k.body[3]
        assert not slicing.same_phase(store, load)
        assert len(slicing.barriers) == 1

    def test_loop_back_edge_unions_phases(self):
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            for (int i = 0; i < n; i = i + 16) {
                s[tidx] = a[i + tidx];
                __syncthreads();
                a[i + tidx] = s[15 - tidx];
            }
        }
        """
        k = parse_kernel(src)
        slicing = slice_phases(k)
        loop = next(s for s in k.body if isinstance(s, ForStmt))
        assert slicing.is_phased_loop(loop)
        store, _, load = loop.body
        # The back edge makes the tail (load) co-execute with the next
        # iteration's head (store).
        assert slicing.same_phase(store, load)

    def test_conditional_barrier_does_not_split(self):
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            s[tidx] = a[idx];
            if (bidx == 0) {
                __syncthreads();
            }
            a[idx] = s[tidx];
        }
        """
        k = parse_kernel(src)
        slicing = slice_phases(k)
        store, guard, load = k.body[1], k.body[2], k.body[3]
        assert slicing.same_phase(store, load)
        assert slicing.barriers[0].conditional
