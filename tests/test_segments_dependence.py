"""Coalesced-segment math and inter-block sharing analysis."""

import pytest

from repro.ir.access import collect_accesses
from repro.ir.dependence import (SharingKind, analyze_array_sharing,
                                 analyze_sharing, block_delta,
                                 footprint_set)
from repro.ir.segments import segments_for_halfwarp
from repro.lang.parser import parse_kernel
from repro.machine import GTX280
from repro.passes.sharing import plan_merges

SIZES = {"n": 64, "m": 64, "w": 64}


def load_of(source, array, sizes=SIZES):
    accs = collect_accesses(parse_kernel(source), sizes)
    return next(a for a in accs if a.array == array and a.is_load)


class TestSegments:
    def test_coalesced_access_is_one_segment(self, mm_source):
        b = load_of(mm_source, "b")
        segs = segments_for_halfwarp(b, {"i": 0, "bidx": 0, "bidy": 0,
                                         "idy": 0})
        assert len(segs) == 1
        assert segs[0].start % 16 == 0

    def test_column_access_is_sixteen_segments(self, mv_source):
        a = load_of(mv_source, "a")
        segs = segments_for_halfwarp(a, {"i": 0, "bidx": 0, "idx": 0})
        assert len(segs) == 16  # each thread in its own row

    def test_broadcast_is_one_segment(self, mm_source):
        a = load_of(mm_source, "a")  # a[idy][i]: same address for all
        segs = segments_for_halfwarp(a, {"i": 0, "idy": 0, "bidx": 0})
        assert len(segs) == 1

    def test_misaligned_access_spans_two_segments(self):
        src = """
        __global__ void f(float a[n], float c[n], int n) {
            c[idx] = a[idx + 1];
        }
        """
        a = load_of(src, "a", {"n": 64})
        segs = segments_for_halfwarp(a, {"bidx": 0, "idx": 0})
        assert len(segs) == 2

    def test_halfwarp_addresses_consecutive(self, mm_source):
        b = load_of(mm_source, "b")
        segs = segments_for_halfwarp(b, {"i": 0, "bidx": 0, "idx": 0})
        assert [s.start for s in segs] == [0]
        # One thread on, the 16 consecutive words straddle two segments.
        segs = segments_for_halfwarp(b, {"i": 0, "bidx": 0, "idx": 1})
        assert [s.start for s in segs] == [0, 16]


class TestSharing:
    def test_mm_sharing_matches_paper(self, mm_source):
        accs = collect_accesses(parse_kernel(mm_source), SIZES)
        sharings = {(s.access.array, s.direction): s
                    for s in analyze_sharing(accs)}
        # a[idy][i]: identical addresses across X-neighboring blocks.
        assert sharings[("a", "x")].kind is SharingKind.FULL
        assert sharings[("a", "y")].kind is SharingKind.NONE
        # b[i][idx]: identical across Y-neighboring blocks.
        assert sharings[("b", "y")].kind is SharingKind.FULL
        assert sharings[("b", "x")].kind is SharingKind.NONE

    def test_block_delta(self, mm_source):
        b = load_of(mm_source, "b")
        assert block_delta(b.address, "x", (16, 1)) == 16
        assert block_delta(b.address, "y", (16, 1)) == 0

    UNEVALUABLE = """
    __global__ void f(float a[n][m], float c[n][m], int n, int m, int w,
                      int q) {
        float s = 0;
        for (int i = 0; i < w; i++) {
            int r = (i + q) % w;
            s += a[idy][idx + r] + a[idy + i][idx];
        }
        c[idy][idx] = s;
    }
    """

    def test_unevaluable_term_is_a_diagnosed_verdict(self):
        # ``q`` has no binding, so ``r`` has no value on any sample point.
        # The old enumerator returned whatever it had collected so far and
        # a verdict was computed from that; now the verdict says so.
        accs = collect_accesses(parse_kernel(self.UNEVALUABLE),
                                {"n": 64, "m": 64, "w": 64})
        rotated, plain = [s for s in analyze_sharing(accs)
                          if s.direction == "y"]
        assert rotated.unevaluable == "q"
        assert rotated.kind is SharingKind.NONE
        assert rotated.overlap_fraction == 0.0
        assert plain.unevaluable is None
        assert plain.kind is SharingKind.PARTIAL
        with pytest.raises(KeyError):
            footprint_set(rotated.access, (0, 0), (16, 1))

    def test_division_by_zero_in_a_term_is_diagnosed_too(self):
        accs = collect_accesses(parse_kernel(self.UNEVALUABLE),
                                {"n": 64, "m": 64, "w": 0, "q": 3})
        rotated = next(s for s in analyze_sharing(accs) if s.unevaluable)
        assert "division by zero" in rotated.unevaluable

    def test_planner_names_the_array_and_the_free_term(self):
        plan = plan_merges(parse_kernel(self.UNEVALUABLE),
                           {"n": 64, "m": 64, "w": 64}, (64, 64), GTX280)
        diagnosed = [r for r in plan.reasons if "not evaluable" in r]
        assert diagnosed == ["load a: footprint not evaluable (q); "
                             "no merge decided from it"]
        # The evaluable load of the same array still drives its merge.
        assert plan.thread_merge_y or plan.block_merge_y

    def test_stores_not_analyzed(self, mm_source):
        accs = collect_accesses(parse_kernel(mm_source), SIZES)
        arrays = {s.access.array for s in analyze_sharing(accs)}
        assert "c" not in arrays

    def test_stencil_array_sharing_partial(self):
        src = """
        __global__ void f(float a[n][m], float c[n][m], int n, int m) {
            c[idy][idx] = a[idy][idx] + a[idy][idx + 1] + a[idy][idx + 2];
        }
        """
        accs = collect_accesses(parse_kernel(src), {"n": 64, "m": 64})
        per_array = {(s.array, s.direction): s
                     for s in analyze_array_sharing(accs)}
        assert per_array[("a", "x")].kind is SharingKind.PARTIAL
        assert 0 < per_array[("a", "x")].overlap_fraction < 0.5

    def test_elementwise_no_sharing(self):
        src = """
        __global__ void f(float a[n], float c[n], int n) {
            c[idx] = a[idx] * 2.0f;
        }
        """
        accs = collect_accesses(parse_kernel(src), {"n": 256})
        kinds = {s.kind for s in analyze_sharing(accs)
                 if s.direction == "x"}
        assert kinds == {SharingKind.NONE}
