"""Cache-key property battery (ISSUE 8 satellite b).

Three families of invariants on :func:`repro.serve.store.cache_key`:

* **golden pins** — the mm/tp/rd keys are pinned byte-for-byte, so any
  accidental change to key derivation (normalization, field ordering,
  version stamping) fails loudly instead of silently splitting or
  poisoning every deployed cache;
* **sensitivity** — every :class:`CompileOptions` field, every
  :class:`GpuSpec` architecture parameter, the sizes, the domain, and
  the ``extra`` tag each perturb the key (nothing that changes the
  compile is ever aliased);
* **insensitivity** — whitespace-only and comment-only source edits hash
  identically (the key addresses *content*, not text).
"""

import dataclasses

import pytest

from repro.compiler import CompileOptions
from repro.machine import GTX280, GTX8800, GpuSpec
from repro.resilience.faults import FaultPlan
from repro.serve.store import cache_key, machine_fingerprint, normalize_source

from tests.conftest import MM_SRC, TP_SRC

RD_SRC = """
#pragma output a
__global__ void rd(float a[n], int n) {
    for (int s = n / 2; s > 0; s = s / 2) {
        if (idx < s)
            a[idx] += a[idx + s];
        __global_sync();
    }
}
"""

# Pinned with repro 1.0.0, store layout v1.  A failure here means the
# key derivation changed: bump STORE_VERSION (old entries then miss
# cleanly) and re-pin.
GOLDEN = {
    "mm": ("7ecab1d3eff232df1e16f0c36ef7a75b"
           "60f74bffa2d165eff0e01888e4fb668b"),
    "tp": ("21f71848f535967c487cab5252af7788"
           "32ff3f653948654d7547b79b1ab86379"),
    "rd": ("d2f23769ecb5d962cc72ec2f3ca27a79"
           "a10ae4bd967bf458312e90e9368e236c"),
}


def _mm_key(**kw):
    return cache_key(kw.pop("source", MM_SRC),
                     kw.pop("sizes", {"n": 256, "m": 256, "w": 256}),
                     kw.pop("domain", (256, 256)),
                     kw.pop("machine", GTX280), **kw)


class TestGoldenPins:
    def test_mm(self):
        assert _mm_key() == GOLDEN["mm"]

    def test_tp(self):
        assert cache_key(TP_SRC, {"n": 128, "m": 128}, (128, 128),
                         GTX280) == GOLDEN["tp"]

    def test_rd(self):
        # rd does not even compile (global sync), but its key is still
        # well-defined: broken sources cache their failure identically.
        assert cache_key(RD_SRC, {"n": 4096}, (4096, 1),
                         GTX280) == GOLDEN["rd"]

    def test_deterministic_across_calls(self):
        assert _mm_key() == _mm_key()


class TestOptionSensitivity:
    """Every CompileOptions field perturbs the key."""

    PERTURBED = {
        "enable_vectorize": False,
        "enable_coalesce": False,
        "enable_merge": False,
        "enable_prefetch": False,
        "enable_partition": False,
        "enable_cleanup": False,
        "block_merge_x": 8,
        "block_merge_y": 2,
        "thread_merge_x": 4,
        "thread_merge_y": 8,
        "target_threads": 128,
        "verify": True,
        "resilient": True,
        "validate": True,
        "pass_budget_s": 1.5,
        "faults": FaultPlan.parse("raise:coalesce"),
    }

    @pytest.mark.parametrize("field", [f.name for f
                                       in dataclasses.fields(CompileOptions)])
    def test_field_perturbs_key(self, field):
        base = CompileOptions()
        assert field in self.PERTURBED, (
            f"new CompileOptions field {field!r}: add a perturbed value "
            f"so the cache key provably covers it")
        value = self.PERTURBED[field]
        assert value != getattr(base, field)
        changed = dataclasses.replace(base, **{field: value})
        assert _mm_key(options=changed) != _mm_key(options=base)

    def test_default_options_key_equals_omitted_options(self):
        assert _mm_key(options=CompileOptions()) == _mm_key()

    def test_fault_plans_distinguished(self):
        a = CompileOptions(faults=FaultPlan.parse("raise:coalesce"))
        b = CompileOptions(faults=FaultPlan.parse("corrupt:coalesce"))
        assert _mm_key(options=a) != _mm_key(options=b)


class TestMachineSensitivity:
    """Every GpuSpec architecture parameter perturbs the key."""

    @pytest.mark.parametrize("field", [f.name for f
                                       in dataclasses.fields(GpuSpec)])
    def test_field_perturbs_key(self, field):
        base = GTX280
        value = getattr(base, field)
        if isinstance(value, str):
            perturbed = value + "-variant"
        elif isinstance(value, bool):
            perturbed = not value
        elif isinstance(value, (int, float)):
            perturbed = value * 2 + 1
        elif isinstance(value, dict):
            perturbed = {**value, 9999: 1.25}
        else:
            pytest.fail(f"unhandled GpuSpec field type for {field!r}: "
                        f"{type(value).__name__}")
        changed = dataclasses.replace(base, **{field: perturbed})
        assert _mm_key(machine=changed) != _mm_key(machine=base)

    def test_distinct_machines_distinct_keys(self):
        assert _mm_key(machine=GTX280) != _mm_key(machine=GTX8800)

    def test_fingerprint_json_stable(self):
        fp = machine_fingerprint(GTX280)
        # int dict keys are stringified so json round-trips losslessly.
        assert all(isinstance(k, str)
                   for k in fp["vector_bandwidth_gain"])


class TestRequestSensitivity:
    def test_sizes_perturb_key(self):
        assert (_mm_key(sizes={"n": 256, "m": 256, "w": 256})
                != _mm_key(sizes={"n": 512, "m": 256, "w": 256}))

    def test_domain_perturbs_key(self):
        assert _mm_key(domain=(256, 256)) != _mm_key(domain=(512, 256))

    def test_extra_perturbs_key(self):
        # 'extra' carries e.g. the profile flag: a profiled artifact is
        # a different payload than a bare compile.
        assert (_mm_key(extra={"profile": True})
                != _mm_key(extra={"profile": False}))

    def test_semantic_source_edit_perturbs_key(self):
        edited = MM_SRC.replace("sum += a[idy][i] * b[i][idx];",
                                "sum += a[idy][i] + b[i][idx];")
        assert edited != MM_SRC
        assert _mm_key(source=edited) != _mm_key()


class TestNormalizationInsensitivity:
    """Whitespace/comment-only edits do not change the key."""

    def test_whitespace_edits(self):
        reflowed = MM_SRC.replace("    ", "\t").replace("\n", "\n\n")
        assert _mm_key(source=reflowed) == GOLDEN["mm"]

    def test_line_comments(self):
        commented = MM_SRC.replace(
            "float sum = 0;",
            "float sum = 0;  // accumulator for the dot product")
        assert _mm_key(source=commented) == GOLDEN["mm"]

    def test_block_comments(self):
        commented = "/* matrix multiply, per PLDI 2010 Fig. 5 */\n" + MM_SRC
        assert _mm_key(source=commented) == GOLDEN["mm"]

    def test_normalize_is_idempotent(self):
        once = normalize_source(MM_SRC)
        assert normalize_source(once) == once

    def test_unparseable_source_hashes_verbatim(self):
        # Broken sources bypass normalization but still get distinct,
        # stable keys.
        assert normalize_source("not a kernel {") == "not a kernel {"
        assert (_mm_key(source="not a kernel {")
                != _mm_key(source="also not a kernel }"))
        assert (_mm_key(source="not a kernel {")
                == _mm_key(source="not a kernel {"))
