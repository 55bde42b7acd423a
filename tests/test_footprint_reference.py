"""The array-arithmetic enumerators against per-point reference loops.

``ir/dependence.footprint_set`` and ``sim/timing.partition_imbalance`` were
rebuilt on ``AccessInfo.eval_addresses`` (one broadcast evaluation per
axis) in place of a Python loop that bound one dict per sample point.  The
loops they replaced live on here as the reference: same sample, one
``eval_address`` call per point.  Equality must be exact, since the
arithmetic is integer and unchanged.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_stages
from repro.ir.access import collect_accesses
from repro.ir.dependence import analyze_sharing, footprint_set
from repro.ir.segments import HALF_WARP
from repro.kernels.suite import ALGORITHMS
from repro.lang.parser import parse_kernel
from repro.machine import GTX280
from repro.sim.timing import _sample_bindings, partition_imbalance

BLOCKS = [(0, 0), (1, 0), (0, 1)]


# ---------------------------------------------------------------------------
# Reference enumerators (the per-point loops of the parent commit)
# ---------------------------------------------------------------------------

def ref_loop_values(access):
    combos = [{}]
    for loop in access.loops:
        start = 0
        if loop.start is not None and loop.start.is_constant:
            start = loop.start.const
        step = loop.step if loop.step else 1
        trips = None
        if loop.bound is not None and loop.bound.is_constant and loop.step:
            trips = max(0, -(-(loop.bound.const - start) // loop.step))
        count = min(trips if trips is not None else 24, 24)
        values = [start + k * step for k in range(max(1, count))]
        combos = [dict(c, **{loop.name: v}) for c in combos for v in values]
        if len(combos) > 4096:
            combos = combos[:4096]
    return combos


def ref_footprint(access, block, block_dims):
    bdimx, bdimy = block_dims
    bidx, bidy = block
    addrs = set()
    combos = ref_loop_values(access)
    for tidy in range(bdimy):
        for tidx in range(bdimx):
            base = {"tidx": tidx, "tidy": tidy, "bidx": bidx, "bidy": bidy,
                    "bdimx": bdimx, "bdimy": bdimy,
                    "idx": bidx * bdimx + tidx, "idy": bidy * bdimy + tidy}
            for combo in combos:
                binding = dict(base, **combo)
                try:
                    addrs.add(access.eval_address(binding))
                except KeyError:
                    # A free size: its value is taken as 0.
                    for t in access.address.terms:
                        binding.setdefault(t, 0)
                    addrs.add(access.eval_address(binding))
    return addrs


def ref_partition_imbalance(access, machine, config):
    if not access.resolved:
        return 1.0
    parts = machine.num_partitions
    width = machine.partition_width_bytes
    counts = [0] * parts
    blocks = min(64, config.grid[0])
    if blocks <= 1:
        return 1.0
    base = _sample_bindings(access, config)
    halfwarps = max(1, config.block[0] // HALF_WARP)
    for b in range(blocks):
        for hw in range(0, halfwarps, max(1, halfwarps // 8)):
            for it in (0, 1, 2, 3):
                bind = dict(base)
                bind["bidx"] = b
                bind["tidx"] = hw * HALF_WARP
                bind["idx"] = b * config.block[0] + hw * HALF_WARP
                for loop in access.loops:
                    bind[loop.name] = it * (loop.step or 1) * HALF_WARP
                try:
                    addr = access.eval_address(bind)
                except (KeyError, ZeroDivisionError):
                    return 1.0
                byte = addr * access.elem.size_bytes
                counts[(byte // width) % parts] += 1
    return max(counts) * parts / sum(counts)


# ---------------------------------------------------------------------------
# Generated accesses
# ---------------------------------------------------------------------------

IDS = ("idx", "idy", "tidx", "tidy", "bidx", "bidy")
ITERS = ("i", "j", "k")
coeff = st.integers(-3, 3)


@st.composite
def loops(draw):
    """0-3 nested loops: constant and non-constant starts and bounds, trip
    counts on both sides of the 24-iteration cap."""
    heads = []
    for depth in range(draw(st.integers(0, 3))):
        name = ITERS[depth]
        outer = list(ITERS[:depth])
        start = draw(st.sampled_from(["0", "2", "-3", "tidx"] + outer))
        bound = draw(st.sampled_from(["1", "5", "17", "24", "40", "n"]
                                     + outer))
        step = draw(st.sampled_from(["++", " += 2", " += 16"]))
        heads.append(f"for (int {name} = {start}; {name} < {bound}; "
                     f"{name}{step})")
    return heads


@st.composite
def kernels(draw):
    heads = draw(loops())
    names = list(IDS) + list(ITERS[:len(heads)])
    rotate = bool(heads) and draw(st.booleans())
    free_size = not rotate and draw(st.booleans())
    if rotate:
        names.append("r")

    def affine():
        parts = [f"{c}*{n}" for n in names if (c := draw(coeff))]
        parts.append(str(draw(st.integers(-40, 40))))
        if free_size and draw(st.booleans()):
            parts.append("q")
        return " + ".join(parts)

    body = f"s += a[{affine()}][{affine()}];"
    if rotate:
        body = "{ int r = (i + 64*bidx) % w; " + body + " }"
    return ("__global__ void f(float a[n][m], float c[n][m], "
            "int n, int m, int w, int q) {\n float s = 0;\n "
            + "\n ".join(heads) + "\n " + body + "\n c[idy][idx] = s;\n}\n")


def load_of(source):
    accs = collect_accesses(parse_kernel(source),
                            {"n": 48, "m": 37, "w": 96})
    return next(a for a in accs if a.array == "a")


@settings(max_examples=250, deadline=None)
@given(source=kernels(), block_dims=st.sampled_from([(16, 1), (16, 16)]))
def test_footprints_equal_the_point_loop(source, block_dims):
    load = load_of(source)
    # Keep the reference affordable; the nest beyond 4096 rows under a
    # 16x16 block has its own test below.
    assume(block_dims[0] * block_dims[1] * len(ref_loop_values(load))
           <= 66_000)
    for block in BLOCKS:
        assert footprint_set(load, block, block_dims) == \
            ref_footprint(load, block, block_dims)


TRUNCATED = """
__global__ void f(float a[n][m], float c[n][m], int n, int m, int w) {
    float s = 0;
    for (int i = 0; i < 17; i++)
        for (int j = tidx; j < i; j++)
            for (int k = 1; k < 40; k += 2) {
                int r = (k + 64*bidx) % w;
                s += a[idy + 2*j - k][idx - 3*i + r];
            }
    c[idy][idx] = s;
}
"""


def test_truncated_nest_under_a_16x16_block():
    load = load_of(TRUNCATED)
    assert len(ref_loop_values(load)) == 4096     # 17 * 24 * 20, cut
    # One block only: the reference makes a million eval_address calls.
    assert footprint_set(load, (1, 0), (16, 16)) == \
        ref_footprint(load, (1, 0), (16, 16))


def test_shadowed_iterator_takes_the_inner_values():
    load = load_of("""
    __global__ void f(float a[n][m], float c[n][m], int n, int m, int w) {
        float s = 0;
        for (int i = 0; i < 4; i++)
            for (int i = 5; i < 8; i++)
                s += a[i][idx];
        c[idy][idx] = s;
    }
    """)
    assert footprint_set(load, (0, 0), (16, 1)) == \
        ref_footprint(load, (0, 0), (16, 1))


def test_term_reading_two_axes_is_enumerated_jointly():
    load = load_of("""
    __global__ void f(float a[n][m], float c[n][m], int n, int m, int w) {
        float s = 0;
        for (int i = 0; i < 9; i++)
            for (int j = 0; j < 5; j++) {
                int r = (i * tidx + j) % 7;
                s += a[j][idx + r];
            }
        c[idy][idx] = s;
    }
    """)
    for block in BLOCKS:
        assert footprint_set(load, block, (16, 16)) == \
            ref_footprint(load, block, (16, 16))


def test_neighbour_is_the_shifted_base_without_a_block_reading_term():
    load = load_of("""
    __global__ void f(float a[n][m], float c[n][m], int n, int m, int w) {
        float s = 0;
        for (int i = 0; i < 5; i++)
            s += a[idy + i][idx + i];
        c[idy][idx] = s;
    }
    """)
    base = footprint_set(load, (0, 0), (16, 16))
    for sharing, block in zip(analyze_sharing([load], (16, 16)), BLOCKS[1:]):
        shifted = {addr + sharing.block_delta for addr in base}
        assert shifted == footprint_set(load, block, (16, 16))


# ---------------------------------------------------------------------------
# partition_imbalance on the Table-1 suite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(
    n for n in ALGORITHMS if not ALGORITHMS[n].uses_global_sync))
def test_partition_imbalance_equals_the_point_loop(name):
    algo = ALGORITHMS[name]
    checked = 0
    for scale in (algo.test_scale, algo.paper_scales[0]):
        sizes = algo.sizes(scale)
        stages = compile_stages(algo.source, sizes, algo.domain(sizes),
                                GTX280)
        assert "+partition" in stages
        for compiled in stages.values():
            for acc in collect_accesses(compiled.kernel,
                                        compiled.size_bindings()):
                if acc.space == "global":
                    checked += 1
                    assert partition_imbalance(
                        acc, GTX280, compiled.config) == \
                        ref_partition_imbalance(acc, GTX280, compiled.config)
    assert checked
