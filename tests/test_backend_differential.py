"""Cross-backend differential suite: lockstep vs. warp-vectorized.

Every corpus case (seed, regression, and fuzzer-found reproducers) is
executed on both simulator backends at every cumulative pipeline stage,
plus the uncompiled naive reference launch; so are the fully optimized
mm, tp and rd suite kernels at their test scales.  The contract is
strict:

* bit-identical output buffers — not "close", identical;
* identical error classification — if one backend raises, the other
  must raise the same exception class (BarrierError vs.
  KernelRuntimeError vs. IndexError ...);
* every kernel the pipeline emits is inside the vectorized backend's
  statically supported class (no ``UnsupportedKernelError``) — the
  compiler only produces unconditional barriers in uniform loops, and
  this suite is what pins that.

Corpus inputs are the oracle's deterministic integer-valued arrays, so
float arithmetic is exact and bitwise comparison is sound; the suite
kernels run on random floats, where both backends must still round
identically.
"""

import functools
import os

import numpy as np
import pytest

from repro.compiler import compile_kernel, compile_stages
from repro.fuzz.corpus import load_corpus
from repro.fuzz.oracle import STAGE_NAMES, make_arrays, reference_config
from repro.kernels.suite import ALGORITHMS
from repro.lang.parser import parse_kernel
from repro.machine import GTX280
from repro.passes.base import PassError
from repro.reduction import compile_reduction
from repro.sim.backend import run_kernel
from repro.sim.vectorized import UnsupportedKernelError

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CASES = load_corpus(CORPUS_DIR)
CASE_BY_NAME = {c.name: c for c in CASES}


@functools.lru_cache(maxsize=None)
def _compiled(case_name):
    """Compile all cumulative stages once per case; None if rejected."""
    case = CASE_BY_NAME[case_name]
    try:
        return compile_stages(case.source, case.sizes, case.domain)
    except PassError:
        return None


def _run_both(run_fn, arrays):
    """Run ``run_fn(work, backend)`` on both backends.

    Returns ``((lockstep_exc_name, lockstep_arrays),
               (vectorized_exc_name, vectorized_arrays))``.
    A statically unsupported kernel fails the test outright: the
    pipeline must only emit vectorizable kernels.
    """
    outcomes = []
    for backend in ("lockstep", "vectorized"):
        work = {k: v.copy() for k, v in arrays.items()}
        try:
            run_fn(work, backend)
            outcomes.append((None, work))
        except UnsupportedKernelError as exc:
            pytest.fail(f"vectorized backend refused a pipeline kernel: "
                        f"{exc}")
        except Exception as exc:
            outcomes.append((type(exc).__name__, work))
    return outcomes


def _assert_agree(lockstep, vectorized, label):
    lk_exc, lk_work = lockstep
    vk_exc, vk_work = vectorized
    assert lk_exc == vk_exc, (
        f"{label}: error classification diverged: "
        f"lockstep={lk_exc or 'ok'} vectorized={vk_exc or 'ok'}")
    if lk_exc is not None:
        return
    for name in sorted(lk_work):
        a, b = lk_work[name], vk_work[name]
        assert a.shape == b.shape, f"{label}: {name} shape differs"
        assert (a == b).all(), (
            f"{label}: array {name!r} not bit-identical "
            f"({int((a != b).sum())} element(s) differ)")


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_naive_reference_bit_identical(case):
    """The uncompiled naive launch agrees across backends."""
    kernel = parse_kernel(case.source)
    arrays = make_arrays(kernel, case)
    config = reference_config(case)
    scalars = {p.name: case.sizes[p.name] for p in kernel.scalar_params()}
    lk, vk = _run_both(
        lambda work, b: run_kernel(kernel, config, work, scalars, backend=b),
        arrays)
    _assert_agree(lk, vk, f"{case.name}/reference")


@pytest.mark.parametrize("stage", STAGE_NAMES)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_stage_bit_identical(case, stage):
    """Every cumulative pipeline stage agrees across backends."""
    stages = _compiled(case.name)
    if stages is None:
        pytest.skip("compiler rejected the case (graceful PassError)")
    ck = stages[stage]
    kernel = parse_kernel(case.source)
    arrays = make_arrays(kernel, case)
    lk, vk = _run_both(lambda work, b: ck.run(work, backend=b), arrays)
    _assert_agree(lk, vk, f"{case.name}/{stage}")


@pytest.mark.parametrize("name", ["mm", "tp", "rd"])
def test_optimized_suite_kernel_bit_identical(name):
    """The fully optimized suite kernel agrees across backends on the
    suite's own random float inputs (rd: both fission launches)."""
    algo = ALGORITHMS[name]
    sizes = algo.sizes(algo.test_scale)
    arrays = algo.make_arrays(np.random.default_rng(0xBE7C), sizes)
    if algo.uses_global_sync:
        program = compile_reduction(algo.source, sizes["n"], GTX280)

        def run_fn(work, backend):
            work["sum"] = np.float32(program.run(work["a"], backend=backend))
    else:
        ck = compile_kernel(algo.source, sizes, algo.domain(sizes), GTX280)

        def run_fn(work, backend):
            ck.run(work, backend=backend)
    lk, vk = _run_both(run_fn, arrays)
    _assert_agree(lk, vk, f"{name}/optimized")
