"""Validated compile mode: differential checks after every pipeline pass.

The static verifier catches races, divergence, bounds and bank problems,
but a miscompile that keeps the kernel well-formed — a staged load
reading its neighbor's element, a merge substituting the wrong id — is
invisible to it.  PR 2's fuzzer found exactly two such bugs after the
fact.  Validated mode moves that oracle *into* the pipeline: after each
optimization pass the transformed kernel is (1) statically verified and
(2) executed on a small deterministic workload and compared bit-for-bit
against the naive kernel's interpretation.  A mismatch rolls the pass
back, so fuzzer-class bugs degrade output *quality* instead of
correctness.

Inputs and the launch-and-compare step are the shared differential
harness (:mod:`repro.sim.differential`), seeded here from the printed
kernel and its size bindings.  Dynamic validation is skipped above
:data:`DYNAMIC_WORK_LIMIT` work items (the static verifier still runs;
callers compiling at production scales validate at a test scale first)
and when the naive kernel itself raises on the synthesized inputs.
Either skip is recorded once per compilation, with its cause, as a
``validate.skipped`` decision and as
:attr:`~repro.resilience.report.ResilienceReport.validation_skipped`.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.lang.astnodes import Kernel
from repro.lang.printer import print_kernel
from repro.sim.differential import Evidence, compare, inputs, run
from repro.sim.interp import LaunchConfig

#: Work-item ceiling for the per-pass differential simulation.
DYNAMIC_WORK_LIMIT = 1 << 16


def synth_arrays(kernel: Kernel,
                 sizes: Dict[str, int]) -> Dict[str, np.ndarray]:
    """Validated mode's inputs (:func:`repro.sim.differential.inputs`)."""
    return inputs(kernel, sizes, zlib.crc32(
        f"{print_kernel(kernel)}|{sorted(sizes.items())!r}".encode()))


class PipelineValidator:
    """Per-pass differential validation against the naive kernel.

    Built once per compilation from the *naive* kernel (before any pass
    touched it); :meth:`check` is called by the pass guard after each
    pass that changed the pipeline state.  ``report`` (the compilation's
    :class:`~repro.resilience.report.ResilienceReport`) receives the
    skip cause, if any.
    """

    def __init__(self, naive: Kernel, sizes: Dict[str, int],
                 domain: Tuple[int, int], machine,
                 work_limit: int = DYNAMIC_WORK_LIMIT, report=None):
        from repro.compiler import naive_launch
        self._naive = naive.clone()
        self._sizes = dict(sizes)
        self._launch = naive_launch(domain, machine)
        self._work = domain[0] * domain[1]
        self._work_limit = work_limit
        self._report = report
        self._arrays: Optional[Dict[str, np.ndarray]] = None
        self._reference: Optional[Evidence] = None
        self._skipped: Optional[str] = None

    def reference(self) -> Optional[Dict[str, np.ndarray]]:
        """The naive kernel's outputs on the synthesized workload, or
        ``None`` when the naive kernel itself raises (no pass can be
        blamed for that)."""
        if self._reference is None:
            self._arrays = synth_arrays(self._naive, self._sizes)
            self._reference = run(self._naive, self._launch, self._arrays,
                                  self._sizes, backend="auto")
        return None if self._reference.exc else self._reference.outputs

    def check(self, ctx) -> Optional[str]:
        """Validate the current pipeline state; failure detail or None."""
        from repro.analysis import verify_kernel

        bindings = dict(ctx.sizes)
        for name in ctx.halved_extents:
            bindings[name] = bindings[name] // 2
        config = (LaunchConfig(grid=ctx.grid, block=ctx.block)
                  if ctx.block != (1, 1) else self._launch)
        report = verify_kernel(
            ctx.kernel, bindings, block=tuple(config.block),
            grid=tuple(config.grid), machine=ctx.machine, stage="validate")
        if report.has_errors:
            return "verify: " + report.errors[0].render()

        if self._work > self._work_limit:
            return self._skip(ctx, f"{self._work} work items exceed "
                                   f"DYNAMIC_WORK_LIMIT ({self._work_limit})")
        if self.reference() is None:
            exc = self._reference.exc
            return self._skip(ctx, f"the naive kernel raised "
                                   f"{type(exc).__name__}: {exc}")
        got = run(ctx.kernel, config, self._arrays, bindings, backend="auto")
        if got.exc is not None:
            return f"crash: {type(got.exc).__name__}: {got.exc}"
        return compare(got, self._reference)

    def _skip(self, ctx, cause: str) -> None:
        """Record, once, that no pass of this compilation is simulated."""
        if self._skipped is None:
            self._skipped = cause
            ctx.note(f"validate: dynamic check skipped, {cause}",
                     rule="validate.skipped", cause=cause)
            if self._report is not None:
                self._report.validation_skipped = cause
        return None


def validate_reduction(compiled,
                       work_limit: int = DYNAMIC_WORK_LIMIT
                       ) -> Optional[str]:
    """Differentially validate a fissioned reduction program.

    Synthesizes an integer-valued input (all partial sums exactly
    representable in float32, so *every* summation order yields the same
    bits) and demands the fissioned program reduce it to exactly
    ``sum(|x|)``.  Skipped above ``work_limit`` elements.
    """
    n = compiled.n_elements
    if n > work_limit:
        return None
    seed = zlib.crc32(f"{compiled.name}|{n}|{compiled.plan.load_style}"
                      .encode())
    rng = np.random.default_rng(seed)
    count = n if compiled.plan.load_style == "direct" else 2 * n
    data = rng.integers(0, 8, size=count).astype(np.float32)
    expected = float(data.sum(dtype=np.float64))
    try:
        got = compiled.run(data.copy(), backend="auto")
    except Exception as exc:
        return f"crash: {type(exc).__name__}: {exc}"
    if got != expected:
        return f"reduced to {got!r}, expected {expected!r}"
    return None
