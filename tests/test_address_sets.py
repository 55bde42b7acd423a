"""Pin every static answer to "which addresses does this site touch".

The verifier's races, bounds and banks analyses, the shared-memory
def-use lint, the removable-barrier proof that barrier cleanup runs in
every compile, the coalescing check and the timing model's transaction,
bank-conflict and partition figures all enumerate the addresses an
access site issues.  This golden records their answers over a fixed
kernel set, so a change to how addresses are enumerated (thread sets,
corner blocks, loop sampling, guard filtering, witness order) shows up
as a diff here:

* the barrier-mutation harness's targets and mutants at scale 32;
* every cumulative stage of the suite kernels at test scale (the lint
  sweep);
* the racy corpus and every stage of the replay corpus;
* conv, demosaic and imregionmax at scale 64 with the stencil padding
  taken out of ``mp``, whose bounds witnesses nothing else reaches;
* the unpadded transpose tile of ``test_analysis_banks.py``;
* every stage of ``generate_case(0, i)`` for ``i < 40``.

Regenerate deliberately with

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_address_sets.py

and review the diff like any other code change.
"""

import json
import os
import sys

import pytest

from repro.analysis import verify_kernel
from repro.analysis.dataflow import removable_barriers, shared_defuse
from repro.compiler import PassError, compile_stages
from repro.fuzz.corpus import load_corpus
from repro.fuzz.grammar import generate_case
from repro.ir.access import collect_accesses
from repro.kernels.suite import ALGORITHMS, STENCIL_PAD
from repro.lang.parser import parse_kernel
from repro.machine import GTX280
from repro.passes.coalesce_check import check_access
from repro.sim.interp import LaunchConfig
from repro.sim.timing import (partition_imbalance, shared_conflict_degree,
                              transactions_for_access)

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden", "address_sets.json")
UPDATE = bool(os.environ.get("UPDATE_GOLDEN"))

sys.path.insert(0, os.path.join(HERE, os.pardir, "tools"))
from mutate_barriers import barrier_mutants, harness_targets  # noqa: E402

UNPADDED_TILE = """
__global__ void f(float a[n][n], int n) {
    __shared__ float t[16][16];
    t[tidy][tidx] = a[idy][idx];
    __syncthreads();
    a[idy][idx] = t[tidx][tidy];
}
"""


def _stages(prefix, source, sizes, domain):
    """One launch per cumulative stage, or the compile's refusal."""
    try:
        stages = compile_stages(source, sizes, domain, GTX280)
    except PassError as exc:
        yield prefix, f"rejected: {exc}"
        return
    for stage, ck in stages.items():
        yield f"{prefix}/{stage}", (ck.kernel, ck.size_bindings(),
                                    tuple(ck.config.block),
                                    tuple(ck.config.grid))


def _mutation_launches():
    for label, kernel, sizes, config, _, _ in harness_targets(32):
        launch = (sizes, tuple(config.block), tuple(config.grid))
        yield f"mutate/{label}", (kernel,) + launch
        for mutant, desc in barrier_mutants(kernel):
            yield f"mutate/{label}/{desc}", (mutant,) + launch


def _lint_launches():
    from repro.__main__ import _lint_reduction
    for name in sorted(ALGORITHMS):
        algo = ALGORITHMS[name]
        sizes = algo.sizes(algo.test_scale)
        if algo.uses_global_sync:
            for stage, _, launch in _lint_reduction(
                    algo, sizes, GTX280, lambda *a, **k: None):
                yield f"lint/{name}/{stage}", launch
        else:
            yield from _stages(f"lint/{name}", algo.source, sizes,
                               algo.domain(sizes))


def _racy_launches():
    racy = os.path.join(HERE, "corpus", "racy")
    for entry in sorted(os.listdir(racy)):
        with open(os.path.join(racy, entry)) as fh:
            case = json.load(fh)
        yield f"racy/{case['name']}", (
            parse_kernel(case["source"]), case["sizes"],
            tuple(case["block"]), tuple(case["grid"]))


def _corpus_launches():
    for case in load_corpus(os.path.join(HERE, "corpus")):
        yield from _stages(f"corpus/{case.name}", case.source, case.sizes,
                           case.domain)


def _tight_stencil_launches():
    for name in ("conv", "demosaic", "imregionmax"):
        algo = ALGORITHMS[name]
        sizes = algo.sizes(64)
        sizes["mp"] -= STENCIL_PAD
        yield from _stages(f"tight/{name}", algo.source, sizes,
                           algo.domain(sizes))


def _banks_launches():
    yield "banks/unpadded-tile", (parse_kernel(UNPADDED_TILE), {"n": 64},
                                  (16, 16), (4, 4))


def _generated_launches():
    for index in range(40):
        case = generate_case(0, index)
        yield from _stages(f"generated/{case.name}", case.source,
                           case.sizes, case.domain)


GROUPS = {
    "mutation": _mutation_launches,
    "lint": _lint_launches,
    "racy": _racy_launches,
    "corpus": _corpus_launches,
    "tight-stencil": _tight_stencil_launches,
    "banks": _banks_launches,
    "generated": _generated_launches,
}


def _attempt(fn, *args):
    """The call's answer, or the name of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return f"raises {type(exc).__name__}"


def _site(acc, config):
    """[access, coalescing verdict, transactions, bank degree,
    partition imbalance] of one site."""
    verdict = _attempt(check_access, acc, config.block)
    if not isinstance(verdict, str):
        verdict = [verdict.coalesced, verdict.reason]
    return [repr(acc), verdict,
            _attempt(transactions_for_access, acc, GTX280, config),
            _attempt(shared_conflict_degree, acc, GTX280, config),
            _attempt(partition_imbalance, acc, GTX280, config)]


def _answers(launch):
    """Every address-set answer for one (kernel, sizes, block, grid)."""
    if isinstance(launch, str):
        return launch
    kernel, sizes, block, grid = launch
    config = LaunchConfig(grid=grid, block=block)
    accesses = collect_accesses(kernel, sizes)
    index = {id(acc): i for i, acc in enumerate(accesses)}
    report = verify_kernel(kernel, sizes, block, grid, machine=GTX280)
    defuse = shared_defuse(kernel, sizes, block, grid, accesses=accesses)
    return {
        "diagnostics": [d.to_dict() for d in report],
        "uninit_reads": [[index[id(acc)], missing]
                         for acc, missing in defuse.uninit_reads],
        "dead_stores": [index[id(acc)] for acc in defuse.dead_stores],
        "removable_barriers": [
            [list(b.affected_arrays), b.evidence]
            for b in removable_barriers(kernel, sizes, block, grid)],
        "sites": [_site(acc, config) for acc in accesses],
    }


def _dump(golden):
    """The golden as JSON with one line per kernel stage."""
    groups = []
    for group in sorted(golden):
        entries = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(golden[group].items()))
        groups.append(f" {json.dumps(group)}: {{\n{entries}\n }}")
    return "{\n" + ",\n".join(groups) + "\n}\n"


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_address_sets(group):
    record = {key: _answers(launch) for key, launch in GROUPS[group]()}
    record = json.loads(json.dumps(record))
    if UPDATE:
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN) as fh:
                golden = json.load(fh)
        golden[group] = record
        with open(GOLDEN, "w") as fh:
            fh.write(_dump(golden))
        return
    with open(GOLDEN) as fh:
        golden = json.load(fh)[group]
    assert sorted(record) == sorted(golden)
    for key in sorted(record):
        assert record[key] == golden[key], key
