"""Vectorized-backend golden: step accounting, output bits, profile totals.

``golden/vectorized_steps.json`` records, for the ten Table-1 kernels at
the ledger's ``sim_vectorized`` mid scales and for the differential corpus
cases (naive reference launch plus every cumulative stage), what a
launch on the vectorized backend leaves behind: the final per-lane step
count charged against ``max_steps`` (one entry per launch; rd makes two),
a blake2b of every array after the run, and the profiler's global
transaction / shared bank-conflict totals.  It was generated at the commit
*before* the backend's AST walker was replaced by the lane lowering (twelve
corpus cases then), so an exact match proves the lowering kept the accounting: a launch-wide mask
counts ``N`` steps, a uniform branch charges the lanes it always charged,
and the profiler sees the same accesses under the same masks.  The two
``regress_cast_*`` corpus cases were added with the declared-type cast fix
in the same change, so their records are the new backend's own.

Regenerate deliberately with

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_vectorized_golden.py

and review the diff like any other code change.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.compiler import compile_kernel, compile_stages
from repro.fuzz.corpus import load_corpus
from repro.fuzz.oracle import STAGE_NAMES, make_arrays, reference_config
from repro.kernels.suite import ALGORITHMS
from repro.lang.parser import parse_kernel
from repro.machine import GTX280
from repro.obs.profile import ProfileCollector
from repro.passes.base import PassError
from repro.reduction import compile_reduction
from repro.sim.backend import run_kernel
from repro.sim.vectorized import VectorizedInterpreter

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden", "vectorized_steps.json")
UPDATE = bool(os.environ.get("UPDATE_GOLDEN"))

#: benchmarks/ledger/workloads.py VECTORIZED_SCALES, copied: the ledger
#: may not be imported from tier-1 and may not change under this pin.
MID_SCALES = {"tmv": 512, "mm": 128, "mv": 512, "vv": 65536,
              "rd": 1 << 20, "strsm": 64, "conv": 64, "tp": 512,
              "demosaic": 224, "imregionmax": 256}

CASES = {c.name: c for c in load_corpus(os.path.join(HERE, "corpus"))}


def _digest(arrays):
    out = {}
    for name in sorted(arrays):
        data = np.ascontiguousarray(arrays[name]).tobytes()
        out[name] = hashlib.blake2b(data, digest_size=16).hexdigest()
    return out


@pytest.fixture
def steps(monkeypatch):
    """Step totals of every vectorized launch made while in scope."""
    seen = []
    run = VectorizedInterpreter.run

    def recording(self, *args, **kwargs):
        try:
            return run(self, *args, **kwargs)
        finally:
            seen.append(int(self._steps))

    monkeypatch.setattr(VectorizedInterpreter, "run", recording)
    return seen


def _totals(profiles):
    return {"global_transactions":
            sum(p.global_transactions for p in profiles),
            "bank_conflict_cycles":
            sum(p.shared_conflict_cycles for p in profiles)}


def _table1_record(name, steps):
    algo = ALGORITHMS[name]
    sizes = algo.sizes(MID_SCALES[name])
    arrays = algo.make_arrays(np.random.default_rng(16), sizes)
    if algo.uses_global_sync:
        compiled = compile_reduction(algo.source, sizes["n"], GTX280)
        profiles = []
        total = compiled.run(arrays["a"], backend="vectorized",
                             profile=profiles)
        arrays = dict(arrays, sum=np.asarray(total))
        found = [p for _, p in profiles]
    else:
        compiled = compile_kernel(parse_kernel(algo.source), sizes,
                                  algo.domain(sizes), GTX280)
        collector = ProfileCollector(compiled.kernel, compiled.config)
        used = compiled.run(arrays, backend="vectorized", profile=collector)
        found = [collector.finalize(used)]
    return {"steps": list(steps), "arrays": _digest(arrays),
            **_totals(found)}


def _corpus_record(case_name, steps):
    case = CASES[case_name]
    kernel = parse_kernel(case.source)
    inputs = make_arrays(kernel, case)
    scalars = {p.name: case.sizes[p.name] for p in kernel.scalar_params()}
    try:
        stages = compile_stages(case.source, case.sizes, case.domain)
    except PassError:
        stages = {}
    launches = [("reference", kernel, reference_config(case),
                 lambda work, prof: run_kernel(
                     kernel, reference_config(case), work, scalars,
                     backend="vectorized", profile=prof))]
    for stage in STAGE_NAMES:
        if stage in stages:
            ck = stages[stage]
            launches.append((stage, ck.kernel, ck.config,
                             lambda work, prof, ck=ck: ck.run(
                                 work, backend="vectorized", profile=prof)))
    record = {}
    for label, kern, config, go in launches:
        del steps[:]
        work = {k: v.copy() for k, v in inputs.items()}
        collector = ProfileCollector(kern, config)
        used = go(work, collector)
        record[label] = {"steps": list(steps), "arrays": _digest(work),
                         **_totals([collector.finalize(used)])}
    return record


def _check(key, record):
    if UPDATE:
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN) as fh:
                golden = json.load(fh)
        golden[key] = record
        with open(GOLDEN, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert record == golden[key]


@pytest.mark.parametrize("name", sorted(MID_SCALES))
def test_table1_mid_scale_matches_golden(name, steps):
    _check(f"table1/{name}", _table1_record(name, steps))


@pytest.mark.parametrize("case_name", sorted(CASES))
def test_corpus_case_matches_golden(case_name, steps):
    _check(f"corpus/{case_name}", _corpus_record(case_name, steps))
