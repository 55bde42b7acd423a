"""Sharing-analysis golden: plans and emitted sources of the Table-1 suite.

``golden/table1_plans.json`` records, for the ten Table-1 kernels at every
paper scale plus ``test_scale``, the SHA-256 of each emitted source, every
:class:`MergePlan` field (``reasons`` included) and every :class:`Sharing`
verdict the planner saw (array, direction, kind, ``block_delta``,
``overlap_fraction``) in the order ``analyze_sharing`` returned them.  It
was generated at the commit *before* the footprint enumerator in
``ir/dependence.py`` was rebuilt on array arithmetic, so an exact match
here is the proof that the rebuild kept the same sample: same footprints,
same verdicts, same bytes out.  Because ``reasons`` is pinned, it also shows
that no Table-1 access takes the diagnosed unevaluable-term path, which
would add a line there.

Regenerate deliberately with

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_sharing_golden.py

and review the diff like any other code change.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.compiler import compile_kernel
from repro.ir.dependence import analyze_sharing
from repro.kernels.suite import ALGORITHMS
from repro.lang.parser import parse_kernel
from repro.machine import GTX280
from repro.passes import sharing as planner
from repro.reduction import compile_reduction

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden", "table1_plans.json")
UPDATE = bool(os.environ.get("UPDATE_GOLDEN"))


def _scales(algo):
    return sorted(set(algo.paper_scales) | {algo.test_scale})


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _record(name, scale, monkeypatch):
    algo = ALGORITHMS[name]
    sizes = algo.sizes(scale)
    seen = []

    def recording(accesses, block_dims):
        out = analyze_sharing(accesses, block_dims=block_dims)
        seen.append(out)
        return out

    monkeypatch.setattr(planner, "analyze_sharing", recording)
    if algo.uses_global_sync:
        compiled = compile_reduction(algo.source, sizes["n"], GTX280)
        sources = [compiled.stage1_source, compiled.stage2_source]
        plan = None
    else:
        compiled = compile_kernel(parse_kernel(algo.source), sizes,
                                  algo.domain(sizes), GTX280)
        sources = [compiled.source]
        plan = compiled.merge_plan
    return {
        "scale": scale,
        "sources": [_sha(s) for s in sources],
        "plan": dataclasses.asdict(plan) if plan is not None else None,
        # One list per plan_merges call (a block-size retry plans again).
        "sharings": [[[s.access.array, s.direction, s.kind.value,
                       s.block_delta, s.overlap_fraction] for s in call]
                     for call in seen],
    }


def _load_golden():
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as f:
        return json.load(f)


def _write_golden(golden):
    # One (kernel, scale) per line keeps the file reviewable in a diff.
    blocks = []
    for name in sorted(golden):
        runs = ",\n".join("  " + json.dumps(run, sort_keys=True)
                          for run in golden[name])
        blocks.append(f"{json.dumps(name)}: [\n{runs}\n ]")
    with open(GOLDEN, "w") as f:
        f.write("{\n " + ",\n ".join(blocks) + "\n}\n")


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_plans_and_sources_match_parent(name, monkeypatch):
    got = [_record(name, scale, monkeypatch)
           for scale in _scales(ALGORITHMS[name])]
    # Round-trip through JSON so floats and lists compare the way the
    # file stores them (repr round-trips doubles exactly).
    got = json.loads(json.dumps(got))
    golden = _load_golden()
    if UPDATE:
        golden[name] = got
        _write_golden(golden)
        return
    assert name in golden, \
        f"no golden record for {name}; regenerate with UPDATE_GOLDEN=1"
    assert len(got) == len(golden[name])
    for want, have in zip(golden[name], got):
        for key in want:
            assert have[key] == want[key], \
                f"{name}@{want['scale']}: {key} moved off the golden"
