"""Schedule replay golden: a recorded (scheduler, seed) replays across versions.

``tests/test_scheduled.py`` pins that two runs of the *same* code agree;
this file pins the stronger claim the fuzz oracle's metadata relies on —
that a ``(scheduler, seed)`` recorded by one version of the simulator
replays to the same schedule on the next.  ``golden/schedule_replay.json``
records, for the optimized mm / tp / conv kernels and the four
``corpus/racy/`` kernels under seeds 0-5 (kind from
``scheduler_kind_for_seed``), the quanta consumed, the schedule trace
tail, the warp count and a blake2b digest of every array — or, for a run
that faults, the error class and the deadlock report.  Any change to
where a thread may be suspended (DESIGN.md 5.7) moves these numbers.

Regenerate deliberately with

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_schedule_replay.py

and review the diff like any other code change.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.compiler import compile_kernel
from repro.kernels.suite import ALGORITHMS
from repro.lang.parser import parse_kernel
from repro.machine import GTX280
from repro.sim.interp import LaunchConfig
from repro.sim.scheduled import (
    DeadlockError,
    make_scheduler,
    run_scheduled,
    scheduler_kind_for_seed,
)

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden", "schedule_replay.json")
RACY_DIR = os.path.join(HERE, "corpus", "racy")
UPDATE = bool(os.environ.get("UPDATE_GOLDEN"))

SEEDS = range(6)
SUITE_SCALES = {"mm": 32, "tp": 32, "conv": 16}


def _digests(arrays):
    return {name: hashlib.blake2b(np.ascontiguousarray(arr).tobytes(),
                                  digest_size=16).hexdigest()
            for name, arr in sorted(arrays.items())}


def _record(run, arrays, seed):
    sched = make_scheduler(scheduler_kind_for_seed(seed), seed)
    work = {k: v.copy() for k, v in arrays.items()}
    try:
        run(work, sched)
    except DeadlockError as exc:
        return {"scheduler": sched.kind, "seed": seed,
                "error": type(exc).__name__, "stuck": exc.stuck}
    doc = sched.last_result.to_dict()
    doc["digests"] = _digests(work)
    return doc


def _suite_case(name):
    algo = ALGORITHMS[name]
    sizes = algo.sizes(SUITE_SCALES[name])
    compiled = compile_kernel(parse_kernel(algo.source), sizes,
                              algo.domain(sizes), GTX280)
    arrays = algo.make_arrays(np.random.default_rng(13), sizes)
    return arrays, lambda work, sched: compiled.run(
        work, backend="scheduled", scheduler=sched)


def _racy_case(name):
    with open(os.path.join(RACY_DIR, name + ".json")) as f:
        case = json.load(f)
    kernel = parse_kernel(case["source"])
    sizes = case["sizes"]
    config = LaunchConfig(grid=tuple(case["grid"]),
                          block=tuple(case["block"]))
    n = sizes["n"]
    arrays = {"a": np.random.default_rng(3).integers(
                  0, 8, size=n).astype(np.float32),
              "c": np.zeros(n, dtype=np.float32)}
    return arrays, lambda work, sched: run_scheduled(
        kernel, config, work, sizes, scheduler=sched)


CASES = {name: _suite_case for name in SUITE_SCALES}
CASES.update({entry[:-len(".json")]: _racy_case
              for entry in sorted(os.listdir(RACY_DIR))
              if entry.endswith(".json")})


def _load_golden():
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as f:
        return json.load(f)


def _write_golden(golden):
    # One run per line keeps the file reviewable in a diff.
    blocks = []
    for name in sorted(golden):
        runs = ",\n".join("  " + json.dumps(run, sort_keys=True)
                          for run in golden[name])
        blocks.append(f"{json.dumps(name)}: [\n{runs}\n ]")
    with open(GOLDEN, "w") as f:
        f.write("{\n " + ",\n ".join(blocks) + "\n}\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_recorded_schedules_replay_exactly(name):
    arrays, run = CASES[name](name)
    got = [_record(run, arrays, seed) for seed in SEEDS]
    # Round-trip through JSON so tuples/lists compare the way the file
    # stores them.
    got = json.loads(json.dumps(got))
    golden = _load_golden()
    if UPDATE:
        golden[name] = got
        _write_golden(golden)
        return
    assert name in golden, \
        f"no golden record for {name}; regenerate with UPDATE_GOLDEN=1"
    for want, have in zip(golden[name], got):
        assert have == want, \
            f"{name} seed {want['seed']} ({want['scheduler']}) no longer " \
            f"replays; if the sequence-point definition moved on purpose, " \
            f"regenerate with UPDATE_GOLDEN=1 and review the diff"
    assert len(got) == len(golden[name])
