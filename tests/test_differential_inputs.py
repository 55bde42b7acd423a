"""Pin the inputs every differential caller synthesizes.

The fuzz oracle, validated compiles, race confirmation and explore's
``measure="sim"`` mode each launch a kernel on deterministic
integer-valued inputs derived from their own seed rule.  This golden
records one sha256 per input array, captured at the first launch each
caller makes (for explore: at every launch), so a change to the input
synthesizer or to any caller's seed shows up as a diff here.

Regenerate deliberately with

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_differential_inputs.py

and review the diff like any other code change.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.analysis import confirm_race
from repro.explore import explore
from repro.fuzz.corpus import load_corpus
from repro.fuzz.oracle import run_case
from repro.kernels.suite import ALGORITHMS
from repro.lang.parser import parse_kernel
from repro.machine import GTX280
from repro.resilience import PipelineValidator
from repro.sim.interp import Interpreter
from repro.sim.scheduled import ScheduledInterpreter
from repro.sim.vectorized import VectorizedInterpreter
from tests.conftest import MM_SRC

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden", "differential_inputs.json")
UPDATE = bool(os.environ.get("UPDATE_GOLDEN"))

CASES = {c.name: c for c in load_corpus(os.path.join(HERE, "corpus"))}
RACY_DIR = os.path.join(HERE, "corpus", "racy")
RACY = {}
for _entry in sorted(os.listdir(RACY_DIR)):
    if _entry.endswith(".json"):
        with open(os.path.join(RACY_DIR, _entry)) as _fh:
            _doc = json.load(_fh)
        RACY[_doc["name"]] = _doc
PIPELINE_KERNELS = sorted(n for n, a in ALGORITHMS.items()
                          if not a.uses_global_sync)


class _Captured(BaseException):
    """Stops the caller after its first launch (no caller catches it)."""


def _sha(arr):
    arr = np.ascontiguousarray(arr)
    head = f"{arr.dtype.str}|{arr.shape}|".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


class _Recorder:
    """Input digests of the launches a call makes."""

    def __init__(self):
        self.seen = []
        self.stop = True

    def wrap(self, run):
        def capture(interp, config, arrays, *args, **kwargs):
            self.seen.append({name: _sha(a)
                              for name, a in sorted(arrays.items())})
            if self.stop:
                raise _Captured()
            return run(interp, config, arrays, *args, **kwargs)
        return capture

    def first(self, call):
        """The inputs of the first launch; the call is cut there."""
        self.seen, self.stop = [], True
        with pytest.raises(_Captured):
            call()
        return self.seen[0]

    def every(self, call):
        """The inputs of every launch the call makes."""
        self.seen, self.stop = [], False
        call()
        return self.seen


@pytest.fixture
def launches(monkeypatch):
    recorder = _Recorder()
    for cls in (Interpreter, VectorizedInterpreter, ScheduledInterpreter):
        monkeypatch.setattr(cls, "run", recorder.wrap(cls.run))
    return recorder


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


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_inputs(name, launches):
    _check(f"oracle/{name}", launches.first(lambda: run_case(CASES[name])))


@pytest.mark.parametrize("name", sorted(RACY))
def test_confirm_inputs(name, launches):
    case = RACY[name]
    kernel = parse_kernel(case["source"])
    _check(f"confirm/{name}", launches.first(lambda: confirm_race(
        kernel, case["sizes"], tuple(case["block"]), tuple(case["grid"]))))


@pytest.mark.parametrize("name", PIPELINE_KERNELS)
def test_validate_inputs(name, launches):
    algo = ALGORITHMS[name]
    sizes = algo.sizes(algo.test_scale)
    validator = PipelineValidator(parse_kernel(algo.source), sizes,
                                  algo.domain(sizes), GTX280)
    _check(f"validate/{name}", launches.first(validator.reference))


def test_explore_measure_inputs(launches):
    # The sweep of tests/test_profile.py::TestExploreIntegration::
    # test_sim_measure_attaches_profiles: two launches per version
    # (timed run, then profiled run).
    record = launches.every(lambda: explore(
        MM_SRC, {"n": 64, "m": 64, "w": 64}, (64, 64), GTX280,
        block_factors=(4,), thread_factors=(1, 4), measure="sim",
        backend="vectorized"))
    _check("explore/mm64", record)
