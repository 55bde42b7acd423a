"""Self-test of the ledger; run by path (tier-1's ``testpaths`` is ``tests``):

    python3 -m pytest benchmarks/ledger/test_ledger.py
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

LEDGER = pathlib.Path(__file__).resolve().parent
ROOT = LEDGER.parent.parent
sys.path[:0] = [str(LEDGER), str(ROOT / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_ledger(*args):
    return subprocess.run([sys.executable, str(LEDGER / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two ``--quick`` runs of the same seed."""
    out = []
    for i in range(2):
        path = tmp_path_factory.mktemp("ledger") / f"quick{i}.json"
        done = run_ledger("--quick", "--seed", "0", "--out", str(path))
        assert done.returncode == 0, done.stdout + done.stderr
        out.append(json.loads(path.read_text()))
    return out


def test_quick_run_emits_every_named_metric(quick_runs):
    record = quick_runs[0]
    assert list(record["workloads"]) == NAMES
    wanted = {m["name"] for m in SPEC["end_to_end"]} | {"fail_ratio"}
    for name, run in record["workloads"].items():
        assert wanted <= set(run["metrics"]), name
        assert run["metrics"]["fail_ratio"] == 0, run["failures"]
        assert run["trace"]["failed"] == 0
    assert set(record["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert metric["unit"]
    for key in ("nproc", "load_start", "load_end", "loaded_host", "python",
                "numpy", "git_commit"):
        assert key in record["host"]


def test_spans_nest_and_self_times_are_not_negative(quick_runs):
    for name in NAMES:
        lines = (harness.OUT_DIR / f"trace.{name}.jsonl").read_text()
        spans = [json.loads(line) for line in lines.splitlines()]
        assert spans, name
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start_s"] <= s["start_s"]
                assert s["end_s"] <= parent["end_s"]
                assert s["op"] == parent["op"]
        assert min(harness.self_times(spans).values()) >= 0


def test_exact_metrics_repeat(quick_runs):
    a, b = quick_runs
    for metric in compare.EXACT_PER_LAYER:
        assert a["per_layer"][metric] == b["per_layer"][metric], metric
    for name in ("compile_cold", "serve_miss", "explore_sweep"):
        assert (a["workloads"][name]["metrics"]["model_speedup_geomean"]
                == b["workloads"][name]["metrics"]["model_speedup_geomean"])
    rows = compare.compare(a, a, SPEC)
    assert rows and {row[-1] for row in rows} == {"same"}


def test_wrong_reference_fails_the_check(monkeypatch, tmp_path):
    real = workloads.reference_outputs

    def wrong(algo, arrays, sizes):
        return {name: want * 2 + 1
                for name, want in real(algo, arrays, sizes).items()}

    monkeypatch.setattr(workloads, "reference_outputs", wrong)
    result = harness.measure(workloads.BY_NAME["sim_scalar"], seed=0,
                             seconds=0.0, min_rounds=1, setup_repeats=1,
                             tmp=tmp_path)
    assert result["metrics"]["fail_ratio"] > 0
    assert result["failed"] == result["attempted"]


def test_driver_line_and_empty_checkout(tmp_path):
    done = run_ledger("--workload", "compile_cold", "--seed", "5",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and not last["failed"]
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())

    # With BENCHMARK.json and this directory only, there is no program to
    # measure: no result line, non-zero exit.
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for path in LEDGER.glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "compile_cold", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()
