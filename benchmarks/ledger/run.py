"""The layered performance ledger: seven workloads, end to end and by layer.

One command, from the repository root::

    python3 benchmarks/ledger/run.py --seed 0

runs every workload with tracing off, checks every op's output, prints
each end-to-end metric by name with its unit, then makes a separate
traced pass that yields the per-layer metrics and
``out/trace.<workload>.jsonl``, and writes ``out/results.json``.

``--workload NAME`` runs one workload, ``--trace 0|1`` one of the two
passes, ``--quick`` one round each.  With both ``--workload`` and
``--trace`` the last line of output is one JSON object for the driver
described in ``BENCHMARK.json``.  README.md has the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

_T0 = time.perf_counter()

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent

#: End-to-end metrics the driver's contract cannot carry (one is 0 on
#: every good run, the other is defined on three workloads only); they
#: are printed, stored in the result file and compared by compare.py.
EXTRA_END_TO_END = {"fail_ratio": "ratio", "model_speedup_geomean": "x"}


def load_spec() -> Dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def host_info() -> Dict[str, Any]:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "load_start": os.getloadavg(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": commit}


def print_workload(name: str, result: Dict[str, Any],
                   units: Dict[str, str]) -> None:
    print(f"== {name}: {result['rounds']} round(s), "
          f"{result['attempted']} op(s), {result['failed']} failed, "
          f"round spread {result['round_spread']:.3f}")
    for metric, value in result["metrics"].items():
        unit = units[metric]
        note = ""
        if metric == "work_per_s":
            unit = f"{result['unit']}/s"
        elif metric == "op_p50_ms":
            note = f"  (n={result['latency_samples']})"
        elif metric == "op_tail_ms":
            note = (f"  (p{result['tail_pct']}, "
                    f"n={result['latency_samples']})")
        print(f"  {metric:<24}{value:>14.4f} {unit}{note}")
    for why, count in result["failures"].items():
        print(f"  FAILED x{count}: {why}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long each workload measures")
    parser.add_argument("--workload", default=None,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced pass only; 1: traced pass only "
                             "(default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="one round and one set-up per workload")
    parser.add_argument("--out", default=None,
                        help="result file (default: out/results.json, "
                             "out/results.quick.json with --quick)")
    args = parser.parse_args(argv)

    for knob in ("REPRO_SIM_BACKEND", "REPRO_FAULTS"):
        os.environ.pop(knob, None)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        import harness
        import probes
        import workloads
    except ImportError as exc:
        print(f"ledger: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    # SIGTERM unwinds like Ctrl-C, so daemons die and stores vanish.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    units = dict(end_to_end, **EXTRA_END_TO_END)
    chosen = [w for w in workloads.WORKLOADS
              if args.workload in (None, w.name)]
    single = args.workload is not None and args.trace is not None
    record: Dict[str, Any] = {
        "schema": "repro.ledger/1", "seed": args.seed,
        "seconds": args.seconds, "quick": args.quick,
        "host": host_info(), "workloads": {}, "per_layer": {}}

    attempted = failed = 0
    with harness.RunDir() as tmp:
        if args.trace in (None, 0):
            for w in chosen:
                result = harness.measure(
                    w, args.seed,
                    seconds=0.0 if args.quick else args.seconds,
                    min_rounds=1 if args.quick else 3,
                    setup_repeats=1 if args.quick else 3, tmp=tmp)
                # Imports are set-up too, paid once per process.
                result["metrics"]["setup_s"] += import_s
                record["workloads"][w.name] = result
                attempted += result["attempted"]
                failed += result["failed"]
                print_workload(w.name, result, units)

        if args.trace in (None, 1):
            overheads, spreads = [], []
            for w in chosen:
                traced = harness.trace_pass(
                    w, args.seed, pairs=1 if args.quick else 2, tmp=tmp)
                spans = traced.pop("spans")
                harness.write_jsonl(
                    harness.OUT_DIR / f"trace.{w.name}.jsonl", spans)
                traced["spans"] = len(spans)
                traced["self_time_s"] = harness.self_time_by_name(spans)
                record["workloads"].setdefault(w.name, {})["trace"] = traced
                attempted += traced["attempted"]
                failed += traced["failed"]
                overheads.append(traced["trace_overhead_ratio"])
                spreads.append(traced["round_spread"])
                print(f"== {w.name} traced: {len(spans)} span(s), traced/"
                      f"untraced work_per_s "
                      f"{traced['trace_overhead_ratio']:.3f}")
                for span, self_s in sorted(traced["self_time_s"].items(),
                                           key=lambda kv: -kv[1]):
                    print(f"  self {span:<32}{self_s:>10.4f} s")
            layers = probes.run_probes(
                tmp, reps=1 if args.quick or args.workload else 3)
            # How far to trust the rest: the worst workload of this run.
            layers["bench.trace_overhead_ratio"] = min(overheads)
            layers["bench.round_spread"] = max(spreads)
            missing = sorted(set(per_layer) ^ set(layers))
            if missing:
                raise RuntimeError(f"per-layer metrics and BENCHMARK.json "
                                   f"disagree on {missing}")
            record["per_layer"] = layers
            print("== per-layer")
            for metric, value in layers.items():
                print(f"  {metric:<40}{value:>16.4f} {per_layer[metric]}")

    host = record["host"]
    host["load_end"] = os.getloadavg()
    host["loaded_host"] = max(host["load_start"][0],
                              host["load_end"][0]) > host["nproc"]
    if host["loaded_host"]:
        print("ledger: load average exceeds nproc; timings are suspect",
              file=sys.stderr)
    out = pathlib.Path(args.out) if args.out else harness.OUT_DIR / (
        "results.quick.json" if args.quick else "results.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    if single:
        if args.trace == 0:
            values = record["workloads"][args.workload]["metrics"]
            shown = end_to_end
        else:
            values, shown = record["per_layer"], per_layer
        if set(shown) - set(values):
            # Every op failed, so there is no latency to report.
            print(f"ledger: no value for {sorted(set(shown) - set(values))}",
                  file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": values[m], "unit": unit}
                        for m, unit in shown.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
