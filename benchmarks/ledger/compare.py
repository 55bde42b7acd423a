"""Compare two ledger result files under the bounds in BENCHMARK.json.

    python3 benchmarks/ledger/compare.py A.json B.json

A is the base of every ratio.  One row per (workload, end-to-end
metric): ``better`` / ``same`` / ``worse`` by the metric's bound, or
``unresolved`` when the run's own spread is wider than the bound and the
change sits inside it.  Exact metrics must be equal.  Exits 1 on any
``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

from harness import REPO_ROOT, spread

#: Deterministic per-layer counts (see README.md).
EXACT_PER_LAYER = ("lang.print.emitted_lines", "analysis.findings",
                   "sim.profile.global_transactions",
                   "sim.profile.bank_conflict_cycles", "sim.auto_fallbacks",
                   "model.speedup_geomean")

#: Simulated, deterministic: "worse" is a drop of more than 0.1 %.
MODEL_SPEEDUP = {"name": "model_speedup_geomean", "better": "higher",
                 "bound": 0.001}


def verdict(better: str, bound: float, a: float, b: float,
            noise: float) -> str:
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if noise > bound and abs(worse_by) <= noise:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def noise_of(metric: str, run: Dict[str, Any]) -> float:
    """The run's own spread for ``metric``: between set-ups for
    ``setup_s``, between rounds for what is timed in rounds."""
    if metric == "setup_s":
        return spread(run["setup_samples_s"])
    if metric in ("peak_rss_mb", "model_speedup_geomean"):
        return 0.0
    return run["round_spread"]


def compare(a: Dict[str, Any], b: Dict[str, Any],
            spec: Dict[str, Any]) -> List[List[str]]:
    rows = []
    for name in a["workloads"]:
        run_a, run_b = a["workloads"][name], b["workloads"].get(name)
        if run_b is None or "metrics" not in run_a \
                or "metrics" not in run_b:
            continue
        for m in spec["end_to_end"] + [MODEL_SPEEDUP]:
            va = run_a["metrics"].get(m["name"])
            vb = run_b["metrics"].get(m["name"])
            if va is None or vb is None:
                continue
            noise = max(noise_of(m["name"], run_a),
                        noise_of(m["name"], run_b))
            rows.append([name, m["name"], f"{va:.4f}", f"{vb:.4f}",
                         f"{vb / va:.3f}x of A",
                         verdict(m["better"], m["bound"], va, vb, noise)])
        fa = run_a["metrics"]["fail_ratio"]
        fb = run_b["metrics"]["fail_ratio"]
        rows.append([name, "fail_ratio", f"{fa:.4f}", f"{fb:.4f}",
                     f"{fb - fa:+.4f} vs A",
                     "worse" if fb > fa else "better" if fb < fa
                     else "same"])
    if a.get("per_layer") and b.get("per_layer"):
        for metric in EXACT_PER_LAYER:
            va, vb = a["per_layer"][metric], b["per_layer"][metric]
            rows.append(["per-layer", metric, f"{va:.6g}", f"{vb:.6g}",
                         "exact", "same" if va == vb else "differs"])
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb, \
            open(REPO_ROOT / "BENCHMARK.json") as fs:
        rows = compare(json.load(fa), json.load(fb), json.load(fs))
    header = ["workload", "metric", "A (base)", "B", "B vs A", "verdict"]
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    bad = [r for r in rows if r[-1] in ("worse", "differs")]
    print(f"{len(rows)} row(s), {len(bad)} worse or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
