"""The paper's figures as a tier-1 golden, a claims table and a check of
EXPERIMENTS.md.

Every :data:`repro.bench.figures.FIGURES` entry is built once per session,
at the paper's scale.  Three checks read the result:

* Each figure's text must equal ``results/<name>.txt`` byte for byte.
  After an intended change, regenerate with

      UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_figures.py

  review ``git diff -- results`` and explain the move in EXPERIMENTS.md.
* :data:`CLAIMS` scores what the paper says about each figure over the
  regenerated rows.  Each row is pinned ``holds`` or ``known-miss``, so a
  change that fixes a miss or breaks a claim flips its row visibly.
* Every number EXPERIMENTS.md presents as measured (on a "Measured"
  bullet, in a measured table column or in a fenced block) must be a
  cell of that section's regenerated figure.
"""

import collections
import os
import pathlib
import re
from typing import Any, Callable, NamedTuple

import pytest

from repro.bench.figures import FIGURES
from repro.bench.report import format_table, geomean

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
UPDATE = bool(os.environ.get("UPDATE_GOLDEN"))


@pytest.fixture(scope="session")
def figures():
    """``{name: (rows, text)}`` for every FIGURES entry."""
    return {fig.name: fig.build() for fig in FIGURES}


# ---------------------------------------------------------------------------
# The golden
# ---------------------------------------------------------------------------

def test_results_hold_one_file_per_figure():
    assert sorted(p.name for p in RESULTS.iterdir()) == \
        sorted(f"{fig.name}.txt" for fig in FIGURES)


@pytest.mark.parametrize("name", [fig.name for fig in FIGURES])
def test_results_file_is_golden(name, figures):
    path = RESULTS / f"{name}.txt"
    text = figures[name][1] + "\n"
    if UPDATE:
        path.write_text(text)
        return
    assert path.read_text() == text, (
        f"results/{name}.txt drifted from the regenerated figure; if "
        f"intended, regenerate with UPDATE_GOLDEN=1, review the diff and "
        f"explain the move in EXPERIMENTS.md")


# ---------------------------------------------------------------------------
# The claims table
# ---------------------------------------------------------------------------

HOLDS = "holds"
KNOWN_MISS = "known-miss"


class Claim(NamedTuple):
    figure: str                         # FIGURES entry name
    id: str
    statement: str                      # what the paper says
    predicate: Callable[[Any], bool]    # over that figure's rows
    verdict: str                        # HOLDS or KNOWN_MISS


def _geo(rows, machine):
    return geomean([r[machine] for r in rows])


def _ratios(rows, algorithm):
    return [r["ratio"] for r in rows if r["algorithm"] == algorithm]


def _partition_gain(stages):
    return stages["+partition"] / stages["+prefetch"]


def _fix_gain(rows, scale):
    (row,) = [r for r in rows if r["scale"] == scale]
    return row["optimized_gbps"] / row["sdk_prev_gbps"]


T1, F10, F11, F12, F13, F14, F15, F16, S7 = (fig.name for fig in FIGURES)

CLAIMS = [
    Claim(T1, "ten_algorithms",
          "ten algorithms: tmv, mm, mv, vv, rd, strsm, conv, tp, demosaic, "
          "imregionmax",
          lambda rows: [r["short"] for r in rows] == [
              "tmv", "mm", "mv", "vv", "rd", "strsm", "conv", "tp",
              "demosaic", "imregionmax"], HOLDS),
    Claim(T1, "naive_kernels_tiny",
          "the naive kernels are tiny (3-27 lines); ours are no longer "
          "than the paper's",
          lambda rows: all(r["loc"] <= r["paper_loc"] for r in rows), HOLDS),
    Claim(T1, "compile_end_to_end",
          "every kernel but rd compiles through the full pipeline",
          lambda rows: sum(r["compiled"] is not None for r in rows) == 9,
          HOLDS),

    Claim(F10, "merging_helps",
          "merging lifts mm far above no thread merge: (16, 16) > 2x (4, 1)",
          lambda d: d["gflops"][16, 16] > 2 * d["gflops"][4, 1], HOLDS),
    Claim(F10, "best_in_high_merge_region",
          "the optimum merges at least 8 blocks and 8 threads",
          lambda d: min(d["best"]) >= 8, HOLDS),
    Claim(F10, "register_cliff",
          "register pressure caps the most aggressive corner: (32, 32) is "
          "not clearly better than (16, 16)",
          lambda d: d["gflops"][16, 16] >= 0.8 * (d["gflops"][32, 32] or 0),
          HOLDS),
    Claim(F10, "optimum_16x16",
          "the optimum is 16 blocks x 16 threads",
          lambda d: d["best"] == (16, 16), KNOWN_MISS),

    Claim(F11, "all_kernels_speed_up_or_hold",
          "no kernel slows down on either GPU",
          lambda rows: all(r[m] >= 0.99 for r in rows
                           for m in ("GTX8800", "GTX280")), HOLDS),
    Claim(F11, "average_speedups_large",
          "large geometric-mean speedups: > 4x on GTX 8800, > 3x on GTX 280",
          lambda rows: _geo(rows, "GTX8800") > 4 and _geo(rows, "GTX280") > 3,
          HOLDS),
    Claim(F11, "gtx8800_gains_more",
          "GTX 8800 gains more than GTX 280, whose relaxed coalescer "
          "improves the naive baselines",
          lambda rows: _geo(rows, "GTX8800") > _geo(rows, "GTX280"), HOLDS),
    Claim(F11, "best_case_large",
          "up to 128x: the best GTX 8800 speedup is above 30x",
          lambda rows: max(r["GTX8800"] for r in rows) > 30, HOLDS),
    Claim(F11, "camping_kernels_gain_more_on_gtx280",
          "partition camping matters more on GTX 280: mv and tp gain more "
          "there",
          lambda rows: all(r["GTX280"] > r["GTX8800"] for r in rows
                           if r["algorithm"] in ("mv", "tp")), HOLDS),
    Claim(F11, "geomeans_match_paper",
          "geometric means 15.1x (GTX 8800) and 7.9x (GTX 280), within 10 %",
          lambda rows: abs(_geo(rows, "GTX8800") / 15.1 - 1) <= 0.1
          and abs(_geo(rows, "GTX280") / 7.9 - 1) <= 0.1, KNOWN_MISS),

    Claim(F12, "vectorize_neutral",
          "vectorization contributes nothing on scalar inputs",
          lambda d: all(abs(s["+vectorize"] - 1) < 0.01 for s in d.values()),
          HOLDS),
    Claim(F12, "coalesce_big_jump",
          "coalescing conversion is a big jump: > 2x",
          lambda d: all(s["+coalesce"] > 2 for s in d.values()), HOLDS),
    Claim(F12, "merge_dominates",
          "thread/thread-block merge has the largest impact",
          lambda d: all(s["+merge"] > 1.5 * s["+coalesce"]
                        or s["+merge"] > s["+coalesce"] + 1
                        for s in d.values()), HOLDS),
    Claim(F12, "prefetch_little_impact",
          "prefetching shows little impact: within 25 % of +merge",
          lambda d: all(abs(s["+prefetch"] - s["+merge"]) < 0.25 * s["+merge"]
                        for s in d.values()), HOLDS),
    Claim(F12, "partition_matters_more_on_gtx280",
          "partition-camping elimination matters more on GTX 280",
          lambda d: _partition_gain(d["GTX280"])
          >= _partition_gain(d["GTX8800"]), HOLDS),

    Claim(F13, "winners_match_paper",
          "consistently better than CUBLAS for tmv, mv and strsm: > 1.5x",
          lambda rows: all(min(_ratios(rows, a)) > 1.5
                           for a in ("tmv", "mv", "strsm")), HOLDS),
    Claim(F13, "close_where_paper_is_close",
          "mm, rd and vv no more than 15 % behind CUBLAS",
          lambda rows: all(min(_ratios(rows, a)) > 0.85
                           for a in ("mm", "rd", "vv")), HOLDS),
    Claim(F13, "overall_advantage",
          "an overall geometric-mean advantage over CUBLAS: > 1.2x",
          lambda rows: geomean([r["ratio"] for r in rows]) > 1.2, HOLDS),
    Claim(F13, "mm_within_2pct",
          "mm within 2 % of CUBLAS",
          lambda rows: all(abs(x - 1) <= 0.02 for x in _ratios(rows, "mm")),
          KNOWN_MISS),
    Claim(F13, "rd_within_2pct",
          "rd within 2 % of CUBLAS",
          lambda rows: all(abs(x - 1) <= 0.02 for x in _ratios(rows, "rd")),
          KNOWN_MISS),
    Claim(F13, "vv_beats_cublas",
          "vv better than CUBLAS",
          lambda rows: min(_ratios(rows, "vv")) > 1.01, KNOWN_MISS),

    Claim(F14, "vectorization_wins",
          "the float2-vectorized kernel significantly outperforms "
          "optimized_wo_vec: > 1.3x at every size",
          lambda rows: all(r["gain"] > 1.3 for r in rows), HOLDS),

    Claim(F15, "diagonal_matters_at_camping_sizes",
          "diagonal reordering matters at camping sizes: SDK-new > 1.5x "
          "SDK-prev at every multiple of 1k",
          lambda d: all(r["sdk_new_gbps"] > 1.5 * r["sdk_prev_gbps"]
                        for r in d["GTX280"] if r["scale"] % 1024 == 0),
          HOLDS),
    Claim(F15, "matches_sdk_new",
          "the compiler applies SDK-new's diagonal reordering: optimized "
          ">= 0.95x SDK-new and > 2x naive",
          lambda d: all(r["optimized_gbps"] >= 0.95 * r["sdk_new_gbps"]
                        and r["optimized_gbps"] > 2 * r["naive_gbps"]
                        for r in d["GTX280"]), HOLDS),
    Claim(F15, "beats_sdk_new",
          "the compiler's remaining optimizations still beat SDK-new",
          lambda d: all(r["optimized_gbps"] > 1.01 * r["sdk_new_gbps"]
                        for r in d["GTX280"]), KNOWN_MISS),
    Claim(F15, "gtx8800_camping_contrast",
          "on GTX 8800 a 3k transpose camps while 4k spreads: the fix "
          "gains more at 3k",
          lambda d: _fix_gain(d["GTX8800"], 3072)
          > _fix_gain(d["GTX8800"], 4096), HOLDS),
    Claim(F15, "gtx8800_4k_little_effect",
          "on GTX 8800 the fix has little effect at 4k: within 5 %",
          lambda d: _fix_gain(d["GTX8800"], 4096) <= 1.05, HOLDS),
    Claim(F15, "gtx8800_3k_gain_21pct",
          "on GTX 8800 the fix improves 3k by 21.5 %, within 10 points",
          lambda d: abs(_fix_gain(d["GTX8800"], 3072) - 1.215) <= 0.1,
          KNOWN_MISS),

    Claim(F16, "opti_pc_beats_cublas",
          "even without partition-camping elimination (Opti_PC) the "
          "optimized kernel beats CUBLAS",
          lambda rows: all(r["opti_pc_gflops"] > r["cublas_gflops"]
                           for r in rows), HOLDS),
    Claim(F16, "offsets_improve_further",
          "address-offset insertion improves it further: never worse, "
          "> 1.2x at the camping sizes 2k and 4k",
          lambda rows: all(r["optimized_gflops"] >= r["opti_pc_gflops"]
                           for r in rows)
          and all(r["optimized_gflops"] > 1.2 * r["opti_pc_gflops"]
                  for r in rows if r["scale"] in (2048, 4096)), HOLDS),
    Claim(F16, "ordering",
          "naive < CUBLAS < Opti_PC < optimized, optimized > 5x naive",
          lambda rows: all(r["naive_gflops"] < r["cublas_gflops"]
                           < r["opti_pc_gflops"] < r["optimized_gflops"]
                           and r["optimized_gflops"] > 5 * r["naive_gflops"]
                           for r in rows), HOLDS),

    Claim(S7, "merged_makes_fewer_passes",
          "the merged kernel makes log8 instead of log2 passes over the data",
          lambda rows: rows[1]["passes"] < rows[0]["passes"], HOLDS),
    Claim(S7, "merged_wins",
          "the merged 8-point kernel beats the naive 2-point kernel",
          lambda rows: rows[1]["gflops"] > rows[0]["gflops"], HOLDS),
    Claim(S7, "both_compute_the_fft",
          "both kernels compute the FFT: error against numpy.fft below "
          "2e-4 of the peak",
          lambda rows: all(r["numpy_error"] < 2e-4 for r in rows), HOLDS),
    Claim(S7, "paper_gain",
          "24 -> 41 GFLOPS: the merge gains at least 1.5x",
          lambda rows: rows[1]["gflops"] >= 1.5 * rows[0]["gflops"],
          KNOWN_MISS),
]


@pytest.fixture(scope="session")
def scorecard(figures):
    """The regenerated verdict of every claim, keyed by (figure, id)."""
    return {(c.figure, c.id):
            HOLDS if c.predicate(figures[c.figure][0]) else KNOWN_MISS
            for c in CLAIMS}


def test_every_figure_has_a_claim():
    assert {c.figure for c in CLAIMS} == {fig.name for fig in FIGURES}


@pytest.mark.parametrize("claim", CLAIMS,
                         ids=[f"{c.figure}-{c.id}" for c in CLAIMS])
def test_claim(claim, scorecard):
    pinned = collections.Counter(c.verdict for c in CLAIMS)
    now = collections.Counter(scorecard.values())
    assert scorecard[claim.figure, claim.id] == claim.verdict, (
        f"{claim.figure}: '{claim.statement}' is pinned {claim.verdict} "
        f"and no longer is.  Claims pinned: {pinned[HOLDS]} {HOLDS}, "
        f"{pinned[KNOWN_MISS]} {KNOWN_MISS}; regenerated: {now[HOLDS]} "
        f"{HOLDS}, {now[KNOWN_MISS]} {KNOWN_MISS}.  If the move is "
        f"intended, re-pin the row and restate it in EXPERIMENTS.md")


# ---------------------------------------------------------------------------
# EXPERIMENTS.md quotes regenerated cells
# ---------------------------------------------------------------------------

_HEADING = re.compile(r"## (Table|Figure|Section) (\d+)\b")
_PREFIX = {"Table": "table", "Figure": "fig", "Section": "sec"}
_NUMBER = re.compile(r"\d+(?:\.\d+)?")
_MEASURED_COLUMN = ("measured", "this repo")


def _numbers(text):
    """The numbers in ``text`` outside `code spans` (file names)."""
    return _NUMBER.findall(re.sub(r"`[^`]*`", "", text))


def sections(markdown):
    """``{figure name: text}`` of each figure's ``##`` section."""
    found = {}
    for part in re.split(r"^(?=## )", markdown, flags=re.M):
        m = _HEADING.match(part)
        if m:
            prefix = f"{_PREFIX[m.group(1)]}{m.group(2)}_"
            (name,) = [f.name for f in FIGURES if f.name.startswith(prefix)]
            found[name] = part
    return found


def quoted_numbers(section):
    """The numbers a section presents as measured."""
    found = []
    fenced = measured = False
    columns = []
    for line in section.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            found += _numbers(line)
        elif line.startswith("|"):
            cells = [c.strip().lower()
                     for c in line.strip().strip("|").split("|")]
            if any(c.startswith(_MEASURED_COLUMN) for c in cells):
                columns = [i for i, c in enumerate(cells)
                           if c.startswith(_MEASURED_COLUMN)]
            elif not cells[0].startswith("---"):
                found += [n for i in columns for n in _numbers(cells[i])]
        else:
            if line.startswith("* ") or not line.strip():
                measured = line.startswith("* **Measured")
            if measured:
                found += _numbers(line)
    return found


def stale_quotes(markdown, texts):
    """``(figure, number)`` for each quoted number that is no cell of
    ``texts`` (``{figure name: regenerated text}``)."""
    stale = []
    for name, section in sections(markdown).items():
        cells = set(_numbers(texts[name]))
        stale += [(name, n) for n in quoted_numbers(section)
                  if n not in cells]
    return stale


def test_experiments_quotes_regenerated_cells(figures):
    markdown = (ROOT / "EXPERIMENTS.md").read_text()
    assert set(sections(markdown)) == set(figures)
    texts = {name: text for name, (_, text) in figures.items()}
    stale = stale_quotes(markdown, texts)
    assert not stale, (
        f"EXPERIMENTS.md quotes numbers that are not cells of the "
        f"regenerated figures: {stale}")


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 0.001]], "T")
        assert "T" in text and "2.50" in text and "0.0010" in text

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
