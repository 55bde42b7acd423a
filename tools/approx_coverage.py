"""Approximate line coverage of src/repro without coverage.py.

CI runs the real thing (``pytest --cov=repro``); this tool exists so
the ``--cov-fail-under`` floor can be sanity-checked in environments
where coverage.py is not installed.  It traces line events for files
under ``src/repro`` only (a call-level filter keeps the overhead on
third-party frames near zero) and compares against the executable
lines reported by each module's code objects, which is the same
universe coverage.py starts from.

Code that only runs inside ``repro.serve.pool`` worker processes is
counted too: before pytest starts, the pool's worker entry point is
wrapped so each worker traces itself and dumps its hits on exit.  The
pool forks its workers and looks the entry point up at spawn time, so
the wrapper reaches every worker without any hook in the pool itself.

Usage::

    PYTHONPATH=src python tools/approx_coverage.py [pytest args...]
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                   os.pardir, "src", "repro"))

_hits: dict = {}


def _local_trace(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local_trace


def _global_trace(frame, event, arg):
    if event == "call":
        fn = frame.f_code.co_filename
        if fn.startswith(SRC):
            _hits.setdefault(fn, set())
            return _local_trace
    return None


def executable_lines(path: str) -> set:
    """Line numbers carrying code, from the compiled module's co_lines."""
    with open(path) as f:
        code = compile(f.read(), path, "exec")
    lines = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for _, _, lineno in obj.co_lines():
            if lineno is not None:
                lines.add(lineno)
        for const in obj.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    return lines


def _trace_pool_workers(dump_dir: str) -> None:
    """Wrap ``repro.serve.pool._worker_main`` so every forked worker
    traces its own lines and writes them to ``dump_dir`` on exit."""
    from repro.serve import pool

    worker_main = pool._worker_main

    def traced_worker_main(conn) -> None:
        sys.settrace(_global_trace)
        try:
            worker_main(conn)
        finally:
            sys.settrace(None)
            fd, path = tempfile.mkstemp(suffix=".json", dir=dump_dir)
            with os.fdopen(fd, "w") as f:
                json.dump({fn: sorted(lines)
                           for fn, lines in _hits.items()}, f)

    pool._worker_main = traced_worker_main


def _merge_worker_dumps(dump_dir: str) -> None:
    """Fold the per-worker line dumps into the parent's hit sets."""
    for name in os.listdir(dump_dir):
        try:
            with open(os.path.join(dump_dir, name)) as f:
                dump = json.load(f)
        except (OSError, ValueError):
            continue
        for path, lines in dump.items():
            _hits.setdefault(path, set()).update(lines)


def main(argv) -> int:
    dump_dir = tempfile.mkdtemp(prefix="repro-cov-")
    sys.settrace(_global_trace)
    threading.settrace(_global_trace)
    # After settrace, so the pool module's import-time lines count.
    _trace_pool_workers(dump_dir)
    import pytest
    code = pytest.main(["-q", "-p", "no:cacheprovider"] + argv)
    sys.settrace(None)
    threading.settrace(None)
    _merge_worker_dumps(dump_dir)
    if code not in (0, None):
        print(f"warning: pytest exited {code}; coverage below reflects "
              f"a failing run", file=sys.stderr)

    total_exec = total_hit = 0
    rows = []
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            lines = executable_lines(path)
            hit = _hits.get(path, set()) & lines
            total_exec += len(lines)
            total_hit += len(hit)
            pct = 100.0 * len(hit) / len(lines) if lines else 100.0
            rows.append((os.path.relpath(path, SRC), len(lines),
                         len(hit), pct))
    rows.sort(key=lambda r: r[3])
    print(f"\n{'file':<40} {'lines':>6} {'hit':>6} {'cover':>7}")
    for rel, n, h, pct in rows:
        print(f"{rel:<40} {n:>6} {h:>6} {pct:>6.1f}%")
    pct = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(f"\nTOTAL approx line coverage: {total_hit}/{total_exec} "
          f"= {pct:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
