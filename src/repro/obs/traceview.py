"""``python -m repro trace-view`` — render one request's span tree.

The compile service scatters one request's telemetry over several
actors: the HTTP front end writes a ``serve`` trace file (request span,
parse/key, queue wait, task window), and every worker attempt writes a
``worker`` file with the compilation's per-pass spans — all stamped
with the same trace id and collected under ``<store>/traces`` (see
:mod:`repro.obs.propagate`).  This module stitches them back together:

.. code-block:: text

    trace 3fc1b2a7...
    serve (verdict=miss, kernel=mm)
      request
        parse
        key
        pool.queue
        pool.task
          worker attempt 01 (task=compile, status=ok)
            plan
            ...per-pass spans...
            verify

Span nesting is reconstructed from the ``span_start``/``span_end``
event stream; decision/warning/rollback events render as ``*`` leaf
lines under their innermost span.  ``--no-durations`` drops wall-clock
numbers so the tree is deterministic (the golden test pins it).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.obs.propagate import TraceCollector

#: Event kinds rendered as leaf annotation lines.
_LEAF_KINDS = ("decision", "warning", "rollback", "proof", "schedule")


class _Node:
    """One rendered tree node (a span, an annotation, or a file root)."""

    __slots__ = ("label", "kind", "duration_s", "children")

    def __init__(self, label: str, kind: str = "span",
                 duration_s: Optional[float] = None):
        self.label = label
        self.kind = kind
        self.duration_s = duration_s
        self.children: List["_Node"] = []

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"label": self.label, "kind": self.kind}
        if self.duration_s is not None:
            out["duration_s"] = round(self.duration_s, 6)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


def build_span_tree(events: List[Dict[str, object]]) -> List[_Node]:
    """Nest a flat ``span_start``/``span_end`` event stream.

    Tolerant of truncated streams (a crash mid-span): unclosed spans
    simply keep their children and report no duration.
    """
    root = _Node("", kind="root")
    stack = [root]
    for event in events:
        kind = event.get("kind")
        if kind == "span_start":
            node = _Node(str(event.get("pass") or "?"))
            stack[-1].children.append(node)
            stack.append(node)
        elif kind == "span_end":
            name = str(event.get("pass") or "?")
            if len(stack) > 1 and stack[-1].label == name:
                node = stack.pop()
                duration = event.get("duration_s")
                if duration is not None:
                    node.duration_s = float(duration)
        elif kind in _LEAF_KINDS:
            message = str(event.get("message") or "")
            stack[-1].children.append(_Node(message, kind=str(kind)))
    return root.children


def _find(nodes: List[_Node], label: str) -> Optional[_Node]:
    for node in nodes:
        if node.kind == "span" and node.label == label:
            return node
        found = _find(node.children, label)
        if found is not None:
            return found
    return None


def _component_label(envelope: Dict[str, object]) -> str:
    component = str(envelope.get("component") or "serve")
    if component == "worker":
        parts = [f"task={envelope.get('task', '?')}",
                 f"status={envelope.get('status', '?')}"]
        if envelope.get("kernel"):
            parts.append(f"kernel={envelope['kernel']}")
        return (f"worker attempt {int(envelope.get('attempt', 0) or 0):02d} "
                f"({', '.join(parts)})")
    parts = []
    for key in ("verdict", "kernel"):
        if envelope.get(key):
            parts.append(f"{key}={envelope[key]}")
    return f"serve ({', '.join(parts)})" if parts else "serve"


def assemble(envelopes: List[Dict[str, object]]) -> List[_Node]:
    """One tree per trace: serve file is the trunk, worker attempts
    graft under its ``pool.task`` span (or trail it when absent)."""
    serve_roots: List[_Node] = []
    worker_roots: List[_Node] = []
    for envelope in envelopes:
        node = _Node(_component_label(envelope), kind="component")
        node.children = build_span_tree(
            list(envelope.get("events") or []))
        if envelope.get("component") == "worker":
            worker_roots.append(node)
        else:
            serve_roots.append(node)
    if serve_roots and worker_roots:
        graft = _find(serve_roots[0].children, "pool.task")
        if graft is not None:
            graft.children.extend(worker_roots)
            return serve_roots
    return serve_roots + worker_roots


def render(trace_id: str, roots: List[_Node],
           durations: bool = True) -> List[str]:
    lines = [f"trace {trace_id}"]

    def walk(node: _Node, depth: int) -> None:
        indent = "  " * depth
        if node.kind in _LEAF_KINDS:
            lines.append(f"{indent}* {node.label}")
            return
        suffix = ""
        if durations and node.duration_s is not None:
            suffix = f"  [{node.duration_s * 1000:.1f} ms]"
        lines.append(f"{indent}{node.label}{suffix}")
        for child in node.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return lines


def trace_view_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro trace-view`` CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace-view",
        description="Render the merged span tree of one service request "
                    "(HTTP receipt -> queue wait -> worker compile -> "
                    "per-pass spans).")
    parser.add_argument("trace_id", nargs="?", metavar="TRACE_ID",
                        help="trace id (any unique prefix)")
    parser.add_argument("--traces", default=".repro_store/traces",
                        metavar="DIR",
                        help="trace collector directory "
                             "(default: .repro_store/traces)")
    parser.add_argument("--list", action="store_true",
                        help="list collected trace ids and exit")
    parser.add_argument("--no-durations", action="store_true",
                        help="omit wall-clock numbers (deterministic "
                             "output; used by the golden test)")
    parser.add_argument("--json", action="store_true",
                        help="emit the tree as JSON instead of text")
    args = parser.parse_args(argv)

    collector = TraceCollector(args.traces)
    if args.list:
        for tid in collector.ids():
            print(tid)
        return 0
    if not args.trace_id:
        print("trace-view: a TRACE_ID (or --list) is required",
              file=sys.stderr)
        return 2
    try:
        trace_id = collector.resolve(args.trace_id)
    except KeyError as exc:
        print(f"trace-view: {exc.args[0]}", file=sys.stderr)
        return 1
    envelopes = collector.collect(trace_id)
    roots = assemble(envelopes)
    if args.json:
        print(json.dumps({"trace_id": trace_id,
                          "files": len(envelopes),
                          "tree": [r.to_dict() for r in roots]},
                         indent=2))
        return 0
    for line in render(trace_id, roots,
                       durations=not args.no_durations):
        print(line)
    return 0
