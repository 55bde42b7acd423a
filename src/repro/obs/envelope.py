"""The one JSON envelope convention shared by every repro tool.

Every machine-readable artifact this repo emits — ``lint --json``,
``fuzz --json``, ``profile --json``, the compile service's payloads and
metric snapshots, and the compilation trace header — is a single JSON
object whose first key is a versioned ``schema`` tag of the form
``repro.<tool>/<N>``.
Consumers dispatch on the tag and reject objects they do not understand;
producers bump ``<N>`` on breaking changes.

This module is the single place that knows the convention: producers call
:func:`make_envelope`, consumers call :func:`validate_envelope`.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, Optional

#: Schema tags this repo currently emits.  Kept here (not in each tool) so
#: one grep answers "what envelopes exist" and tests can sweep them all.
KNOWN_SCHEMAS = (
    "repro.lint/1",
    "repro.fuzz/1",
    "repro.trace/1",
    "repro.profile/1",
    "repro.resilience/1",
    "repro.serve/1",
    "repro.metrics/1",
)

_SCHEMA_RE = re.compile(r"^repro\.[a-z][a-z0-9-]*/[0-9]+$")


class EnvelopeError(ValueError):
    """An object is not a valid repro envelope (or the wrong schema)."""


def schema_name(schema: str) -> str:
    """The tool part of a tag: ``repro.fuzz/1`` -> ``fuzz``."""
    return schema.split("/", 1)[0].split(".", 1)[1]


def schema_version(schema: str) -> int:
    """The version part of a tag: ``repro.fuzz/1`` -> ``1``."""
    return int(schema.split("/", 1)[1])


def make_envelope(schema: str, **fields) -> Dict[str, object]:
    """Build an envelope dict with ``schema`` as its first key.

    ``fields`` become the envelope body in keyword order (Python dicts
    preserve insertion order, and ``json.dumps`` keeps it, so the emitted
    artifact is stable and diffs cleanly).  The tag must be well-formed
    and registered in :data:`KNOWN_SCHEMAS`; the body must be
    JSON-serializable — both are checked here so a malformed envelope
    fails at the producer, not in a downstream consumer.
    """
    if not _SCHEMA_RE.match(schema):
        raise EnvelopeError(
            f"malformed schema tag {schema!r}; expected repro.<tool>/<N>")
    if schema not in KNOWN_SCHEMAS:
        raise EnvelopeError(
            f"unregistered schema tag {schema!r}; add it to "
            f"repro.obs.envelope.KNOWN_SCHEMAS")
    envelope: Dict[str, object] = {"schema": schema}
    envelope.update(fields)
    try:
        json.dumps(envelope)
    except (TypeError, ValueError) as exc:
        raise EnvelopeError(
            f"envelope {schema} body is not JSON-serializable: {exc}")
    return envelope


def validate_envelope(obj: object,
                      schema: Optional[str] = None,
                      required: Iterable[str] = ()) -> Dict[str, object]:
    """Check ``obj`` is an envelope (optionally of one exact ``schema``).

    Returns the object for chaining.  ``required`` names top-level keys
    that must be present (beyond ``schema`` itself).
    """
    if not isinstance(obj, dict):
        raise EnvelopeError(
            f"envelope must be a JSON object, got {type(obj).__name__}")
    tag = obj.get("schema")
    if not isinstance(tag, str) or not _SCHEMA_RE.match(tag):
        raise EnvelopeError(f"missing or malformed schema tag: {tag!r}")
    if schema is not None and tag != schema:
        raise EnvelopeError(f"expected schema {schema!r}, got {tag!r}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise EnvelopeError(
            f"envelope {tag} is missing required field(s): "
            f"{', '.join(missing)}")
    return obj


def dump_envelope(envelope: Dict[str, object], indent: int = 2) -> str:
    """Canonical rendering: validated, indented, trailing newline-free."""
    validate_envelope(envelope)
    return json.dumps(envelope, indent=indent)
