"""The shared JSON envelope convention (repro.obs.envelope)."""

import json

import pytest

from repro.obs.envelope import (
    KNOWN_SCHEMAS,
    EnvelopeError,
    dump_envelope,
    make_envelope,
    schema_name,
    schema_version,
    validate_envelope,
)


class TestMakeEnvelope:
    def test_schema_is_first_key(self):
        env = make_envelope("repro.lint/1", command="lint", exit_code=0)
        assert list(env)[0] == "schema"
        assert env["schema"] == "repro.lint/1"
        assert env["command"] == "lint"

    def test_field_order_preserved(self):
        env = make_envelope("repro.fuzz/1", b=1, a=2, c=3)
        assert list(env) == ["schema", "b", "a", "c"]

    def test_malformed_tag_rejected(self):
        with pytest.raises(EnvelopeError, match="malformed"):
            make_envelope("lint/1")
        with pytest.raises(EnvelopeError, match="malformed"):
            make_envelope("repro.lint")

    def test_unregistered_tag_rejected(self):
        with pytest.raises(EnvelopeError, match="unregistered"):
            make_envelope("repro.nosuchtool/1")

    def test_non_serializable_body_rejected(self):
        with pytest.raises(EnvelopeError, match="JSON-serializable"):
            make_envelope("repro.lint/1", bad=object())

    def test_duplicate_schema_field_rejected(self):
        # The tag is the positional argument; a schema= field collides
        # with it at the call site.
        with pytest.raises(TypeError):
            make_envelope("repro.lint/1", **{"schema": "repro.lint/1"})


class TestValidateEnvelope:
    def test_accepts_and_returns(self):
        env = make_envelope("repro.profile/1", command="profile")
        assert validate_envelope(env) is env
        assert validate_envelope(env, "repro.profile/1") is env

    def test_round_trip_through_json(self):
        env = make_envelope("repro.trace/1", record="header", events=0)
        again = json.loads(dump_envelope(env))
        assert validate_envelope(again, "repro.trace/1") == env

    def test_wrong_schema_rejected(self):
        env = make_envelope("repro.lint/1")
        with pytest.raises(EnvelopeError, match="expected schema"):
            validate_envelope(env, "repro.fuzz/1")

    def test_non_dict_rejected(self):
        with pytest.raises(EnvelopeError, match="JSON object"):
            validate_envelope([1, 2, 3])

    def test_missing_tag_rejected(self):
        with pytest.raises(EnvelopeError, match="schema tag"):
            validate_envelope({"command": "lint"})

    def test_required_fields(self):
        env = make_envelope("repro.lint/1", summary={})
        validate_envelope(env, required=("summary",))
        with pytest.raises(EnvelopeError, match="diagnostics"):
            validate_envelope(env, required=("diagnostics",))


class TestRegistry:
    def test_known_schemas_well_formed(self):
        for tag in KNOWN_SCHEMAS:
            assert schema_version(tag) >= 1
            assert schema_name(tag)

    def test_helpers(self):
        assert schema_name("repro.resilience/1") == "resilience"
        assert schema_version("repro.trace/1") == 1

    def test_all_cli_envelopes_registered(self):
        # The three pre-existing ad-hoc envelopes plus the two new ones.
        for tag in ("repro.lint/1", "repro.fuzz/1", "repro.serve/1",
                    "repro.trace/1", "repro.profile/1"):
            assert tag in KNOWN_SCHEMAS
