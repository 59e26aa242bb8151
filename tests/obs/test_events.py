"""Schema tests: record encoding, decoding and trace-file validation."""

import json

import pytest

from repro.obs.events import (
    EVENT_NAMES,
    SCHEMA_VERSION,
    decode_record,
    encode_record,
    meta_record,
    validate_record,
    validate_trace_lines,
)


class TestEncoding:
    def test_canonical_encoding(self):
        line = encode_record(1.5, "session:done", "ab12", {"frames": 6})
        # sort_keys + tight separators: byte-stable across processes.
        assert line == '{"data":{"conn":"ab12","frames":6},"name":"session:done","time":1.5}'

    def test_conn_folded_into_data(self):
        record = decode_record(encode_record(0.0, "session:first_byte", "cd", {}))
        assert record["data"] == {"conn": "cd"}

    def test_input_data_not_mutated(self):
        data = {"k": 1}
        encode_record(0.0, "session:video_frame", "ab", data)
        assert data == {"k": 1}

    def test_roundtrip(self):
        line = encode_record(2.25, "transport:packet_sent", "ef", {"pn": 3, "size": 1200})
        record = decode_record(line)
        assert record["time"] == 2.25
        assert record["name"] == "transport:packet_sent"
        assert record["data"]["pn"] == 3

    def test_meta_record_carries_schema_version(self):
        record = decode_record(meta_record(0.0, "ab", "wira-c0-s0"))
        assert record["name"] == "trace:meta"
        assert record["data"]["schema_version"] == SCHEMA_VERSION
        assert record["data"]["label"] == "wira-c0-s0"

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_record("not json at all")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ValueError):
            decode_record("[1, 2, 3]")


class TestEventNames:
    def test_all_names_are_categorised(self):
        assert all(":" in name for name in EVENT_NAMES)

    def test_wira_mechanisms_are_covered(self):
        # The paper's three mechanisms must each be observable.
        assert {"wira:parse_begin", "wira:parse_complete"} <= EVENT_NAMES  # Frame Perception
        assert {"wira:cookie_hit", "wira:cookie_miss"} <= EVENT_NAMES  # Transport Cookie
        assert {"wira:init_cwnd", "wira:init_pacing"} <= EVENT_NAMES  # the two overrides


class TestValidateRecord:
    def good(self):
        return {"time": 0.5, "name": "session:done", "data": {"conn": "ab"}}

    def test_valid_record_has_no_defects(self):
        assert validate_record(self.good()) == []

    def test_non_object_rejected(self):
        assert validate_record([1, 2]) == ["record is not a JSON object"]

    @pytest.mark.parametrize("missing", ["time", "name", "data"])
    def test_missing_key_reported(self, missing):
        record = self.good()
        del record[missing]
        assert any(missing in e for e in validate_record(record))

    def test_extra_top_level_key_reported(self):
        record = self.good()
        record["extra"] = 1
        assert any("unexpected top-level" in e for e in validate_record(record))

    def test_negative_time_reported(self):
        record = self.good()
        record["time"] = -0.1
        assert any("non-negative" in e for e in validate_record(record))

    def test_non_numeric_time_reported(self):
        record = self.good()
        record["time"] = "早"
        assert any("must be a number" in e for e in validate_record(record))

    def test_uncategorised_name_reported(self):
        record = self.good()
        record["name"] = "nocategory"
        assert any("category:event" in e for e in validate_record(record))

    def test_unknown_name_reported(self):
        record = self.good()
        record["name"] = "transport:made_up"
        assert any("unknown event name" in e for e in validate_record(record))

    def test_unknown_name_allowed_when_opted_out(self):
        record = self.good()
        record["name"] = "transport:made_up"
        assert validate_record(record, known_names=False) == []

    def test_non_object_data_reported(self):
        record = self.good()
        record["data"] = 7
        assert any("data must be an object" in e for e in validate_record(record))


class TestValidateTraceLines:
    def lines(self):
        return [
            meta_record(0.0, "ab", "s"),
            encode_record(0.0, "session:request_sent", "ab", {}),
            encode_record(0.1, "session:first_frame", "ab", {"ffct": 0.1}),
        ]

    def test_valid_file(self):
        assert validate_trace_lines(self.lines()) == []

    def test_empty_file(self):
        assert validate_trace_lines([]) == ["empty trace file"]

    def test_blank_line_reported(self):
        lines = self.lines()
        lines.insert(1, "   ")
        assert any("blank line" in e for e in validate_trace_lines(lines))

    def test_missing_meta_reported(self):
        assert any(
            "must be trace:meta" in e for e in validate_trace_lines(self.lines()[1:])
        )

    def test_meta_not_first_reported(self):
        lines = self.lines()
        lines.append(meta_record(0.2, "ab", "s"))
        assert any(
            "only allowed as the first record" in e for e in validate_trace_lines(lines)
        )

    def test_unsupported_schema_version_reported(self):
        bad_meta = json.dumps(
            {"time": 0.0, "name": "trace:meta", "data": {"conn": "ab", "schema_version": 99}}
        )
        errors = validate_trace_lines([bad_meta] + self.lines()[1:])
        assert any("schema_version" in e for e in errors)

    def test_decreasing_timestamp_reported(self):
        lines = self.lines()
        lines.append(encode_record(0.05, "session:done", "ab", {}))
        assert any("decreases" in e for e in validate_trace_lines(lines))

    def test_invalid_json_line_reported(self):
        lines = self.lines()
        lines.insert(1, "{broken")
        assert any("not valid JSON" in e for e in validate_trace_lines(lines))

    def test_defects_carry_line_numbers(self):
        lines = self.lines()
        lines.append("{broken")
        (error,) = validate_trace_lines(lines)
        assert error.startswith(f"line {len(lines)}:")
