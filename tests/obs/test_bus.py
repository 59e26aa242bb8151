"""TraceBus behaviour: ring, counts, session flushes, and the global
enable/disable surface in :mod:`repro.obs`."""

import pytest

from repro import obs
from repro.obs import TraceBus, validate_trace_lines


def emit_session(bus, label, t0=0.0):
    """One tiny two-connection session, offset by ``t0``."""
    with bus.session(label):
        bus.emit(t0 + 0.00, "session:request_sent", "cli", {})
        bus.emit(t0 + 0.01, "wira:request_received", "srv", {"stream": "s"})
        bus.emit(t0 + 0.05, "session:first_frame", "cli", {"ffct": 0.05})


class TestRingAndCounts:
    def test_emit_reaches_ring_and_counts(self):
        bus = TraceBus()
        bus.emit(0.1, "session:first_byte", "ab", {})
        bus.emit(0.2, "session:first_byte", "ab", {})
        assert bus.counts == {"session:first_byte": 2}
        assert bus.ring_events() == [
            (0.1, "session:first_byte", "ab", {}),
            (0.2, "session:first_byte", "ab", {}),
        ]

    def test_ring_is_bounded(self):
        bus = TraceBus(ring_size=3)
        for i in range(10):
            bus.emit(float(i), "session:video_frame", "ab", {"k": i})
        events = bus.ring_events()
        assert len(events) == 3
        assert [e[0] for e in events] == [7.0, 8.0, 9.0]  # oldest first

    def test_counts_survive_ring_eviction(self):
        bus = TraceBus(ring_size=2)
        for i in range(5):
            bus.emit(float(i), "session:video_frame", "ab", {})
        assert bus.counts["session:video_frame"] == 5


class TestSessionScope:
    def test_session_collects_only_scoped_events(self):
        bus = TraceBus()
        bus.emit(0.0, "session:request_sent", "ab", {})  # outside: ring only
        with bus.session("s1") as events:
            bus.emit(0.1, "session:first_byte", "ab", {})
        assert [e[1] for e in events] == ["session:first_byte"]
        assert len(bus.ring_events()) == 2

    def test_memory_only_bus_writes_nothing(self, tmp_path):
        bus = TraceBus()  # no trace_dir
        emit_session(bus, "s1")
        assert list(tmp_path.iterdir()) == []

    def test_flush_writes_one_valid_file_per_connection(self, tmp_path):
        bus = TraceBus(trace_dir=tmp_path)
        emit_session(bus, "s1")
        names = sorted(p.name for p in tmp_path.glob("*.jsonl"))
        assert names == ["s1--cli.jsonl", "s1--srv.jsonl"]
        for path in tmp_path.glob("*.jsonl"):
            assert validate_trace_lines(path.read_text().splitlines()) == []

    def test_empty_session_writes_no_file(self, tmp_path):
        bus = TraceBus(trace_dir=tmp_path)
        with bus.session("empty"):
            pass
        assert list(tmp_path.iterdir()) == []

    def test_nested_sessions_restore_outer_buffer(self, tmp_path):
        bus = TraceBus(trace_dir=tmp_path)
        with bus.session("outer") as outer:
            bus.emit(0.0, "session:request_sent", "cli", {})
            with bus.session("inner"):
                bus.emit(0.1, "session:first_byte", "cli", {})
            bus.emit(0.2, "session:first_frame", "cli", {"ffct": 0.2})
        assert [e[1] for e in outer] == ["session:request_sent", "session:first_frame"]
        assert sorted(p.name for p in tmp_path.glob("*.jsonl")) == [
            "inner--cli.jsonl",
            "outer--cli.jsonl",
        ]


class TestGlobalSurface:
    def test_enable_disable(self):
        bus = obs.enable()
        assert obs.ACTIVE is bus and obs.enabled()
        obs.disable()
        assert obs.ACTIVE is None and not obs.enabled()

    def test_tracing_scope_restores_previous(self):
        obs.disable()
        with obs.tracing() as bus:
            assert obs.ACTIVE is bus
        assert obs.ACTIVE is None

    def test_tracing_accepts_trace_dir(self, tmp_path):
        with obs.tracing(trace_dir=tmp_path) as bus:
            assert bus.trace_dir == tmp_path

    def test_env_requested(self, monkeypatch):
        monkeypatch.delenv("WIRA_TRACE", raising=False)
        assert not obs.env_requested()
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv("WIRA_TRACE", value)
            assert obs.env_requested()
        monkeypatch.setenv("WIRA_TRACE", "0")
        assert not obs.env_requested()

    def test_env_trace_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("WIRA_TRACE_DIR", raising=False)
        assert obs.env_trace_dir() is None
        monkeypatch.setenv("WIRA_TRACE_DIR", str(tmp_path))
        assert obs.env_trace_dir() == tmp_path

    def test_enable_picks_up_env_trace_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WIRA_TRACE_DIR", str(tmp_path))
        with obs.tracing() as bus:
            assert bus.trace_dir == tmp_path
