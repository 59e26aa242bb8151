"""The consolidated ``WIRA_*`` knob parser and its delegating consumers."""

from dataclasses import fields
from pathlib import Path

import pytest

from repro import obs, sanitize
from repro.experiments import runner
from repro.runtime import pool, settings
from repro.runtime.settings import Settings


class TestFromEnv:
    def test_knobs_are_exactly_the_six_settings_fields(self):
        assert settings.KNOWN_KNOBS == (
            "WIRA_JOBS",
            "WIRA_CACHE_DIR",
            "WIRA_DISK_CACHE",
            "WIRA_SANITIZE",
            "WIRA_TRACE",
            "WIRA_TRACE_DIR",
        )
        assert [f"WIRA_{f.name.upper()}" for f in fields(Settings)] == list(
            settings.KNOWN_KNOBS
        )

    def test_defaults_with_empty_environment(self):
        parsed = Settings.from_env({})
        assert parsed.jobs == 1
        assert parsed.disk_cache is True
        assert parsed.sanitize is False
        assert parsed.trace is False
        assert parsed.trace_dir is None
        assert parsed.cache_dir == settings.default_cache_dir()

    def test_jobs_parse(self):
        assert Settings.from_env({"WIRA_JOBS": "4"}).jobs == 4
        assert Settings.from_env({"WIRA_JOBS": " 2 "}).jobs == 2
        # Historic semantics: invalid and non-positive fall back to 1.
        assert Settings.from_env({"WIRA_JOBS": "banana"}).jobs == 1
        assert Settings.from_env({"WIRA_JOBS": "0"}).jobs == 1
        assert Settings.from_env({"WIRA_JOBS": "-3"}).jobs == 1

    @pytest.mark.parametrize("raw", ["1", "true", "YES", " on "])
    def test_opt_in_truthy(self, raw):
        parsed = Settings.from_env({"WIRA_SANITIZE": raw, "WIRA_TRACE": raw})
        assert parsed.sanitize is True
        assert parsed.trace is True

    @pytest.mark.parametrize("raw", ["", "0", "off", "2", "enabled"])
    def test_opt_in_anything_else_is_off(self, raw):
        parsed = Settings.from_env({"WIRA_SANITIZE": raw, "WIRA_TRACE": raw})
        assert parsed.sanitize is False
        assert parsed.trace is False

    @pytest.mark.parametrize("raw", ["0", "false", "NO", " off "])
    def test_disk_cache_falsy_disables(self, raw):
        assert Settings.from_env({"WIRA_DISK_CACHE": raw}).disk_cache is False

    @pytest.mark.parametrize("raw", ["", "1", "yes", "anything"])
    def test_disk_cache_default_on(self, raw):
        env = {"WIRA_DISK_CACHE": raw} if raw else {}
        assert Settings.from_env(env).disk_cache is True

    def test_paths(self):
        parsed = Settings.from_env(
            {"WIRA_CACHE_DIR": "/tmp/wira-c", "WIRA_TRACE_DIR": "traces"}
        )
        assert parsed.cache_dir == Path("/tmp/wira-c")
        assert parsed.trace_dir == Path("traces")
        assert Settings.from_env({"WIRA_TRACE_DIR": "  "}).trace_dir is None


class TestCurrentAndOverrides:
    def test_current_tracks_live_environment(self, monkeypatch):
        monkeypatch.delenv("WIRA_JOBS", raising=False)
        assert settings.current().jobs == 1
        monkeypatch.setenv("WIRA_JOBS", "3")
        assert settings.current().jobs == 3

    def test_configure_pins(self, monkeypatch):
        monkeypatch.setenv("WIRA_JOBS", "7")
        pinned = Settings(jobs=2)
        previous = settings.configure(pinned)
        try:
            assert settings.configured()
            assert settings.current().jobs == 2  # env no longer consulted
        finally:
            settings.configure(previous)
        assert settings.current().jobs == 7

    def test_overridden_scope_restores(self):
        with settings.overridden(jobs=5, disk_cache=False) as s:
            assert s.jobs == 5
            assert settings.current().disk_cache is False
        assert settings.current().disk_cache is True
        assert not settings.configured()

    def test_overridden_rejects_unknown_field(self):
        with pytest.raises(TypeError, match="unknown Settings field"):
            with settings.overridden(frobnicate=True):
                pass  # pragma: no cover


class TestDelegatingConsumers:
    """The legacy accessors must keep their exact historic behaviour."""

    def test_pool_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("WIRA_JOBS", raising=False)
        assert pool.resolve_jobs() == 1  # default is serial
        monkeypatch.setenv("WIRA_JOBS", "6")
        assert pool.resolve_jobs() == 6
        assert pool.resolve_jobs(2) == 2  # explicit argument wins
        assert pool.resolve_jobs(0) == 1
        assert pool.resolve_jobs(-2) == 1
        monkeypatch.setenv("WIRA_JOBS", "not-a-number")
        assert pool.resolve_jobs() == 1

    def test_runner_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WIRA_CACHE_DIR", str(tmp_path))
        assert runner.cache_dir() == tmp_path
        monkeypatch.delenv("WIRA_CACHE_DIR", raising=False)
        assert runner.cache_dir() == settings.default_cache_dir()

    def test_sanitize_env_requested(self, monkeypatch):
        monkeypatch.setenv("WIRA_SANITIZE", "1")
        assert sanitize.env_requested() is True
        monkeypatch.setenv("WIRA_SANITIZE", "0")
        assert sanitize.env_requested() is False

    def test_obs_env_requested_and_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WIRA_TRACE", "yes")
        monkeypatch.setenv("WIRA_TRACE_DIR", str(tmp_path))
        assert obs.env_requested() is True
        assert obs.env_trace_dir() == tmp_path
        monkeypatch.delenv("WIRA_TRACE", raising=False)
        monkeypatch.delenv("WIRA_TRACE_DIR", raising=False)
        assert obs.env_requested() is False
        assert obs.env_trace_dir() is None

    def test_pinned_settings_reach_consumers(self):
        with settings.overridden(jobs=9, sanitize=True, trace=True):
            assert pool.resolve_jobs() == 9
            assert sanitize.env_requested() is True
            assert obs.env_requested() is True
