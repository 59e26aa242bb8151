"""Tests for the sharded figure replay and its persistent cache.

A replay over a pool must be *bit-identical* to the in-process one: each
chain owns its world (plan, origin, live source) and seeds and each
(scheme, chain) its cookie store, so sharding chain blocks across
processes may not change a single field of any result.

A deployment is cut into tasks of ``BLOCK_CHAINS`` chains, and one task
never forks — so the tests that mean to cross a process boundary shrink
the block to two chains (pool workers are forked per call and see it).
"""

import hashlib
import os
import pickle

import pytest

from repro import obs
from repro.core.config import WiraConfig
from repro.core.schemes import BASELINE, WIRA
from repro.experiments import common, runner
from repro.runtime import pool
from repro.workload.population import Deployment, DeploymentConfig

SCHEMES = (BASELINE, WIRA)


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Point the disk cache at a fresh tmp dir and drop the memo."""
    monkeypatch.setenv("WIRA_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("WIRA_JOBS", raising=False)
    monkeypatch.delenv("WIRA_DISK_CACHE", raising=False)
    runner.clear_caches()
    yield
    runner.clear_caches()


@pytest.fixture
def no_ambient_tracing():
    """Start from tracing-off regardless of WIRA_TRACE; restore after."""
    previous = obs.ACTIVE
    obs.disable()
    yield
    obs.ACTIVE = previous


@pytest.fixture
def two_chain_blocks(monkeypatch):
    """Three chains become two tasks: [0, 2) and [2, 3)."""
    monkeypatch.setattr(common, "BLOCK_CHAINS", 2)


def tiny_config(seed):
    return DeploymentConfig(n_od_pairs=3, seed=seed, video_frames_per_session=6)


def assert_records_identical(a, b):
    assert set(a) == set(b)
    for scheme in a:
        assert len(a[scheme]) == len(b[scheme])
        for left, right in zip(a[scheme], b[scheme]):
            assert left.spec == right.spec
            assert left.result == right.result


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("seed", [3, 21])
    def test_parallel_matches_serial_records(self, seed, two_chain_blocks):
        """Property: every SessionResult sequence is identical per scheme."""
        config = tiny_config(seed)
        serial = runner.run_deployment(config, SCHEMES, use_cache=False, jobs=1)
        parallel = runner.run_deployment(config, SCHEMES, use_cache=False, jobs=2)
        assert_records_identical(serial, parallel)

    def test_parallel_matches_serial_traces_bytewise(self, tmp_path, two_chain_blocks):
        """The trace sets of a serial and a parallel replay are
        byte-identical: same file names, same SHA-256 per file — both
        cut into two chain blocks, each replayed under every scheme
        against its shared worlds, the workers flushing every session's
        files straight into the trace directory."""
        config = tiny_config(3)
        ambient_bus = obs.ACTIVE  # e.g. installed by WIRA_TRACE=1
        digests = {}
        for jobs in (1, 2):
            trace_dir = tmp_path / f"jobs{jobs}"
            with obs.tracing(trace_dir=trace_dir):
                runner.run_deployment(config, SCHEMES, jobs=jobs)
            assert all(p.is_file() for p in trace_dir.iterdir())  # no staging dirs
            digests[jobs] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in trace_dir.glob("*.jsonl")
            }
        assert obs.ACTIVE is ambient_bus  # scope restored
        assert digests[1] and digests[1] == digests[2]

    def test_traced_run_bypasses_caches(self, tmp_path, no_ambient_tracing):
        """Tracing to disk must not serve (or populate) cached records —
        a cache hit would skip the replay and write no trace files."""
        config = tiny_config(7)
        runner.run_deployment(config, SCHEMES)  # populate memo + disk
        trace_dir = tmp_path / "traces"
        with obs.tracing(trace_dir=trace_dir):
            records = runner.run_deployment(config, SCHEMES)
        assert any(trace_dir.glob("*.jsonl"))
        assert all(
            o.result.phase_breakdown is not None
            for outcomes in records.values()
            for o in outcomes
            if o.result.completed
        )
        # The cache stays breakdown-free for non-tracing callers.
        cached = runner.run_deployment(config, SCHEMES)
        assert all(
            o.result.phase_breakdown is None
            for outcomes in cached.values()
            for o in outcomes
        )

    def test_memory_only_tracing_keeps_cache_path(self, no_ambient_tracing):
        """Without a trace_dir there is nothing to flush, so the cache
        fast path stays active."""
        config = tiny_config(11)
        first = runner.run_deployment(config, SCHEMES)
        with obs.tracing():  # no trace_dir
            assert runner.run_deployment(config, SCHEMES) is first

    def test_parallel_pool_failure_falls_back_to_serial(self, monkeypatch, two_chain_blocks):
        config = tiny_config(5)
        attempts = []

        def broken(*args, **kwargs):
            attempts.append(kwargs)
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", broken)
        records = runner.run_deployment(config, SCHEMES, use_cache=False, jobs=4)
        assert len(attempts) == 1  # the pool was tried, then given up on
        reference = runner.run_deployment(config, SCHEMES, use_cache=False, jobs=1)
        assert_records_identical(records, reference)

    def test_parallel_replay_runs_on_the_callers_current_state(
        self, two_chain_blocks, no_ambient_tracing
    ):
        """Workers are forked per call, so a trace bus (or sanitizer, or
        settings pin) installed after an earlier parallel replay reaches
        them: a pool kept alive from that earlier replay would run the
        second one untraced and disagree with ``jobs=1``."""
        config = tiny_config(3)
        runner.run_deployment(config, SCHEMES, use_cache=False, jobs=2)
        with obs.tracing():  # in memory: no trace dir
            parallel = runner.run_deployment(config, SCHEMES, use_cache=False, jobs=2)
            serial = runner.run_deployment(config, SCHEMES, use_cache=False, jobs=1)
        assert all(
            o.result.phase_breakdown is not None
            for outcomes in parallel.values()
            for o in outcomes
            if o.result.completed
        )
        assert_records_identical(serial, parallel)


class TestChunkSharding:
    def test_worker_chains_match_full_generation(self):
        """The ranges tasks regenerate tile the full deployment."""
        config = tiny_config(23)
        full = Deployment(config).generate()
        regenerated = []
        for lo, hi in ((0, 2), (2, 3)):
            regenerated.extend(Deployment(config).generate_range(lo, hi))
        assert regenerated == full

    def test_pool_task_replays_its_range_under_every_scheme(self, no_ambient_tracing):
        """One task is a chain range under all schemes: its records are
        the serial records of exactly those chains, scheme by scheme."""
        config = tiny_config(23)
        serial = runner.run_deployment(config, SCHEMES, use_cache=False, jobs=1)
        values = tuple(scheme.value for scheme in SCHEMES)
        task = (config, WiraConfig(), values, 1, 3)
        [(index, by_scheme)] = pool.run_tasks(runner._replay_task, [task], jobs=2)
        assert index == 0
        assert sorted(by_scheme) == sorted(values)
        for scheme in SCHEMES:
            expected = [o for o in serial[scheme] if o.spec.od.od_id in (1, 2)]
            assert by_scheme[scheme.value] == expected


class TestBatchedKernel:
    def test_serial_batched_matches_reference(self, no_ambient_tracing):
        """The block replay (shared worlds, scheme-major, cut into
        blocks) against the reference it must equal: every (scheme,
        chain) replayed on its own through ``iter_chain_outcomes`` with
        a private world.  (The id predates the batched kernel's removal
        and is kept so the floor list still names this check.)"""
        config = tiny_config(3)
        chains = Deployment(config).generate()
        reference = {
            scheme: [
                outcome
                for index, chain in enumerate(chains)
                for outcome in common.iter_chain_outcomes(
                    scheme, chain, index, config, WiraConfig()
                )
            ]
            for scheme in SCHEMES
        }
        batched = runner.run_deployment(config, SCHEMES, use_cache=False, jobs=1)
        assert_records_identical(reference, batched)


class TestPersistentCache:
    def test_round_trip_across_memory_cache_clears(self):
        """A second 'session' (cleared memo) reloads the disk copy."""
        config = tiny_config(9)
        first = runner.run_deployment(config, SCHEMES)
        key = runner.cache_key(config, WiraConfig(), SCHEMES)
        assert runner._cache_path(key).exists()

        runner.clear_caches()  # simulate a fresh pytest invocation
        again = runner.run_deployment(config, SCHEMES)
        assert again is not first
        assert_records_identical(first, again)

    def test_memory_cache_still_returns_same_object(self):
        config = tiny_config(9)
        first = runner.run_deployment(config, SCHEMES)
        assert runner.run_deployment(config, SCHEMES) is first

    def test_corrupted_cache_file_recovers(self):
        config = tiny_config(13)
        first = runner.run_deployment(config, SCHEMES)
        key = runner.cache_key(config, WiraConfig(), SCHEMES)
        path = runner._cache_path(key)
        path.write_bytes(b"\x00not a pickle at all")

        runner.clear_caches()
        again = runner.run_deployment(config, SCHEMES)
        assert_records_identical(first, again)
        # The bad file was replaced by a healthy one.
        with path.open("rb") as fh:
            assert runner._looks_like_records(pickle.load(fh))

    def test_wrong_shaped_pickle_recovers(self):
        config = tiny_config(13)
        first = runner.run_deployment(config, SCHEMES)
        key = runner.cache_key(config, WiraConfig(), SCHEMES)
        path = runner._cache_path(key)
        path.write_bytes(pickle.dumps({"not": "records"}))

        runner.clear_caches()
        again = runner.run_deployment(config, SCHEMES)
        assert_records_identical(first, again)

    def test_key_depends_on_inputs(self):
        wira = WiraConfig()
        base = runner.cache_key(tiny_config(1), wira, SCHEMES)
        assert runner.cache_key(tiny_config(2), wira, SCHEMES) != base
        assert runner.cache_key(tiny_config(1), wira, (BASELINE,)) != base
        assert (
            runner.cache_key(
                tiny_config(1), WiraConfig(video_frame_threshold=3), SCHEMES
            )
            != base
        )

    def test_use_cache_false_bypasses_disk(self):
        config = tiny_config(17)
        runner.run_deployment(config, SCHEMES, use_cache=False)
        key = runner.cache_key(config, WiraConfig(), SCHEMES)
        assert not runner._cache_path(key).exists()

    def test_disk_cache_env_switch(self, monkeypatch):
        """``WIRA_DISK_CACHE=0`` turns off the disk half alone."""
        monkeypatch.setenv("WIRA_DISK_CACHE", "0")
        config = tiny_config(17)
        first = runner.run_deployment(config, SCHEMES)
        key = runner.cache_key(config, WiraConfig(), SCHEMES)
        assert not runner._cache_path(key).exists()
        assert runner.run_deployment(config, SCHEMES) is first  # memo still on

    def test_unwritable_cache_dir_is_not_fatal(self, monkeypatch, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("occupies the path")
        monkeypatch.setenv("WIRA_CACHE_DIR", str(blocked / "sub"))
        config = tiny_config(19)
        records = runner.run_deployment(config, SCHEMES)
        assert sum(len(v) for v in records.values()) > 0
