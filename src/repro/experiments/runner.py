"""Parallel deployment replay engine with a persistent result cache.

This is the single entry point behind every Fig 11–15 experiment: it
replays a :class:`~repro.workload.population.Deployment` under each
comparison scheme and returns the paired ``DeploymentRecords`` structure
defined in :mod:`repro.experiments.common`.

Three layers sit between a caller and a raw replay:

1. **In-process memo** — repeated calls in one interpreter (e.g. every
   figure of a benchmark session) share one replay, as before.
2. **Persistent disk cache** — results are pickled under
   ``$WIRA_CACHE_DIR`` (default ``~/.cache/wira-repro``), keyed by a
   content hash of the deployment configuration, the Wira configuration,
   the scheme set, a cache-format version, and a fingerprint of the
   ``repro`` package sources.  Separate pytest/benchmark invocations
   therefore pay for the headline replay once.  A corrupt, truncated or
   stale cache file is silently discarded and recomputed — the cache can
   never turn a valid run into a crash.  Set ``WIRA_DISK_CACHE=0`` to
   disable.
3. **Process-pool sharding** — the work units of a deployment are
   independent: each chain owns its world (plan, origin, live source)
   and per-session seeds, and each (scheme, chain) its cookie store.
   With ``jobs > 1`` (or ``WIRA_JOBS=N``) the deployment is cut into
   **chain-block** tasks — ``(config, schemes, lo, hi)`` index ranges,
   regenerated inside each worker from the deployment seed via
   :meth:`~repro.workload.population.Deployment.generate_range` — fanned
   out across one *persistent* :class:`~concurrent.futures.ProcessPoolExecutor`
   (module-scoped, keyed by the job count, reused across every replay of
   a pytest session) and merged back in deterministic (scheme, chain)
   order, so parallel results are bit-identical to the serial path.  Any
   pool failure (unpicklable state, broken workers, sandboxes without
   fork) falls back to the in-process serial replay.

Serial and parallel replays share one unit, :func:`_replay_block`: a
block of chains is replayed under **every** scheme against one
:class:`~repro.experiments.common.ChainWorld` per chain, so the
scheme-independent half of a chain is built once however many schemes
replay it, and lives exactly as long as its block.

A block of more than one chain replays through the batched
multi-session kernel (:mod:`repro.cdn.batchrun`) unless a trace bus is
installed (:func:`~repro.cdn.batchrun.batching_applies`): wave *k*
batches the *k*-th session of every chain into one
:class:`~repro.simnet.batch.BatchEventLoop`, preserving the cookie
hand-off within each chain and producing records byte-identical to the
chain-by-chain reference path.
"""

from __future__ import annotations

import atexit
import hashlib
import logging
import multiprocessing
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from typing import ContextManager, Dict, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.cdn.batchrun import batching_applies
from repro.core.config import WiraConfig
from repro.core.initializer import Scheme
from repro.core.schemes import SchemeLike, SchemeSpec, as_spec
from repro.runtime import settings
from repro.workload.population import Deployment, DeploymentConfig

logger = logging.getLogger(__name__)

#: Bump when the serialized record layout (or replay semantics not
#: captured by the source fingerprint) changes incompatibly.
#: 2: SessionResult gained ``phase_breakdown``.
#: 3: records are keyed by ``SchemeSpec`` (scheme registry).
CACHE_FORMAT_VERSION = 3

_MEMORY_CACHE: Dict[tuple, "DeploymentRecords"] = {}

_SOURCE_FINGERPRINT: Optional[str] = None


# ---------------------------------------------------------------------------
# Worker pool plumbing.  Workers receive (config, schemes, index-range)
# tasks and regenerate their chains from the deployment seed — generation
# is pure sampling, far cheaper than shipping pickled chains over the
# pipe, and a range is regenerated once for all the schemes replaying it.

_BlockTask = Tuple[DeploymentConfig, WiraConfig, Tuple[str, ...], int, int]


def _replay_chunk(task: _BlockTask) -> Tuple[int, Dict[str, list]]:
    """Worker entry: replay chains [lo, hi) under every scheme."""
    config, wira_config, scheme_values, lo, hi = task
    schemes = [as_spec(value) for value in scheme_values]
    chains = Deployment(config).generate_range(lo, hi)
    by_scheme = _replay_block(config, schemes, wira_config, chains, lo)
    return lo, {scheme.value: by_scheme[scheme] for scheme in schemes}


_POOL: Optional[ProcessPoolExecutor] = None
_POOL_JOBS = 0


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """The persistent replay pool, recycled only when ``jobs`` changes.

    Spawning workers is the dominant fixed cost of small parallel
    replays; one module-scoped executor amortises it across every
    deployment a pytest/benchmark session replays.
    """
    global _POOL, _POOL_JOBS
    if _POOL is not None and _POOL_JOBS != jobs:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        mp_context = None
        if "fork" in multiprocessing.get_all_start_methods():
            mp_context = multiprocessing.get_context("fork")
        _POOL = ProcessPoolExecutor(max_workers=jobs, mp_context=mp_context)
        _POOL_JOBS = jobs
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (atexit, or after a pool failure)."""
    global _POOL, _POOL_JOBS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_JOBS = 0


atexit.register(shutdown_pool)


def _trace_shard(scheme_value: str, chain_index: int) -> ContextManager[None]:
    """Scope one (scheme, chain) work unit's trace output to a shard dir.

    Both the serial path and the pool workers run every unit through the
    same shard layout, so the on-disk trace set is byte-identical however
    the replay was parallelised (``merge_shard_traces`` recombines it).
    """
    bus = _obs.ACTIVE
    if bus is None or bus.trace_dir is None:
        return nullcontext()
    return bus.shard(f"{scheme_value}-c{chain_index}")


def _tracing_to_disk() -> bool:
    return _obs.ACTIVE is not None and _obs.ACTIVE.trace_dir is not None


# ---------------------------------------------------------------------------
# Knobs.


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``WIRA_JOBS``, else 1.

    Knob parsing lives in :mod:`repro.runtime.settings`; this helper
    only applies the explicit-argument precedence.
    """
    if jobs is None:
        return settings.current().jobs
    return max(1, jobs)


def disk_cache_enabled(disk_cache: Optional[bool] = None) -> bool:
    """Disk-cache switch: explicit argument, else ``WIRA_DISK_CACHE``."""
    if disk_cache is not None:
        return disk_cache
    return settings.current().disk_cache


def cache_dir() -> Path:
    """Directory holding pickled replay results (``WIRA_CACHE_DIR``)."""
    return settings.current().cache_dir


def source_fingerprint() -> str:
    """Content hash of every ``repro`` source file, memoised per process.

    Folding this into the cache key means any code change — not just a
    config change — invalidates persisted results, so a stale cache can
    never masquerade as a fresh replay.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _SOURCE_FINGERPRINT = digest.hexdigest()
    return _SOURCE_FINGERPRINT


def cache_key(
    config: DeploymentConfig,
    wira_config: WiraConfig,
    schemes: Sequence[SchemeLike],
) -> str:
    """Stable content hash identifying one replay's inputs."""
    payload = repr(
        (
            CACHE_FORMAT_VERSION,
            source_fingerprint(),
            sorted(as_spec(s).value for s in schemes),
            sorted(vars(config).items()),
            sorted(vars(wira_config).items()),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


def _cache_path(key: str) -> Path:
    return cache_dir() / f"deployment-{key}.pkl"


def load_cached(key: str) -> Optional["DeploymentRecords"]:
    """Load a persisted replay; any defect means ``None``, never a crash."""
    path = _cache_path(key)
    try:
        with path.open("rb") as fh:
            records = pickle.load(fh)
    except FileNotFoundError:
        return None
    except Exception as exc:
        logger.warning("discarding unreadable cache file %s (%s)", path, exc)
        try:
            path.unlink()
        except OSError:
            pass
        return None
    if not _looks_like_records(records):
        logger.warning("discarding malformed cache file %s", path)
        try:
            path.unlink()
        except OSError:
            pass
        return None
    return records


def store_cached(key: str, records: "DeploymentRecords") -> None:
    """Persist a replay atomically; failures are logged, not raised."""
    path = _cache_path(key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(records, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except Exception as exc:
        logger.warning("could not persist replay cache to %s (%s)", path, exc)


def _looks_like_records(records) -> bool:
    from repro.experiments.common import SessionOutcome

    if not isinstance(records, dict) or not records:
        return False
    for scheme, outcomes in records.items():
        if not isinstance(scheme, (Scheme, SchemeSpec)) or not isinstance(outcomes, list):
            return False
        if outcomes and not isinstance(outcomes[0], SessionOutcome):
            return False
    return True


def clear_caches(disk: bool = False) -> None:
    """Drop the in-process memo (and optionally the persisted files)."""
    _MEMORY_CACHE.clear()
    if disk:
        try:
            for path in cache_dir().glob("deployment-*.pkl"):
                path.unlink()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Replay engine.


def run_deployment(
    config: Optional[DeploymentConfig] = None,
    schemes: Optional[Sequence[SchemeLike]] = None,
    wira_config: Optional[WiraConfig] = None,
    use_cache: bool = True,
    jobs: Optional[int] = None,
    disk_cache: Optional[bool] = None,
) -> "DeploymentRecords":
    """Replay the deployment under each scheme; returns paired records.

    Parameters
    ----------
    use_cache:
        ``False`` bypasses both the in-process memo and the disk cache
        (and does not populate them).
    jobs:
        Worker processes.  ``None`` consults ``WIRA_JOBS``; 1 replays
        in-process (the reference serial path).
    disk_cache:
        Overrides ``WIRA_DISK_CACHE``; ``None`` means "per environment".
    """
    from repro.experiments.common import EVAL_SCHEMES

    config = config or DeploymentConfig()
    wira_config = wira_config or WiraConfig()
    if schemes is None:
        schemes = EVAL_SCHEMES
    # Normalize once: every layer below (tasks, caches, record keys)
    # works on canonical SchemeSpec values; value-equality keeps the
    # returned records addressable by enum members and value strings.
    schemes = tuple(as_spec(s) for s in schemes)
    memo_key = (
        tuple(sorted(s.value for s in schemes)),
        tuple(sorted(vars(config).items())),
        tuple(sorted(vars(wira_config).items())),
    )
    if _tracing_to_disk():
        # A cache hit would skip the replay — and with it the trace
        # files the caller asked for.  Replay for real, without
        # poisoning the caches with this run's breakdown-carrying
        # records (callers not tracing should keep hitting the
        # breakdown-free cached records).
        use_cache = False
    if use_cache and memo_key in _MEMORY_CACHE:
        return _MEMORY_CACHE[memo_key]

    persist = use_cache and disk_cache_enabled(disk_cache)
    key = cache_key(config, wira_config, schemes) if persist else None
    if key is not None:
        records = load_cached(key)
        if records is not None:
            _MEMORY_CACHE[memo_key] = records
            return records

    records = _replay(config, schemes, wira_config, resolve_jobs(jobs))
    if _tracing_to_disk():
        assert _obs.ACTIVE is not None and _obs.ACTIVE.trace_dir is not None
        _obs.merge_shard_traces(_obs.ACTIVE.trace_dir)

    if use_cache:
        _MEMORY_CACHE[memo_key] = records
    if key is not None:
        store_cached(key, records)
    return records


def _replay(
    config: DeploymentConfig,
    schemes: Sequence[Scheme],
    wira_config: WiraConfig,
    jobs: int,
) -> "DeploymentRecords":
    if jobs > 1:
        try:
            return _replay_parallel(config, schemes, wira_config, jobs)
        except Exception as exc:
            logger.warning(
                "parallel replay with %d workers failed (%s); "
                "falling back to serial",
                jobs,
                exc,
            )
    return _replay_serial(config, schemes, wira_config)


def _replay_serial(
    config: DeploymentConfig,
    schemes: Sequence[Scheme],
    wira_config: WiraConfig,
) -> "DeploymentRecords":
    from repro.experiments.common import WAVE_CHAINS

    chains = Deployment(config).generate()
    records: "DeploymentRecords" = {scheme: [] for scheme in schemes}
    # Block-major: worlds live for one wave group, and blocks are
    # visited in index order, so each scheme's records stay chain-major.
    for lo in range(0, len(chains), WAVE_CHAINS):
        block = _replay_block(
            config, schemes, wira_config, chains[lo : lo + WAVE_CHAINS], lo
        )
        for scheme in schemes:
            records[scheme].extend(block[scheme])
    return records


def _replay_block(
    config: DeploymentConfig,
    schemes: Sequence[Scheme],
    wira_config: WiraConfig,
    chains: list,
    base_index: int,
) -> Dict[Scheme, list]:
    """Replay a block of chains under every scheme against shared worlds.

    The one unit behind both the serial path and the pool workers.  Per
    scheme it dispatches to the batched kernel when
    :func:`~repro.cdn.batchrun.batching_applies`; otherwise it runs the
    chain-by-chain reference path (which is also the path that scopes
    per-chain trace shards).  Both produce byte-identical outcome
    sequences, in chain order.
    """
    from repro.experiments import common

    worlds = common.build_worlds(chains, base_index)
    batched = batching_applies(len(chains))
    by_scheme: Dict[Scheme, list] = {}
    for scheme in schemes:
        outcomes: list = []
        if batched:
            # Resolved through the module on every call: the benchmark
            # harness wraps this attribute at run time.
            for chain_outcomes in common.replay_chains_wave_batched(
                scheme, chains, base_index, config, wira_config, worlds=worlds
            ):
                outcomes.extend(chain_outcomes)
        else:
            for world in worlds:
                index = world.chain_index
                with _trace_shard(scheme.value, index):
                    outcomes.extend(
                        common._run_chain(
                            scheme, world.chain, index, config, wira_config, world=world
                        )
                    )
        by_scheme[scheme] = outcomes
    return by_scheme


#: Ceiling on chains per parallel chunk: small enough to load-balance a
#: headline replay across a handful of workers, large enough that the
#: per-task (pickle + dispatch + regenerate) overhead stays negligible.
MAX_CHUNK_CHAINS = 30


def _chunk_bounds(n_od_pairs: int, jobs: int) -> List[Tuple[int, int]]:
    """Cut [0, n_od_pairs) into balanced chunks for ``jobs`` workers."""
    target = max(1, min(MAX_CHUNK_CHAINS, (n_od_pairs + 2 * jobs - 1) // (2 * jobs)))
    return [(lo, min(lo + target, n_od_pairs)) for lo in range(0, n_od_pairs, target)]


def _replay_parallel(
    config: DeploymentConfig,
    schemes: Sequence[Scheme],
    wira_config: WiraConfig,
    jobs: int,
) -> "DeploymentRecords":
    bounds = _chunk_bounds(config.n_od_pairs, jobs)
    scheme_values = tuple(scheme.value for scheme in schemes)
    tasks = [(config, wira_config, scheme_values, lo, hi) for lo, hi in bounds]
    by_block: Dict[int, Dict[str, list]] = {}
    if _tracing_to_disk():
        # Trace runs need workers forked *after* the bus was installed;
        # the persistent pool predates it, so use a dedicated pool.
        mp_context = None
        if "fork" in multiprocessing.get_all_start_methods():
            mp_context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=mp_context) as pool:
            by_block.update(pool.map(_replay_chunk, tasks))
    else:
        try:
            by_block.update(_get_pool(jobs).map(_replay_chunk, tasks))
        except Exception:
            # A broken pool poisons every later replay: recycle it before
            # the caller falls back to serial.
            shutdown_pool()
            raise

    # Merge in the serial path's (scheme, chain-range) order so the
    # records — and any iteration over them — are bit-identical to a
    # serial run.
    records: "DeploymentRecords" = {scheme: [] for scheme in schemes}
    for scheme in schemes:
        for lo, _hi in bounds:
            records[scheme].extend(by_block[lo][scheme.value])
    return records


# Imported late to avoid a circular import at module load; re-exported for
# type annotations in callers.
from repro.experiments.common import DeploymentRecords  # noqa: E402
