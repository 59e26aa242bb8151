"""Figure replay: a campaign that keeps its records, memoized in-process.

This is the single entry point behind every Fig 11–15 experiment: it
replays a :class:`~repro.workload.population.Deployment` under each
comparison scheme and returns the paired ``DeploymentRecords`` structure
defined in :mod:`repro.experiments.common`.

Two layers sit between a caller and a raw replay:

1. **In-process memo** — repeated calls in one interpreter (e.g. every
   figure of a benchmark session) share one replay.  Nothing is read
   from or written to disk: a new process replays afresh.
2. **Block tasks** — the work units of a deployment are independent:
   each chain owns its world (plan, origin, live source) and per-session
   seeds, and each (scheme, chain) its cookie store.  A deployment is
   cut into ``(config, wira, schemes, lo, hi)`` tasks of
   :data:`~repro.experiments.common.BLOCK_CHAINS` chains; each task
   regenerates its range from the deployment seed via
   :meth:`~repro.workload.population.Deployment.generate_range`, replays
   it under every scheme through
   :func:`~repro.experiments.common.replay_block`, and the blocks are
   merged in index order.  :func:`repro.runtime.pool.run_tasks` runs
   them: in-process with ``jobs == 1`` (the serial replay is the same
   tasks without a fork), across a pool forked for the call with
   ``jobs > 1`` (or ``WIRA_JOBS=N``), and in-process again for whatever
   a failed pool left undone — so records are bit-identical however the
   replay was run.

A traced replay needs no special path: every session's trace file is
named by scheme, chain, session and connection and written whole by one
flush, so workers flush straight into the trace directory and the file
set is byte-identical for any ``jobs``.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.core.config import WiraConfig
from repro.core.schemes import SchemeLike, SchemeSpec, as_spec
from repro.experiments import common
from repro.experiments.common import DeploymentRecords, SessionOutcome
from repro.runtime import settings
from repro.runtime.pool import resolve_jobs, run_tasks
from repro.workload.population import Deployment, DeploymentConfig

logger = logging.getLogger(__name__)

_MEMORY_CACHE: Dict[tuple, DeploymentRecords] = {}


def _tracing_to_disk() -> bool:
    return _obs.ACTIVE is not None and _obs.ACTIVE.trace_dir is not None


# ---------------------------------------------------------------------------
# Pickled records on disk.  No replay reads or writes these files:
# ``bench/drives.py`` times ``store_cached`` and ``load_cached`` by name,
# and they go when it stops naming them.


def cache_dir() -> Path:
    """Directory of the pickled records (``WIRA_CACHE_DIR``)."""
    return settings.current().cache_dir


def _cache_path(key: str) -> Path:
    return cache_dir() / f"deployment-{key}.pkl"


def load_cached(key: str) -> Optional[DeploymentRecords]:
    """Load records stored under ``key``; any defect means ``None``, never a crash."""
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


def store_cached(key: str, records: DeploymentRecords) -> None:
    """Pickle records under ``key`` atomically; failures are logged, not raised."""
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
    if not isinstance(records, dict) or not records:
        return False
    for scheme, outcomes in records.items():
        if not isinstance(scheme, SchemeSpec) or not isinstance(outcomes, list):
            return False
        if outcomes and not isinstance(outcomes[0], SessionOutcome):
            return False
    return True


def clear_caches() -> None:
    """Drop the in-process memo."""
    _MEMORY_CACHE.clear()


# ---------------------------------------------------------------------------
# Replay engine.


def run_deployment(
    config: Optional[DeploymentConfig] = None,
    schemes: Optional[Sequence[SchemeLike]] = None,
    wira_config: Optional[WiraConfig] = None,
    use_cache: bool = True,
    jobs: Optional[int] = None,
) -> DeploymentRecords:
    """Replay the deployment under each scheme; returns paired records.

    Parameters
    ----------
    use_cache:
        ``False`` bypasses the in-process memo (and does not populate
        it).
    jobs:
        Worker processes.  ``None`` consults ``WIRA_JOBS``; 1 replays
        in-process.
    """
    config = config or DeploymentConfig()
    wira_config = wira_config or WiraConfig()
    if schemes is None:
        schemes = common.EVAL_SCHEMES
    # Normalize once: every layer below (tasks, memo, record keys)
    # works on canonical SchemeSpec values; value-equality keeps the
    # returned records addressable by specs and value strings.
    schemes = tuple(as_spec(s) for s in schemes)
    memo_key = (
        tuple(sorted(s.value for s in schemes)),
        tuple(sorted(vars(config).items())),
        tuple(sorted(vars(wira_config).items())),
    )
    if _tracing_to_disk():
        # A memo hit would skip the replay — and with it the trace files
        # the caller asked for.
        use_cache = False
    if use_cache and memo_key in _MEMORY_CACHE:
        # The key forgets the order the schemes were asked in; the
        # records keep it, so a figure's rows do not depend on which
        # figure replayed first.
        memo = _MEMORY_CACHE[memo_key]
        if tuple(memo) == schemes:
            return memo
        return {scheme: memo[scheme] for scheme in schemes}
    records = _replay(config, schemes, wira_config, resolve_jobs(jobs))
    if use_cache:
        _MEMORY_CACHE[memo_key] = records
    return records


#: One task: replay chains ``[lo, hi)`` under every scheme value.  Tasks
#: carry the index range, not the chains — generation is pure sampling,
#: far cheaper than shipping pickled chains over the pipe, and a range
#: is regenerated once for all the schemes replaying it.
_BlockTask = Tuple[DeploymentConfig, WiraConfig, Tuple[str, ...], int, int]


def _replay_task(task: _BlockTask) -> Dict[str, List[SessionOutcome]]:
    """Task entry, in a pool worker or in-process; chain-major records."""
    config, wira_config, scheme_values, lo, hi = task
    chains = Deployment(config).generate_range(lo, hi)
    per_chain = common.replay_block(
        [as_spec(value) for value in scheme_values], chains, lo, config, wira_config
    )
    return {
        value: [outcome for chain_outcomes in per_chain[value] for outcome in chain_outcomes]
        for value in scheme_values
    }


def _replay(
    config: DeploymentConfig,
    schemes: Sequence[SchemeSpec],
    wira_config: WiraConfig,
    jobs: int,
) -> DeploymentRecords:
    n = config.n_od_pairs
    scheme_values = tuple(scheme.value for scheme in schemes)
    # Read through the module on every call: tests shrink the block size.
    tasks: List[_BlockTask] = [
        (config, wira_config, scheme_values, lo, min(lo + common.BLOCK_CHAINS, n))
        for lo in range(0, n, common.BLOCK_CHAINS)
    ]
    blocks = dict(run_tasks(_replay_task, tasks, jobs))
    # Merge in block-index order whatever order the blocks finished in,
    # so each scheme's records stay chain-major and bit-identical for
    # any ``jobs``.
    records: DeploymentRecords = {scheme: [] for scheme in schemes}
    for index in range(len(tasks)):
        for scheme in schemes:
            records[scheme].extend(blocks[index][scheme.value])
    return records
