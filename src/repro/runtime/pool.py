"""The one process pool behind every sharded run.

Figure replays, fleet campaigns and the robustness matrix all fan
independent, picklable tasks out the same way; :func:`run_tasks` is the
single place a :class:`~concurrent.futures.ProcessPoolExecutor` is
built and the single copy of "warn and finish in-process" when it
fails.  The pool is opened for one call and forked from the caller as
it is *now*, so workers see whatever trace bus or settings pin the
caller installed — a pool kept across calls would replay on the
process state of its first use.
"""

from __future__ import annotations

import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterator, Optional, Sequence, Tuple, TypeVar

from repro.runtime import settings

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``WIRA_JOBS``, else 1."""
    if jobs is None:
        return settings.current().jobs
    return max(1, jobs)


def run_tasks(
    fn: Callable[[T], R], tasks: Sequence[T], jobs: int
) -> Iterator[Tuple[int, R]]:
    """Yield ``(index, fn(tasks[index]))`` once per task, as tasks finish.

    With ``jobs > 1`` and more than one task, tasks run on a fork-context
    pool opened for this call and are yielded in completion order;
    callers that need a deterministic merge key on ``index``.  Any pool
    failure (no fork in this sandbox, a broken worker, unpicklable
    state) is logged, and whatever the pool left undone finishes
    in-process in index order — which is also all that ``jobs == 1`` or
    a single task ever does, so the serial run is the same tasks without
    a fork.  An exception raised by ``fn`` itself is re-raised by that
    in-process run.
    """
    undone = set(range(len(tasks)))
    workers = min(jobs, len(tasks))
    if workers > 1:
        mp_context = None
        if "fork" in multiprocessing.get_all_start_methods():
            mp_context = multiprocessing.get_context("fork")
        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=mp_context) as pool:
                futures = {pool.submit(fn, task): index for index, task in enumerate(tasks)}
                for future in as_completed(futures):
                    index, result = futures[future], future.result()
                    undone.remove(index)
                    yield index, result
        except Exception as exc:
            logger.warning(
                "process pool with %d workers failed (%s); "
                "finishing %d of %d tasks in-process",
                workers,
                exc,
                len(undone),
                len(tasks),
            )
    for index in sorted(undone):
        yield index, fn(tasks[index])
