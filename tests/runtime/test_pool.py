"""``run_tasks``: the one executor every sharded run goes through.

Whatever the job count, and whatever happens to the pool, every task is
yielded exactly once as ``(index, fn(tasks[index]))``.
"""

import os
from concurrent.futures import Future

import pytest

from repro.runtime import pool


def triple(x):
    return 3 * x


def pid_of(_task):
    return os.getpid()


def refuse_odd(x):
    if x % 2:
        raise ValueError(f"odd task {x}")
    return x


class TestEveryTaskExactlyOnce:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("n_tasks", range(8))
    def test_yields_each_index_with_its_result(self, jobs, n_tasks):
        tasks = [10 + i for i in range(n_tasks)]
        yielded = list(pool.run_tasks(triple, tasks, jobs))
        assert sorted(yielded) == [(i, 3 * task) for i, task in enumerate(tasks)]

    def test_serial_run_is_lazy_and_in_index_order(self):
        calls = []

        def record(x):
            calls.append(x)
            return x

        steps = pool.run_tasks(record, ["a", "b", "c"], 1)
        assert calls == []
        assert next(steps) == (0, "a")
        assert calls == ["a"]  # one task per step: a caller can checkpoint between
        assert list(steps) == [(1, "b"), (2, "c")]


class TestWhenItForks:
    def test_one_job_never_forks(self):
        assert {pid for _, pid in pool.run_tasks(pid_of, range(4), 1)} == {os.getpid()}

    def test_one_task_never_forks(self):
        assert list(pool.run_tasks(pid_of, ["only"], 3)) == [(0, os.getpid())]

    def test_two_jobs_run_in_other_processes(self):
        pids = {pid for _, pid in pool.run_tasks(pid_of, range(4), 2)}
        assert os.getpid() not in pids

    def test_workers_see_state_installed_just_before_the_call(self, monkeypatch):
        """The pool is forked per call, from the caller as it is now."""
        monkeypatch.setenv("WIRA_JOBS", "5")
        first = dict(pool.run_tasks(pool.resolve_jobs, [None, None], 2))
        monkeypatch.setenv("WIRA_JOBS", "7")
        second = dict(pool.run_tasks(pool.resolve_jobs, [None, None], 2))
        assert (first, second) == ({0: 5, 1: 5}, {0: 7, 1: 7})


class _PoolBreakingAfter:
    """Executor stand-in: the first ``healthy`` submissions succeed
    in-process, every later future carries a broken-pool error."""

    healthy = 0

    def __init__(self, max_workers, mp_context=None):
        self.submitted = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, task):
        future = Future()
        if self.submitted < self.healthy:
            future.set_result(fn(task))
        else:
            future.set_exception(OSError("worker died"))
        self.submitted += 1
        return future


class TestPoolFailure:
    @pytest.mark.parametrize("healthy", [0, 1, 3, 5])
    def test_broken_pool_is_finished_in_process(self, monkeypatch, healthy):
        monkeypatch.setattr(_PoolBreakingAfter, "healthy", healthy)
        monkeypatch.setattr(pool, "ProcessPoolExecutor", _PoolBreakingAfter)
        ran_here = []

        def traced_triple(x):
            ran_here.append(x)
            return 3 * x

        tasks = [10, 11, 12, 13, 14]
        yielded = list(pool.run_tasks(traced_triple, tasks, 2))
        assert sorted(yielded) == [(i, 3 * task) for i, task in enumerate(tasks)]
        # The stand-in's "workers" ran the healthy submissions; everything
        # the pool left undone ran exactly once more, in index order.
        assert ran_here[healthy:] == sorted(ran_here[healthy:])

    def test_pool_that_cannot_start_is_finished_in_process(self, monkeypatch):
        def no_fork(*args, **kwargs):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", no_fork)
        assert list(pool.run_tasks(pid_of, range(3), 2)) == [
            (i, os.getpid()) for i in range(3)
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exception_from_fn_propagates(self, jobs):
        with pytest.raises(ValueError, match="odd task 3"):
            list(pool.run_tasks(refuse_odd, [0, 2, 3, 4], jobs))
