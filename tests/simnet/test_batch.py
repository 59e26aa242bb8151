"""BatchEventLoop member semantics."""

import pytest

from repro.simnet.batch import BatchEventLoop
from repro.simnet.engine import SimulationError


class TestMemberLoopApi:
    def test_member_clock_starts_at_zero(self):
        kernel = BatchEventLoop()
        member = kernel.member()
        assert member.now == 0.0
        assert member.pending_events == 0

    def test_member_custom_start_time(self):
        kernel = BatchEventLoop()
        member = kernel.member(start_time=7.5)
        assert member.now == 7.5

    def test_past_scheduling_rejected(self):
        kernel = BatchEventLoop()
        member = kernel.member(start_time=2.0)
        with pytest.raises(SimulationError):
            member.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            member.post_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            member.call_later(-0.1, lambda: None)
        with pytest.raises(SimulationError):
            member.post_later(-0.1, lambda: None)

    def test_members_cannot_self_run(self):
        kernel = BatchEventLoop()
        member = kernel.member()
        with pytest.raises(SimulationError):
            member.run()
        with pytest.raises(SimulationError):
            member.run_until(1.0)

    def test_cancel_updates_pending(self):
        kernel = BatchEventLoop()
        member = kernel.member()
        handle = member.call_later(1.0, lambda: None)
        assert member.pending_events == 1
        handle.cancel()
        assert member.pending_events == 0
        kernel.run()
        assert member.processed_events == 0

    def test_kernel_not_reentrant(self):
        kernel = BatchEventLoop()
        member = kernel.member()
        seen = []

        def reenter():
            with pytest.raises(SimulationError):
                kernel.run()
            seen.append(True)

        member.post_later(0.1, reenter)
        kernel.run()
        assert seen == [True]

    def test_max_events_cap(self):
        kernel = BatchEventLoop()
        member = kernel.member()
        for i in range(10):
            member.post_at(0.01 * i, lambda: None)
        assert kernel.run(max_events=4) == 4
        assert member.processed_events == 4
        assert kernel.run() == 6

    def test_kernel_aggregates(self):
        kernel = BatchEventLoop()
        a = kernel.member()
        b = kernel.member()
        a.post_later(0.1, lambda: None)
        b.post_later(0.2, lambda: None)
        b.post_later(0.3, lambda: None)
        assert kernel.pending_events == 3
        assert len(kernel.members) == 2
        kernel.run()
        assert kernel.processed_events == 3
        assert kernel.pending_events == 0
