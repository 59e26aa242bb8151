"""The cost ceiling of the per-packet control path on one small replay.

The replay is a pinned deployment (2 OD pairs, seed 7, the four
evaluation schemes, one process).  The Python-level calls into
``repro.quic`` and ``repro.simnet`` are counted with ``sys.setprofile``,
a number that is exact for a given tree.  It may fall, never rise: a
change that makes the path dearer must say why by raising the ceiling
here.
"""

import os
import sys

import pytest

import repro.quic
import repro.simnet
from repro import obs
from repro.cdn.session import StreamingSession
from repro.experiments.common import EVAL_SCHEMES
from repro.experiments.runner import run_deployment
from repro.workload.population import DeploymentConfig

PINNED = DeploymentConfig(n_od_pairs=2, seed=7)

#: Calls into ``repro.quic`` + ``repro.simnet`` over the pinned replay
#: (32 simulated sessions); 738 892 before the rework.
CALL_CEILING = 490_798


def replay():
    return run_deployment(PINNED, EVAL_SCHEMES, use_cache=False, jobs=1)


def test_control_path_calls_stay_under_the_ceiling():
    if obs.ACTIVE is not None:
        pytest.skip("the trace bus adds calls of its own")
    roots = tuple(os.path.dirname(m.__file__) + os.sep for m in (repro.quic, repro.simnet))
    session_run = StreamingSession.run.__code__
    counts = {"calls": 0, "sessions": 0}

    def count(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(roots):
                counts["calls"] += 1
            elif code is session_run:
                counts["sessions"] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        replay()
    finally:
        sys.setprofile(previous)
    per_session = counts["calls"] / max(1, counts["sessions"])
    assert counts["calls"] <= CALL_CEILING, (
        f"{counts['calls']} calls into repro.quic + repro.simnet "
        f"({per_session:.1f} per simulated session) exceed the ceiling {CALL_CEILING}"
    )
