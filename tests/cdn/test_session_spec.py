"""SessionSpec construction API.

A session is built from an immutable :class:`SessionSpec` plus its
environment — ``StreamingSession(spec, origin, stream_name, ...)``.
The spec is frozen and copied-with-changes via :meth:`SessionSpec.with_`.
"""

import dataclasses

import pytest

from repro.cdn.origin import Origin
from repro.cdn.session import SessionSpec, StreamingSession
from repro.core.schemes import WIRA
from repro.media.source import StreamProfile
from repro.simnet.path import NetworkConditions

TESTBED = NetworkConditions(
    bandwidth_bps=8_000_000.0, rtt=0.050, loss_rate=0.03, buffer_bytes=25_000
)


def make_origin():
    origin = Origin()
    origin.add_stream(
        "demo",
        StreamProfile(first_frame_target_bytes=66_000, seed=1,
                      complexity_sigma=0.02, size_jitter=0.02),
    )
    return origin


class TestSpecSemantics:
    def test_spec_is_frozen(self):
        spec = SessionSpec(conditions=TESTBED, scheme=WIRA)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 99  # type: ignore[misc]

    def test_with_returns_modified_copy(self):
        spec = SessionSpec(conditions=TESTBED, scheme=WIRA, seed=1)
        other = spec.with_(seed=2, epoch=60.0)
        assert (spec.seed, spec.epoch) == (1, 0.0)
        assert (other.seed, other.epoch) == (2, 60.0)
        assert other.conditions is spec.conditions

    def test_session_exposes_its_spec(self):
        spec = SessionSpec(conditions=TESTBED, scheme=WIRA, seed=4)
        session = StreamingSession(spec, make_origin(), "demo")
        assert session.spec is spec

    def test_reuse_spec_is_deterministic(self):
        spec = SessionSpec(conditions=TESTBED, scheme=WIRA, seed=9)
        a = StreamingSession(spec, make_origin(), "demo").run()
        b = StreamingSession(spec, make_origin(), "demo").run()
        assert a == b

