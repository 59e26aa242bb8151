"""Tests for the live CDN origin."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.origin import Origin, OriginFetch, UnknownStreamError
from repro.media.frames import MediaFrameType
from repro.media.source import LiveSource, StreamProfile


def media_frames(fetch):
    return [frame for frame, _ in fetch.frames]


def make_origin(**kwargs):
    origin = Origin(**kwargs)
    origin.add_stream("demo", StreamProfile(seed=1))
    return origin


def test_unknown_stream_rejected():
    with pytest.raises(UnknownStreamError):
        make_origin().fetch("nope", 0.0)


def test_fetch_starts_with_script_audio_i():
    fetch = make_origin().fetch("demo", 0.0)
    types = [f.frame_type for f in media_frames(fetch)[:3]]
    assert types == [MediaFrameType.SCRIPT, MediaFrameType.AUDIO, MediaFrameType.VIDEO_I]


def test_fetch_truncates_at_video_frame_limit():
    fetch = make_origin().fetch("demo", 0.0, max_video_frames=4)
    video = [f for f in media_frames(fetch) if f.is_video]
    assert len(video) == 4


def test_fetch_immediate_availability_by_default():
    fetch = make_origin().fetch("demo", 0.0, max_video_frames=3)
    assert all(delay == 0.0 for _, delay in fetch.frames)


def test_i_frame_pull_delay_staggers_video():
    origin = make_origin(i_frame_pull_delay=0.02)
    fetch = origin.fetch("demo", 0.0, max_video_frames=2)
    delays = {f.frame_type: d for f, d in fetch.frames}
    assert delays[MediaFrameType.SCRIPT] == 0.0
    assert delays[MediaFrameType.VIDEO_I] == 0.02


def test_fetch_respects_join_time_gop():
    origin = make_origin()
    early = origin.fetch("demo", 0.0, max_video_frames=1)
    late = origin.fetch("demo", 100.0, max_video_frames=1)
    sizes_early = [f.size for f in media_frames(early)]
    sizes_late = [f.size for f in media_frames(late)]
    assert sizes_early != sizes_late  # different GOP, different complexity


def test_negative_pull_delay_rejected():
    with pytest.raises(ValueError):
        Origin(i_frame_pull_delay=-1.0)


def reference_fetch(profile, join_time, max_video_frames, pull_delay):
    """What ``Origin.fetch`` did before GOPs were generated lazily:
    build the whole GOP, then walk it and stop at the limit."""
    frames = []
    video_seen = 0
    saw_video = False
    for frame in LiveSource(profile).gop_at(join_time).frames:
        if frame.is_video:
            saw_video = True
            video_seen += 1
        frames.append((frame, pull_delay if saw_video else 0.0))
        if video_seen >= max_video_frames:
            break
    return OriginFetch("demo", tuple(frames))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    fps=st.sampled_from([10, 25]),
    b_frames_per_p=st.integers(0, 2),
    join_time=st.floats(0.0, 120.0),
    k=st.integers(1, 30),
    pull_delay=st.sampled_from([0.0, 0.004]),
)
def test_fetch_equals_whole_gop_then_truncate(
    seed, fps, b_frames_per_p, join_time, k, pull_delay
):
    profile = StreamProfile(seed=seed, fps=fps, gop_seconds=1.0, b_frames_per_p=b_frames_per_p)
    origin = Origin(i_frame_pull_delay=pull_delay)
    origin.add_stream("demo", profile)
    fetch = origin.fetch("demo", join_time, max_video_frames=k)
    assert fetch == reference_fetch(profile, join_time, k, pull_delay)
