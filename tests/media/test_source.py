"""Tests for the live encoder model."""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.media import source as source_module
from repro.media.frames import MediaFrameType
from repro.media.source import LiveSource, StreamProfile

#: Small GOPs of every shape the pattern logic branches on: with and
#: without B frames, pinned and free first frames, one-frame GOPs.
profiles = st.builds(
    StreamProfile,
    video_bitrate_bps=st.sampled_from([300_000.0, 1_500_000.0, 6_000_000.0]),
    fps=st.sampled_from([10, 25, 30]),
    gop_seconds=st.sampled_from([0.1, 0.5, 1.0]),
    b_frames_per_p=st.integers(0, 3),
    first_frame_target_bytes=st.one_of(st.none(), st.integers(5_000, 120_000)),
    seed=st.integers(0, 2**31),
)


def video_frames(gop):
    return [f for f in gop.frames if f.is_video]


def through_kth_video_frame(frames, k):
    """Reference truncation: the whole sequence cut after its k-th video frame."""
    kept, seen = [], 0
    for frame in frames:
        kept.append(frame)
        if frame.is_video:
            seen += 1
            if seen == k:
                break
    return tuple(kept)


def test_profile_validation():
    with pytest.raises(ValueError):
        StreamProfile(fps=0)
    with pytest.raises(ValueError):
        StreamProfile(video_bitrate_bps=0)


def test_gop_structure_starts_with_script_audio_i():
    source = LiveSource(StreamProfile(seed=1))
    gop = source.gop(0)
    types = [f.frame_type for f in gop.frames[:3]]
    assert types == [MediaFrameType.SCRIPT, MediaFrameType.AUDIO, MediaFrameType.VIDEO_I]


def test_gop_video_frame_count_matches_profile():
    profile = StreamProfile(fps=25, gop_seconds=2.0, seed=1)
    gop = LiveSource(profile).gop(0)
    assert len(video_frames(gop)) == 50


def test_video_pattern_interleaves_p_and_b():
    profile = StreamProfile(b_frames_per_p=2, seed=1)
    gop = LiveSource(profile).gop(0)
    video = [f.frame_type for f in video_frames(gop)[:7]]
    assert video == [
        MediaFrameType.VIDEO_I,
        MediaFrameType.VIDEO_P,
        MediaFrameType.VIDEO_B,
        MediaFrameType.VIDEO_B,
        MediaFrameType.VIDEO_P,
        MediaFrameType.VIDEO_B,
        MediaFrameType.VIDEO_B,
    ]


def test_i_frame_larger_than_p_larger_than_b():
    source = LiveSource(StreamProfile(seed=2))
    gop = source.gop(0)
    sizes = {}
    for frame in video_frames(gop):
        sizes.setdefault(frame.frame_type, frame.size)
    assert sizes[MediaFrameType.VIDEO_I] > sizes[MediaFrameType.VIDEO_P]
    assert sizes[MediaFrameType.VIDEO_P] > sizes[MediaFrameType.VIDEO_B]


def test_gop_bytes_track_bitrate():
    profile = StreamProfile(video_bitrate_bps=2e6, gop_seconds=2.0, seed=3,
                            complexity_sigma=0.01, size_jitter=0.01)
    gop = LiveSource(profile).gop(0)
    video_bytes = sum(f.size for f in video_frames(gop))
    assert video_bytes == pytest.approx(2e6 / 8 * 2.0, rel=0.25)


def test_deterministic_across_instances():
    a = LiveSource(StreamProfile(seed=7)).gop(3)
    b = LiveSource(StreamProfile(seed=7)).gop(3)
    assert [f.size for f in a.frames] == [f.size for f in b.frames]


def test_different_seeds_differ():
    a = LiveSource(StreamProfile(seed=7)).gop(0)
    b = LiveSource(StreamProfile(seed=8)).gop(0)
    assert [f.size for f in a.frames] != [f.size for f in b.frames]


def test_intra_stream_first_frame_varies_over_time():
    """Fig 1(b): FF_Size of the same stream changes across GOPs."""
    source = LiveSource(StreamProfile(seed=9))
    sizes = [source.gop_at(t).first_frame_bytes() for t in range(0, 200, 5)]
    assert max(sizes) / min(sizes) > 1.3
    assert len(set(sizes)) > 10


def test_first_frame_target_honoured():
    profile = StreamProfile(
        first_frame_target_bytes=66_000, complexity_sigma=0.01, size_jitter=0.01, seed=4
    )
    ff = LiveSource(profile).gop_at(0.0).first_frame_bytes()
    assert ff == pytest.approx(66_000, rel=0.1)


def test_gop_index_mapping():
    source = LiveSource(StreamProfile(gop_seconds=2.0, seed=1))
    assert source.gop_index_at(0.0) == 0
    assert source.gop_index_at(1.99) == 0
    assert source.gop_index_at(2.0) == 1
    with pytest.raises(ValueError):
        source.gop_index_at(-1.0)


def test_pts_monotone_within_gop():
    gop = LiveSource(StreamProfile(seed=5)).gop(2)
    pts = [f.pts_ms for f in gop.frames]
    assert pts == sorted(pts)


def test_audio_interleaved_through_gop():
    gop = LiveSource(StreamProfile(seed=5)).gop(0)
    audio_count = sum(1 for f in gop.frames if f.frame_type == MediaFrameType.AUDIO)
    # ~43 audio frames/s over a 2s GOP, give or take interleave edges.
    assert 60 <= audio_count <= 90


def test_first_frame_bytes_with_theta_three():
    """§IV-A example: Θ_VF=3 adds the P and first B frame."""
    source = LiveSource(StreamProfile(seed=6))
    gop = source.gop(0)
    ff1 = gop.first_frame_bytes(1)
    ff3 = gop.first_frame_bytes(3)
    assert ff3 > ff1


@settings(max_examples=60, deadline=None)
@given(profile=profiles, gop_index=st.integers(0, 40), k=st.integers(1, 40))
def test_truncated_gop_is_prefix_of_whole_gop(profile, gop_index, k):
    """A world is a memo: cutting generation short changes no frame."""
    whole = LiveSource(profile).gop(gop_index)
    cut = LiveSource(profile).gop(gop_index, max_video_frames=k)
    assert cut.frames == through_kth_video_frame(whole.frames, k)
    assert len(video_frames(cut)) == min(k, profile.video_frames_per_gop)


@st.composite
def walked_profiles(draw):
    """``profiles`` with the walk's persistence anywhere in [0, 0.999],
    and an innovation that keeps the stationary spread at most 0.2 (a
    GOP's frames are real bytes) or is zero."""
    rho = draw(st.floats(0.0, 0.999))
    spread = draw(st.sampled_from([0.0, 0.05, 0.2]))
    return dataclasses.replace(
        draw(profiles), complexity_rho=rho, complexity_sigma=spread * math.sqrt(1.0 - rho * rho)
    )


#: GOP indices on both sides of the coupling window (301 GOPs at the
#: default rho), so a visit may land in a run, just past one, far past
#: every run, or below every run.
far_gops = st.one_of(st.integers(0, 60), st.integers(0, 2000))


@settings(max_examples=30, deadline=None)
@given(
    profile=walked_profiles(),
    visits=st.lists(st.tuples(far_gops, st.integers(1, 8)), min_size=2, max_size=5),
)
@example(
    profile=StreamProfile(seed=5),
    visits=[(1500, 2), (400, 1), (1900, 3), (1200, 1), (0, 2), (1501, 1)],
)
@example(profile=StreamProfile(complexity_sigma=0.0, seed=5), visits=[(1800, 1), (900, 2)])
def test_shared_source_serves_any_visit_order_identically(profile, visits):
    """One source walked to a later GOP, asked for one below what it
    holds, or for a longer cut of a GOP it already served, answers
    exactly as a fresh one does, at the reference walk's complexity."""
    shared = LiveSource(profile)
    walk = reference_walk(profile, max(g for g, _ in visits) + 1)
    for gop_index, k in visits:
        fresh = LiveSource(profile).gop(gop_index, max_video_frames=k)
        assert shared.gop(gop_index, max_video_frames=k) == fresh
        assert shared._complexity(gop_index) == walk[gop_index]


def test_truncated_gop_needs_a_video_frame():
    with pytest.raises(ValueError):
        LiveSource(StreamProfile(seed=1)).gop(0, max_video_frames=0)


def reference_walk(profile, n_gops):
    """The complexity walk as first written: one string-seeded
    ``random.Random`` and its ``gauss`` per GOP."""
    rho, sigma = profile.complexity_rho, profile.complexity_sigma
    walk = []
    for k in range(n_gops):
        rng = random.Random(f"{profile.seed}:{k}:cx")
        if not walk:
            log_c = rng.gauss(0.0, sigma / math.sqrt(max(1e-9, 1.0 - rho * rho)))
        else:
            log_c = rho * math.log(walk[-1]) + rng.gauss(0.0, sigma)
        walk.append(math.exp(log_c))
    return walk


def reference_jitter(profile, gop_index, frame_index):
    rng = random.Random(f"{profile.seed}:{gop_index}:{frame_index}:jit")
    return math.exp(rng.gauss(0.0, profile.size_jitter))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**31), st.integers(-(2**70), 2**70)),
    rho=st.floats(0.0, 0.999),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    size_jitter=st.floats(0.0, 1.0),
    steps=st.lists(far_gops, min_size=1, max_size=4),
    frames=st.lists(st.tuples(st.integers(0, 120), st.integers(0, 60)), max_size=6),
)
@example(seed=11, rho=0.85, sigma=0.18, size_jitter=0.1, steps=[1700, 300, 1100, 1400], frames=[])
@example(seed=11, rho=0.5, sigma=0.0, size_jitter=0.1, steps=[1999, 40, 700], frames=[])
def test_draw_kernel_equals_random_gauss(seed, rho, sigma, size_jitter, steps, frames):
    """The reused-generator kernel draws exactly what a fresh
    ``random.Random(key).gauss`` does, and the coupling window skips only
    draws that cannot matter: a walk visited in any order, past the
    window or below what it holds, agrees bit for bit with the reference
    walk from GOP 0, as does any jitter index.  A CPython change to
    string seeding or to ``gauss``, or an ``exp`` or ``log`` that is not
    monotone, fails here."""
    profile = StreamProfile(
        complexity_rho=rho, complexity_sigma=sigma, size_jitter=size_jitter, seed=seed
    )
    source = LiveSource(profile)
    for gop_index in steps:
        source._complexity(gop_index)
    walk = reference_walk(profile, max(steps) + 1)
    # Every value the source holds is the reference's, and so is every
    # GOP up to the farthest step, however the source reaches it.
    for start, run in zip(source._run_starts, source._runs):
        assert list(run) == walk[start : start + len(run)]
    assert [source._complexity(k) for k in range(len(walk))] == walk
    for gop_index, frame_index in frames:
        assert source._jitter(gop_index, frame_index) == reference_jitter(
            profile, gop_index, frame_index
        )


def test_lone_far_request_draws_at_most_the_window(monkeypatch):
    """A world whose first visit is GOP 5 000 draws the coupling window
    (W + 1 walk draws, W = 301 at rho = 0.85), not the 5 001 GOPs from
    GOP 0, and gets the reference walk's value."""
    profile = StreamProfile(seed=3)
    window = source_module._coupling_window(profile)
    assert window == 301
    keys = []
    gauss = source_module._gauss

    def counting_gauss(key, sigma):
        keys.append(key)
        return gauss(key, sigma)

    monkeypatch.setattr(source_module, "_gauss", counting_gauss)
    value = LiveSource(profile)._complexity(5000)
    assert len(keys) <= window + 1
    assert keys[-1] == "3:5000:cx"
    assert value == reference_walk(profile, 5001)[5000]


def test_windowed_walks_match_the_reference_across_seeds():
    """Where the window's first value is off by a rounding, a later GOP
    shows it only now and then: forty streams at the workloads' rho and
    sigma, each first asked for GOP 1 000, then for every GOP below."""
    for seed in range(40):
        profile = StreamProfile(complexity_rho=0.85, complexity_sigma=0.18, seed=seed)
        source = LiveSource(profile)
        walk = reference_walk(profile, 1001)
        assert source._complexity(1000) == walk[1000]
        assert [source._complexity(k) for k in range(1001)] == walk


@pytest.mark.parametrize(
    "rho, sigma",
    [(-0.5, 0.2), (1.0, 0.2), (0.999, 0.2), (0.85, 200.0), (0.85, float("nan"))],
)
def test_window_off_where_it_could_not_be_exact(rho, sigma):
    """No window for a step that is not monotone (rho < 0), for a walk
    that never forgets (rho = 1), or where either trajectory, or the walk
    itself, could leave the range where ``exp`` is finite and non-zero."""
    profile = StreamProfile(complexity_rho=rho, complexity_sigma=sigma)
    assert source_module._coupling_window(profile) is None


def test_window_is_computed_from_rho():
    windows = [
        source_module._coupling_window(StreamProfile(complexity_rho=rho))
        for rho in (0.0, 0.5, 0.85, 0.9)
    ]
    assert windows == [1, 71, 301, 464]
