"""Live encoder model: GOP structure and frame-size processes.

The paper's measurements (Fig 1) show first-frame sizes differ *between*
streams (resolution/bitrate mix: mean 43.1 KB, 30 % under 30 KB, 20 %
over 60 KB) and *within* a stream over time (picture complexity: 45–130
KB when sampling one stream every 5 s).  :class:`LiveSource` models both:

* a :class:`StreamProfile` fixes the per-stream knobs (bitrate, fps, GOP
  length, frame-type weights, optionally a first-frame size target);
* picture complexity follows a log-AR(1) process across GOPs, plus
  per-frame lognormal jitter, producing the intra-stream variation.

Everything is deterministic given the profile's seed: requesting the
same GOP twice yields identical frames.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.media.amf import encode_on_metadata
from repro.media.frames import Gop, MediaFrame, MediaFrameType

# The draw kernel.  Every complexity and jitter value is, by definition,
# ``random.Random(key).gauss(0.0, sigma)`` for a string ``key``.  A
# fresh ``Random`` per draw costs an object, the Python-level ``seed``
# and ``gauss`` on top of the C seeding; this does the same arithmetic
# on one reused generator instead.  Bit-exact by construction:
# ``Random.seed(str)`` (version 2) hands the C base class the integer
# ``int.from_bytes(key + sha512(key))``, and ``gauss`` draws two
# uniforms into Box–Muller with its cosine branch.  The sha512 is the
# one ``random`` seeds with, imported here as ``random`` does rather
# than read off it: CPython 3.13 imports it only at the first string
# seed, so ``random._sha512`` is ``None`` until then.  ``hashlib``'s is
# the last resort: its OpenSSL constructor costs about 1.8x per call
# (CPython 3.11, x86).  tests/media/test_source.py holds the kernel to
# the reference on random keys.  ``_MT``'s own seed never matters: every draw reseeds
# it first, so no draw sees another's state.  A draw is not atomic
# across threads; the simulator draws on one thread per process.
try:  # CPython 3.12 and later
    from _sha2 import sha512 as _sha512  # type: ignore
except ImportError:
    try:  # CPython 3.10, 3.11
        from _sha512 import sha512 as _sha512  # type: ignore
    except ImportError:
        from hashlib import sha512 as _sha512  # type: ignore
_MT = random.Random(0)  # wira-lint: disable=WL002
_mt_seed = super(random.Random, _MT).seed  # the C seeding, under Random.seed
_mt_random = _MT.random
_TWOPI = 2.0 * math.pi
_cos, _log, _sqrt = math.cos, math.log, math.sqrt


def _gauss(key: str, sigma: float) -> float:
    """``random.Random(key).gauss(0.0, sigma)``, bit for bit."""
    data = key.encode()
    _mt_seed(int.from_bytes(data + _sha512(data).digest(), "big"))
    x2pi = _mt_random() * _TWOPI
    g2rad = _sqrt(-2.0 * _log(1.0 - _mt_random()))
    return 0.0 + _cos(x2pi) * g2rad * sigma


@dataclass(frozen=True)
class StreamProfile:
    """Static description of one live stream."""

    video_bitrate_bps: float = 1_500_000.0
    fps: int = 25
    gop_seconds: float = 2.0
    b_frames_per_p: int = 2  # transmit pattern: I, then (P, B, B) groups
    audio_bitrate_bps: float = 128_000.0
    audio_fps: float = 43.0  # AAC at 44.1 kHz, 1024 samples/frame
    i_frame_weight: float = 8.0
    p_frame_weight: float = 2.5
    b_frame_weight: float = 1.0
    complexity_rho: float = 0.85  # AR(1) persistence, per GOP
    complexity_sigma: float = 0.20  # AR(1) innovation (log scale)
    size_jitter: float = 0.10  # per-frame lognormal sigma
    first_frame_target_bytes: Optional[int] = None
    width: int = 1280
    height: int = 720
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fps <= 0 or self.gop_seconds <= 0:
            raise ValueError("fps and gop_seconds must be positive")
        if self.video_bitrate_bps <= 0:
            raise ValueError("video bitrate must be positive")

    @property
    def video_frames_per_gop(self) -> int:
        return max(1, int(round(self.fps * self.gop_seconds)))

    @property
    def audio_frame_bytes(self) -> int:
        return max(1, int(self.audio_bitrate_bps / 8.0 / self.audio_fps))


class LiveSource:
    """Deterministic frame generator for one live stream."""

    def __init__(self, profile: StreamProfile) -> None:
        self.profile = profile
        # One double per GOP walked, kept for as long as the stream's
        # world lives: packed, not a list of float objects (a quarter
        # of the bytes on a walk thousands of GOPs long).
        self._complexity_cache = array("d")
        self._jitter_cache: Dict[int, List[float]] = {}
        # Every draw is keyed by a string that starts with the seed.
        self._key_prefix = f"{profile.seed}:"
        self._metadata_payload = encode_on_metadata(self._metadata())
        self._video_types = self._video_pattern()

    def _metadata(self) -> Dict[str, object]:
        p = self.profile
        return {
            "duration": 0.0,
            "width": float(p.width),
            "height": float(p.height),
            "videodatarate": p.video_bitrate_bps / 1000.0,
            "framerate": float(p.fps),
            "videocodecid": 7.0,
            "audiodatarate": p.audio_bitrate_bps / 1000.0,
            "audiosamplerate": 44100.0,
            "audiosamplesize": 16.0,
            "stereo": True,
            "audiocodecid": 10.0,
            "encoder": "repro-live-encoder/1.0",
            "metadatacreator": "repro",
        }

    # ------------------------------------------------------------------
    # Complexity process

    def _complexity(self, gop_index: int) -> float:
        """Complexity multiplier for GOP ``gop_index`` (mean ≈ 1)."""
        if gop_index < 0:
            raise ValueError("gop index must be non-negative")
        cache = self._complexity_cache
        walked = len(cache)
        if walked <= gop_index:
            p = self.profile
            rho, sigma = p.complexity_rho, p.complexity_sigma
            prefix = self._key_prefix
            if not walked:
                cache.append(math.exp(_gauss(f"{prefix}0:cx", self._stationary_sigma())))
                walked = 1
            log_prev = math.log(cache[-1])
            for k in range(walked, gop_index + 1):
                log_c = rho * log_prev + _gauss(f"{prefix}{k}:cx", sigma)
                c = math.exp(log_c)
                cache.append(c)
                log_prev = math.log(c)
        return cache[gop_index]

    def _stationary_sigma(self) -> float:
        rho = self.profile.complexity_rho
        return self.profile.complexity_sigma / math.sqrt(max(1e-9, 1.0 - rho * rho))

    # ------------------------------------------------------------------
    # Frame-size model

    def _base_sizes(self, gop_index: int) -> Dict[MediaFrameType, float]:
        p = self.profile
        n_video = p.video_frames_per_gop
        groups = max(0, (n_video - 1) // (1 + p.b_frames_per_p))
        n_p = groups
        n_b = n_video - 1 - n_p
        gop_bytes = p.video_bitrate_bps / 8.0 * p.gop_seconds
        weight_sum = p.i_frame_weight + n_p * p.p_frame_weight + n_b * p.b_frame_weight
        scale = gop_bytes / weight_sum
        complexity = self._complexity(gop_index)
        i_size = p.i_frame_weight * scale
        if p.first_frame_target_bytes is not None:
            # Pin the *nominal* first frame (script + audio + I) to the
            # target; complexity still modulates around it.
            overhead = len(self._metadata_payload) + p.audio_frame_bytes
            i_size = max(1000.0, p.first_frame_target_bytes - overhead)
        return {
            MediaFrameType.VIDEO_I: i_size * complexity,
            MediaFrameType.VIDEO_P: p.p_frame_weight * scale * complexity,
            MediaFrameType.VIDEO_B: p.b_frame_weight * scale * complexity,
        }

    def _jitter(self, gop_index: int, frame_index: int) -> float:
        # GOPs are re-requested by every viewer of the stream, so memoise
        # per (gop, frame).
        per_gop = self._jitter_cache.get(gop_index)
        if per_gop is None:
            per_gop = self._jitter_cache[gop_index] = []
        while len(per_gop) <= frame_index:
            key = f"{self._key_prefix}{gop_index}:{len(per_gop)}:jit"
            per_gop.append(math.exp(_gauss(key, self.profile.size_jitter)))
        return per_gop[frame_index]

    # ------------------------------------------------------------------
    # Public API

    def gop_index_at(self, time_s: float) -> int:
        """Index of the GOP whose playback window contains ``time_s``."""
        if time_s < 0:
            raise ValueError("time must be non-negative")
        return int(time_s / self.profile.gop_seconds)

    def gop_at(self, time_s: float, max_video_frames: Optional[int] = None) -> Gop:
        """The frame bundle a new viewer joining at ``time_s`` receives.

        Layout follows the paper's running example (§IV-A): script data,
        a leading audio frame, the I frame, then (P, B…) groups with
        audio interleaved at the audio frame rate.
        """
        return self.gop(self.gop_index_at(time_s), max_video_frames)

    def gop(self, gop_index: int, max_video_frames: Optional[int] = None) -> Gop:
        """GOP ``gop_index``, whole or cut after ``max_video_frames``.

        Frames are generated only as far as the limit reaches, so a
        truncated GOP is exactly the prefix of the whole one ending at
        its ``max_video_frames``-th video frame — at the cost of that
        prefix, not of the GOP.
        """
        if max_video_frames is not None and max_video_frames < 1:
            raise ValueError("a GOP must contain at least one video frame")
        frames: List[MediaFrame] = []
        video_seen = 0
        for frame in self._iter_frames(gop_index):
            frames.append(frame)
            if frame.is_video:
                video_seen += 1
                if video_seen == max_video_frames:
                    break
        return Gop.of(frames)

    def _iter_frames(self, gop_index: int) -> Iterator[MediaFrame]:
        p = self.profile
        base = self._base_sizes(gop_index)
        gop_start_ms = int(gop_index * p.gop_seconds * 1000)
        yield MediaFrame(MediaFrameType.SCRIPT, gop_start_ms, self._metadata_payload)
        audio_period_ms = 1000.0 / p.audio_fps
        yield MediaFrame.synthetic(MediaFrameType.AUDIO, gop_start_ms, p.audio_frame_bytes)
        next_audio_ms = gop_start_ms + audio_period_ms

        frame_period_ms = 1000.0 / p.fps
        for k, frame_type in enumerate(self._video_types):
            pts = gop_start_ms + int(k * frame_period_ms)
            while next_audio_ms <= pts:
                yield MediaFrame.synthetic(
                    MediaFrameType.AUDIO, int(next_audio_ms), p.audio_frame_bytes
                )
                next_audio_ms += audio_period_ms
            size = max(200, int(base[frame_type] * self._jitter(gop_index, k)))
            yield MediaFrame.synthetic(frame_type, pts, size)

    def _video_pattern(self) -> List[MediaFrameType]:
        p = self.profile
        pattern = [MediaFrameType.VIDEO_I]
        while len(pattern) < p.video_frames_per_gop:
            pattern.append(MediaFrameType.VIDEO_P)
            for _ in range(p.b_frames_per_p):
                if len(pattern) >= p.video_frames_per_gop:
                    break
                pattern.append(MediaFrameType.VIDEO_B)
        return pattern
