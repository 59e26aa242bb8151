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

GOP k's complexity is defined by the walk from GOP 0, one draw per GOP,
but a GOP far past every GOP already walked is computed from a window
of the last W draws instead (coupling from the past).  Two trajectories
start W GOPs back, one above and one below every state a walk can hold,
and take the same draws; each step is monotone in the state, so the
true walk stays between them, and once their pre-``exp`` values are
equal that value is the walk's, bit for bit.  The one assumption is
that the platform's ``math.exp`` and ``math.log`` are monotone; where
the two have not met by GOP k, the walk is taken exactly, as it always
was.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
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
_cos, _exp, _log, _sqrt = math.cos, math.exp, math.log, math.sqrt


def _gauss(key: str, sigma: float) -> float:
    """``random.Random(key).gauss(0.0, sigma)``, bit for bit."""
    data = key.encode()
    _mt_seed(int.from_bytes(data + _sha512(data).digest(), "big"))
    x2pi = _mt_random() * _TWOPI
    g2rad = _sqrt(-2.0 * _log(1.0 - _mt_random()))
    return 0.0 + _cos(x2pi) * g2rad * sigma


# The coupling window (see the module docstring).  A walk's state is
# ``log(c)`` for a complexity ``c`` that ``exp`` returned finite and
# non-zero (``exp`` raises past the largest double, and ``log(0.0)``
# fails), so it lies in [log(5e-324), log(DBL_MAX)] = [-744.44, 709.78]:
# the two trajectories start just outside that range.
_TOP, _BOTTOM = 709.8, -745.2
#: ``|_gauss(key, sigma)| <= _GAUSS_REACH * |sigma|``: ``1 - random()``
#: is at least 2**-53, and the cosine at most 1.
_GAUSS_REACH = _sqrt(-2.0 * _log(2.0**-53))
#: Pre-``exp`` values between these give a finite, non-zero ``exp``.
_EXP_LO, _EXP_HI = -744.0, 709.0
#: The gap the window closes, 2**-60.  Through ``exp`` and ``log`` a
#: state near the walk's typical values (|log c| of order 1) keeps about
#: 2**-53 of absolute resolution; closing the gap 7 bits below that
#: leaves about 1 window in 200 uncoalesced at rho = 0.85 (2**-53 itself
#: would leave more than half), and the exact walk takes those.
_RESOLUTION = 2.0**-60


def _coupling_window(profile: StreamProfile) -> Optional[int]:
    """W for ``profile``'s walk, or ``None`` where no window is exact.

    W is the number of steps after which ``rho**W * (_TOP - _BOTTOM)``
    falls below :data:`_RESOLUTION`: 301 at rho = 0.85.  A step is
    monotone only for rho >= 0, and the window stays off unless one step
    from anywhere in [_BOTTOM, _TOP], and GOP 0's stationary draw, stays
    where ``exp`` is finite and non-zero: then neither trajectory, nor
    the walk itself, can raise where the other would not.
    """
    rho = profile.complexity_rho
    if not 0.0 <= rho < 1.0:
        return None
    # The stationary sigma is the larger of the walk's two.
    reach = _GAUSS_REACH * abs(_stationary_sigma(profile))
    if not (rho * _TOP + reach <= _EXP_HI and rho * _BOTTOM - reach >= _EXP_LO):
        return None
    if rho == 0.0:  # wira-lint: disable=WL003 - exact: rho**1 is 0, and log(0) fails
        return 1
    return math.ceil(_log(_RESOLUTION / (_TOP - _BOTTOM)) / _log(rho))


def _stationary_sigma(profile: StreamProfile) -> float:
    rho = profile.complexity_rho
    return profile.complexity_sigma / math.sqrt(max(1e-9, 1.0 - rho * rho))


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
        # The complexities computed so far, kept for as long as the
        # stream's world lives: runs of contiguous GOPs, run i holding
        # GOPs ``_run_starts[i]`` onwards, sorted and never touching.
        # Packed, not lists of float objects (a quarter of the bytes).
        self._run_starts: List[int] = []
        self._runs: List[array[float]] = []
        self._window = _coupling_window(profile)
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
        """Complexity multiplier for GOP ``gop_index`` (mean ≈ 1).

        The value is the walk's from GOP 0, bit for bit; only the draws
        that cannot change it are skipped.  A GOP inside a run is read;
        one at most W past a run's end extends that run a draw per GOP;
        one farther than that (or below every run) is computed by the
        coupling window over GOPs ``k - W`` to ``k``, at most W + 1
        draws.  Where the window cannot start (``k - W < 1``), or its two
        trajectories have not met by GOP k, the walk goes exactly from
        the nearest run's end below, or from GOP 0.
        """
        if gop_index < 0:
            raise ValueError("gop index must be non-negative")
        starts = self._run_starts
        below = bisect_right(starts, gop_index) - 1
        if below >= 0:
            run = self._runs[below]
            offset = gop_index - starts[below]
            if offset < len(run):
                return run[offset]
        window = self._window
        if below >= 0 and (window is None or offset - len(run) < window):
            self._extend(below, gop_index)
        elif window is None or gop_index - window < 1 or not self._couple(gop_index, window):
            if below >= 0:
                self._extend(below, gop_index)
            else:
                self._walk_from_zero(gop_index)
        below = bisect_right(starts, gop_index) - 1
        return self._runs[below][gop_index - starts[below]]

    def _walk(self, log_prev: float, first: int, last: int, run: array[float]) -> None:
        """Append GOPs ``first..last`` to ``run``, walked exactly from
        the state ``log_prev`` of GOP ``first - 1``."""
        p = self.profile
        rho, sigma = p.complexity_rho, p.complexity_sigma
        prefix = self._key_prefix
        for k in range(first, last + 1):
            c = _exp(rho * log_prev + _gauss(f"{prefix}{k}:cx", sigma))
            run.append(c)
            log_prev = _log(c)

    def _walk_from_zero(self, gop_index: int) -> None:
        c = _exp(_gauss(f"{self._key_prefix}0:cx", _stationary_sigma(self.profile)))
        run = array("d", [c])
        self._walk(_log(c), 1, gop_index, run)
        self._file(0, run)

    def _extend(self, index: int, gop_index: int) -> None:
        """Walk run ``index`` on, exactly, to ``gop_index``."""
        run = self._runs[index]
        first = self._run_starts[index] + len(run)
        more = array("d")
        self._walk(_log(run[-1]), first, gop_index, more)
        self._file(first, more)

    def _couple(self, gop_index: int, window: int) -> bool:
        """File a run ending at ``gop_index`` from the coupling window
        over GOPs ``gop_index - window`` onwards; False if the two
        trajectories have not met by ``gop_index``."""
        p = self.profile
        rho, sigma = p.complexity_rho, p.complexity_sigma
        prefix = self._key_prefix
        hi, lo = _TOP, _BOTTOM
        for k in range(gop_index - window, gop_index + 1):
            g = _gauss(f"{prefix}{k}:cx", sigma)
            log_hi = rho * hi + g
            log_lo = rho * lo + g
            # Exact by design: the walk's pre-exp value lies between the
            # two, so equal bounds are that value.  (0.0 == -0.0 too:
            # exp gives 1.0 for both, and log of it is 0.0.)
            if log_hi == log_lo:
                c = _exp(log_hi)
                run = array("d", [c])
                self._walk(_log(c), k + 1, gop_index, run)
                self._file(k, run)
                return True
            hi = _log(_exp(log_hi))
            lo = _log(_exp(log_lo))
        return False

    def _file(self, start: int, run: array[float]) -> None:
        """Keep ``run`` (GOPs ``start`` onwards), joined to the runs it
        touches.  A new run never overlaps one already kept."""
        starts, runs = self._run_starts, self._runs
        i = bisect_left(starts, start)
        if i < len(starts) and starts[i] == start + len(run):
            run.extend(runs[i])
            del starts[i], runs[i]
        if i and starts[i - 1] + len(runs[i - 1]) == start:
            runs[i - 1].extend(run)
        else:
            starts.insert(i, start)
            runs.insert(i, run)

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
