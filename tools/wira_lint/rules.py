"""Rule registry: codes, zones, and the name tables the checkers use.

Zone matching
-------------
A zone entry like ``src/repro/simnet`` is an **anchored segment
pattern**: it matches a path when its ``/``-separated segments appear as
a contiguous run of whole path segments, with the final zone segment
allowed to name either a directory (``.../simnet/engine.py``) or the
module file itself (``src/repro/core/schemes`` matches
``src/repro/core/schemes.py``).  Each segment is an ``fnmatch`` glob, so
``src/repro/*`` is legal.  Segment anchoring is what lets the registry
work both on checkouts and on test fixtures written to a temporary
directory mirroring the layout (``/tmp/.../src/repro/simnet/x.py``)
while rejecting near-misses such as ``src/repro/core/schemes_extra.py``
or ``notsrc/repro/simnet/x.py`` that the old substring matcher accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Tuple

#: Replay zone: code that must be bit-exact deterministic because its
#: behaviour feeds replayed results.  Figures, golden digests and serial
#: == sharded replays all assume it; one wall-clock read or process-global
#: RNG draw here (WL001/WL002) silently breaks them.
REPLAY_ZONE: Tuple[str, ...] = (
    "src/repro/simnet",
    "src/repro/quic",
    "src/repro/core",
    "src/repro/workload",
    "src/repro/faults",
    "src/repro/cdn",
    "src/repro/media",
)
# ``src/repro/serve`` is deliberately NOT in the replay zone: service
# mode runs sessions over real UDP sockets on the asyncio loop, so wall
# clocks and socket timing are its whole job (see CONTRIBUTING.md,
# "Wall-clock territory").  It still sits in TYPED_ZONE below.

#: Typed zone: packages under the mypy ``disallow_untyped_defs`` contract
#: (WL006 mirrors it so the contract is enforced even where mypy is not
#: installed).
TYPED_ZONE: Tuple[str, ...] = (
    "src/repro/quic",
    "src/repro/simnet",
    "src/repro/faults",
    "src/repro/fleet",
    "src/repro/runtime",
    "src/repro/serve",
    # Scheme-plugin surface: the registry and the online policies are an
    # extension API, so their signatures are part of the contract.
    "src/repro/core/schemes",
    "src/repro/core/adaptive",
    # The packet model, the Wira knobs and the cookie manager: they read
    # the transport's constants, so they are held to its contract.
    "src/repro/core/initializer",
    "src/repro/core/config",
    "src/repro/core/transport_cookie",
    # The replay core every engine shares: chain worlds, per-scheme
    # replay state, the block replay.
    "src/repro/experiments/common",
    # The live source: its complexity walk's coupling window is exact
    # only as written, so its signatures are held too.
    "src/repro/media/source",
    "tools/wira_fleet",
    "tools/wira_serve",
)

#: Whole-package zone for the style/structure rules.
SRC_ZONE: Tuple[str, ...] = ("src/repro",)

def zone_match(path: str, zone: str) -> bool:
    """Anchored segment match of ``zone`` against ``path`` (see module
    docstring).  Both are ``/``-separated; ``path`` may be absolute."""
    segments = [part for part in path.split("/") if part not in ("", ".")]
    zparts = zone.split("/")
    width = len(zparts)
    if width == 0 or len(segments) < width:
        return False
    for start in range(len(segments) - width + 1):
        window = segments[start : start + width]
        if not all(fnmatchcase(window[i], zparts[i]) for i in range(width - 1)):
            continue
        last, zlast = window[-1], zparts[-1]
        if fnmatchcase(last, zlast) or fnmatchcase(last, zlast + ".py"):
            return True
    return False


def zone_match_any(path: str, zones: Tuple[str, ...]) -> bool:
    return any(zone_match(path, zone) for zone in zones)


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    summary: str
    zone: Tuple[str, ...]
    #: Anchored segment patterns exempt from the rule even inside its zone.
    exempt: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        norm = path.replace("\\", "/")
        if zone_match_any(norm, self.exempt):
            return False
        return zone_match_any(norm, self.zone)


RULES = {
    "WL001": Rule(
        "WL001",
        "no-wall-clock",
        "simulation code must read EventLoop.now, never the wall clock",
        REPLAY_ZONE,
    ),
    "WL002": Rule(
        "WL002",
        "no-unseeded-random",
        "randomness must come from a caller-supplied seeded random.Random",
        REPLAY_ZONE,
    ),
    "WL003": Rule(
        "WL003",
        "no-float-equality",
        "time/rate quantities must not be compared with == / !=",
        SRC_ZONE,
    ),
    "WL004": Rule(
        "WL004",
        "hot-path-slots",
        "registered hot-path classes must declare __slots__",
        SRC_ZONE,
    ),
    "WL005": Rule(
        "WL005",
        "deterministic-merge",
        "merge/serialization paths must not iterate dicts in insertion order",
        SRC_ZONE,
    ),
    "WL006": Rule(
        "WL006",
        "typed-defs",
        "typed zones require annotations on every def",
        TYPED_ZONE,
    ),
    "WL007": Rule(
        "WL007",
        "no-bare-print",
        "library code must not print(); use logging or return a report",
        SRC_ZONE,
        # Report rendering and the experiment drivers are presentation
        # layers whose job is terminal output.
        exempt=("src/repro/experiments", "src/repro/metrics/report"),
    ),
    "WL009": Rule(
        "WL009",
        "unused-pragma",
        "wira-lint pragmas must suppress at least one live finding",
        # Tests embed pragma-bearing fixture snippets inside string
        # literals, which the line-based pragma scanner cannot tell from
        # real pragmas — so staleness is only enforced on shipped code.
        ("src/repro", "examples"),
    ),
    "WL012": Rule(
        "WL012",
        "settings-knobs",
        "WIRA_* environment knobs must flow through runtime.Settings",
        ("src/repro", "tools"),
        exempt=("src/repro/runtime/settings",),
    ),
    "WL013": Rule(
        "WL013",
        "event-registry",
        "emitted obs event names and events.EVENT_NAMES must agree",
        SRC_ZONE,
    ),
}

#: ``time`` module functions that read the host clock.
WALL_CLOCK_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "localtime",
        "gmtime",
    }
)

#: ``datetime`` constructors that read the host clock.
WALL_CLOCK_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: Module-level ``random.*`` functions driven by the process-global RNG.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: Identifier words marking a float as a time/rate quantity for WL003.
TIME_RATE_WORDS = frozenset(
    {
        "bps",
        "bw",
        "deadline",
        "delay",
        "elapsed",
        "latency",
        "now",
        "rate",
        "rtt",
        "seconds",
        "time",
        "timeout",
        "timestamp",
        "tokens",
    }
)

#: Hot-path classes that must stay ``__slots__``-packed (WL004).  These
#: are allocated per packet or per event; an instance ``__dict__`` on any
#: of them costs both memory and per-event time on every session.
SLOTS_REGISTRY = frozenset(
    {
        "Datagram",
        "Event",
        "EventLoop",
        "Link",
        "Pacer",
        "SentPacket",
        # Per-packet value objects: one Packet and one STREAM or ACK frame
        # per packet sent, and a Packet travels in every in-process
        # datagram until it is delivered.
        "AckFrame",
        "Packet",
        "StreamFrame",
        # The free-running batch kernel the benchmark still times: one
        # CalendarQueue entry and one MemberLoop clock touch per event
        # (MemberLoop is down to kernel, clock and two counters).
        "BatchEventLoop",
        "CalendarQueue",
        "MemberLoop",
        # Fleet-scale streaming accumulators: allocated per campaign but
        # fold()/add() run once per session across 10^5–10^6 sessions.
        "CampaignAggregate",
        "ExactSum",
        "QuantileSketch",
        "SchemeAggregate",
        "StatAccumulator",
        # Live-telemetry snapshots: campaigns at fleet scale write
        # thousands, and the live dashboard re-reads them every poll.
        "TelemetrySnapshot",
        # Scheme-plugin policies: one instance per chain at fleet scale,
        # queried once per session; an instance ``__dict__`` here also
        # invites ad-hoc state that escapes the state_digest contract.
        "TableIPolicy",
        "AdaptiveInitPolicy",
        # Replay scaffolding: one world per chain, one replay state per
        # (scheme, chain) and one shared session per recorded session at
        # fleet scale; a world is shared by every scheme, so an instance
        # ``__dict__`` would also invite state no scheme may add to it.
        "ChainWorld",
        "SchemeReplay",
        "SharedSession",
    }
)

#: Functions treated as merge paths for WL005 (a def whose own or
#: enclosing def's name matches): anywhere parallel shards are
#: recombined, iteration order must come from an explicit sort key, never
#: from dict insertion order (which differs shard-by-shard).
MERGE_FUNC_RE = re.compile(r"(?:^|_)(merge|replay|aggregate|combine|reduce|recombine)", re.I)

#: Module-level registry assignments the contract cross-checks consume.
#: Any scanned file assigning one of these names to a literal collection
#: of strings contributes to the program-wide registry of that kind.
REGISTRY_NAMES = ("EVENT_NAMES",)

#: Shape of an obs event name: ``category:event``.
EVENT_NAME_RE = re.compile(r"^[a-z_]+:[a-z_]+$")
