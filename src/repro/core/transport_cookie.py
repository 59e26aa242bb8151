"""Transport Cookie: stateless Hx_QoS synchronisation (§IV-B).

Wire pieces (Fig 8):

* **HQST tag** in the CHLO — declares whether the client supports
  Hx_QoS synchronisation (``Bool``) and, when it has one, echoes the
  cookie from the previous session with the same OD pair: the client's
  receive timestamp plus the server-sealed ``Hx_QoS_Frame`` blob.
* **Hx_QoS frame** in Hx_QoS packets (type ``0x1f``,
  :class:`repro.quic.frames.HxQosFrame`) — the server periodically
  pushes its current MinRTT/MaxBW measurements, sealed, to the client.

Server side, :class:`ServerCookieManager` builds sealed cookies from a
connection's live measurements and opens echoed ones, enforcing the MAC
and the Δ-staleness rule.  Client side, :class:`ClientCookieStore` keeps
the latest blob per origin, exactly the "offload the collected Hx_QoS to
the cache of its clients" storage shift the paper argues for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import STALENESS_DELTA
from repro.core.cookie_crypto import CookieError, CookieSealer
from repro.quic.frames import HxId, HxQosFrame
from repro.quic.varint import decode_varint, encode_varint

#: Seconds a cookie's timestamp may run ahead of the server clock.
MAX_CLOCK_SKEW = 5.0


@dataclass(frozen=True)
class HxQos:
    """Historical QoS of one OD pair (the cookie payload)."""

    min_rtt: float  # seconds
    max_bw_bps: float  # bits per second
    timestamp: float  # server clock at measurement, seconds

    def __post_init__(self) -> None:
        if self.min_rtt <= 0:
            raise ValueError("min_rtt must be positive")
        if self.max_bw_bps <= 0:
            raise ValueError("max_bw_bps must be positive")

    @property
    def bdp_bytes(self) -> int:
        """Bandwidth-delay product implied by the historical metrics."""
        return int(self.max_bw_bps * self.min_rtt / 8.0)

    def encode(self) -> bytes:
        out = bytearray()
        out += encode_varint(max(1, int(self.min_rtt * 1e6)))
        out += encode_varint(max(1, int(self.max_bw_bps)))
        out += encode_varint(max(0, int(self.timestamp * 1e3)))
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "HxQos":
        try:
            min_rtt_us, offset = decode_varint(data)
            max_bw, offset = decode_varint(data, offset)
            timestamp_ms, offset = decode_varint(data, offset)
        except ValueError as exc:
            raise CookieError(f"malformed Hx_QoS payload: {exc}") from exc
        if offset != len(data):
            # Strict parse: a sealed payload is exactly three varints.
            # Trailing bytes mean corruption the MAC did not cover the
            # intent of — reject rather than silently ignore.
            raise CookieError(
                f"trailing garbage after Hx_QoS payload ({len(data) - offset} bytes)"
            )
        return cls(min_rtt_us / 1e6, float(max_bw), timestamp_ms / 1e3)


# ----------------------------------------------------------------------
# HQST tag codec (CHLO side, Fig 8)


def encode_hqst(
    supported: bool,
    received_at_ms: Optional[int] = None,
    sealed_frame: Optional[bytes] = None,
) -> bytes:
    """Encode the HQST tag value.

    ``Bool`` leads; when the client holds a cookie, the timestamp it
    recorded at receipt and the sealed Hx_QoS frame follow.  Per §IV-B,
    "the Hx_QoS_Frame will keep available only when Bool = 1 and the
    TagLen is larger than the sum of sizes of TagID, TagLen and Bool".
    """
    if received_at_ms is not None and sealed_frame is None:
        # A timestamp describes when a sealed frame arrived; one without
        # the other is a caller bug.  Silently emitting the bare Bool
        # here used to hide exactly that bug (the receipt time vanished
        # from the wire with no error).
        raise ValueError("received_at_ms given without sealed_frame")
    out = bytearray([0x01 if supported else 0x00])
    if supported and sealed_frame is not None:
        out += encode_varint(received_at_ms if received_at_ms is not None else 0)
        out += encode_varint(len(sealed_frame))
        out += sealed_frame
    return bytes(out)


def decode_hqst(value: bytes) -> Tuple[bool, Optional[int], Optional[bytes]]:
    """Decode an HQST tag value → (supported, received_at_ms, sealed).

    Parsing is strict: the Bool must be exactly 0x00 or 0x01 (anything
    else is a corrupted tag, not an "unsupported" client), and nothing
    may follow the sealed frame.  Misreading corruption as a benign
    shape would hide injected faults instead of detecting them.
    """
    if not value:
        return False, None, None
    if value[0] not in (0x00, 0x01):
        raise CookieError(f"invalid HQST Bool byte 0x{value[0]:02x}")
    supported = value[0] == 0x01
    if not supported:
        if len(value) > 1:
            raise CookieError("trailing garbage after unsupported HQST Bool")
        return False, None, None
    if len(value) == 1:
        return True, None, None
    try:
        received_at_ms, offset = decode_varint(value, 1)
        length, offset = decode_varint(value, offset)
    except ValueError as exc:
        raise CookieError(f"malformed HQST tag: {exc}") from exc
    if offset + length > len(value):
        raise CookieError("HQST sealed frame truncated")
    if offset + length < len(value):
        raise CookieError("trailing garbage after HQST sealed frame")
    return supported, received_at_ms, bytes(value[offset : offset + length])


# ----------------------------------------------------------------------
# Client side


class ClientCookieStore:
    """Per-client cache of the latest cookie for each origin.

    The client cannot read the sealed blobs; it only stores and echoes
    them, recording when each arrived (the timestamp "carried in the
    next CHLO packets").  One entry per origin, replaced on every push;
    staleness is the server's call (:meth:`ServerCookieManager.open_echoed`).
    """

    def __init__(self) -> None:
        self._cookies: Dict[str, Tuple[bytes, float]] = {}

    def update(self, origin: str, sealed: bytes, received_at: float) -> None:
        self._cookies[origin] = (sealed, received_at)

    def get(self, origin: str) -> Optional[Tuple[bytes, float]]:
        """Latest ``(sealed_blob, received_at)`` for ``origin``."""
        return self._cookies.get(origin)

    def on_hx_qos_frame(self, origin: str, frame: HxQosFrame, now: float) -> bool:
        """Ingest a pushed Hx_QoS frame; returns True if a cookie landed."""
        metrics = frame.decoded_metrics()
        sealed = metrics.get("sealed")
        if sealed is None:
            return False
        self.update(origin, sealed, now)
        return True


# ----------------------------------------------------------------------
# Server side


class ServerCookieManager:
    """Builds and validates sealed cookies; holds only the key.

    Statelessness is the design point: nothing per-OD-pair is retained
    between connections — every :meth:`open_echoed` works purely from
    the client-supplied blob.
    """

    def __init__(
        self,
        key: bytes,
        staleness_delta: float = STALENESS_DELTA,
        instance_salt: bytes = b"",
    ) -> None:
        self._sealer = CookieSealer(key)
        self.staleness_delta = staleness_delta
        self._nonce_counter = 0
        self._instance_salt = instance_salt
        self.rejected_cookies = 0
        self.stale_cookies = 0

    def build_frame(self, qos: HxQos) -> HxQosFrame:
        """Sealed Hx_QoS frame to push to the client.

        The nonce mixes :attr:`_nonce_counter` with ``instance_salt``.
        The counter alone is NOT unique across processes — it starts at
        0 in every manager, so N shards sharing one deployment key would
        reuse keystreams (seal two plaintexts under the same nonce, a
        two-time pad).  Deployments running multiple managers over one
        key must give each a distinct salt (e.g. seed + shard id).
        """
        self._nonce_counter += 1
        sealed = self._sealer.seal(
            qos.encode(), nonce_seed=self._nonce_counter, salt=self._instance_salt
        )
        return HxQosFrame.from_metrics(
            min_rtt=qos.min_rtt,
            max_bw_bps=qos.max_bw_bps,
            timestamp=qos.timestamp,
            sealed=sealed,
        )

    def open_echoed(self, sealed: bytes, now: float) -> Optional[HxQos]:
        """Validate a cookie echoed in a CHLO.

        Returns the authentic Hx_QoS, or ``None`` when the blob fails
        authentication (counted in :attr:`rejected_cookies`) or fails
        the freshness window (corner case 2, counted in
        :attr:`stale_cookies`).  Freshness is two-sided: a timestamp
        older than Δ is stale, and a timestamp more than
        :data:`MAX_CLOCK_SKEW` *ahead* of the server clock is equally
        untrustworthy — without the upper bound, a future-dated blob
        (clock skew or a forged timestamp surviving from an old key)
        would pass ``now - timestamp > Δ`` forever.
        """
        try:
            plaintext = self._sealer.open(sealed)
            qos = HxQos.decode(plaintext)
        except CookieError:
            self.rejected_cookies += 1
            return None
        age = now - qos.timestamp
        if age > self.staleness_delta or age < -MAX_CLOCK_SKEW:
            self.stale_cookies += 1
            return None
        return qos
