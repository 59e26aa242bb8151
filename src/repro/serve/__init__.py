"""Service mode: the wire format over real localhost UDP sockets.

Everything below this package is **wall-clock territory**: sessions are
driven by ``asyncio`` against real sockets, so timings carry OS jitter
and nothing here is replay-deterministic.  That is the point: the
sim-to-socket loop is closed by measuring the *same* wire format
(varint headers, HQST tags, sealed Hx_QoS cookies, the
:mod:`repro.quic` codecs — no fork) through real I/O and comparing the
FFCT distributions against the simulator's.

Layout:

* :mod:`repro.serve.wire` — the datagram envelope framing `repro.quic`
  packets for transport over UDP, plus truncation-safe decoding.
* :mod:`repro.serve.ring` — consistent-hash ring with virtual nodes,
  keyed on OD pair.
* :mod:`repro.serve.store` — the TTL-evicting keyed store behind the
  router's flow table.
* :mod:`repro.serve.transport` — the UDP endpoint: a non-blocking
  socket on the loop's reader, batched reads, direct sends.
* :mod:`repro.serve.shard` — the proxy-shard worker process: terminates
  CHLOs, runs the simulator as its timing oracle, replays the delivery
  timeline over the socket, pushes sealed cookies.
* :mod:`repro.serve.router` — consistent-hash front router with sticky
  (chain-pinned) affinity.
* :mod:`repro.serve.driver` — the measuring client: real FLV demux,
  wall-clock FFCT, cookie echo from one client store per campaign.
* :mod:`repro.serve.loadtest` — campaign orchestration, the
  sim-vs-socket comparison, JSON/HTML reporting.

The datagram path pays per datagram only for the datagram: one
``recvfrom`` per datagram in a batch per readiness callback, one header
parse, one handler call.  The router forwards on the envelope header
and the connection id at its fixed offset, never the payload; the shard
replays each timeline as a chain of loop timers; the driver stamps the
flow and wakes its session only when the flow turns terminal or its one
stall timer fires.  No task, future or timer is made per datagram
received.
"""

from repro.serve.ring import HashRing
from repro.serve.store import BoundedKeyedStore
from repro.serve.wire import Envelope, EnvelopeError, EnvelopeKind

__all__ = [
    "BoundedKeyedStore",
    "Envelope",
    "EnvelopeError",
    "EnvelopeKind",
    "HashRing",
]
