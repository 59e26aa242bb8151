"""The UDP endpoint shared by shard, router, driver and control client.

One :class:`UdpEndpoint` owns one bound, non-blocking socket and
registers it with the running loop directly (``loop.add_reader``), with
no asyncio transport or protocol in between.  Per readiness callback it
reads datagrams until the socket would block, at most
:data:`READ_BATCH` of them so one busy socket cannot starve the rest of
the loop, and hands each to the handler: one ``recvfrom`` and one
handler call per datagram.

Sends go straight to ``sendto``.  A send the kernel refuses with
``EAGAIN`` is queued and the queue drains in order once the socket is
writable, as asyncio's datagram transport does, so a full send buffer
delays datagrams and drops none.  :meth:`UdpEndpoint.close` stops reads
and new sends at once but, again like asyncio, closes the socket only
once the queue has drained.  Any other socket error is counted in
:attr:`UdpEndpoint.dropped_errors` and the endpoint keeps serving.
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import Callable, Deque, Optional, Tuple

Address = Tuple[str, int]
DatagramHandler = Callable[[bytes, Address], None]

#: Socket receive buffer request.  Replayed media bursts can land many
#: 30 KB datagrams back-to-back; the kernel default (often 212 KB) drops
#: under a 10k-session load.  Best effort — the kernel may clamp it.
RCVBUF_BYTES = 8 * 1024 * 1024

#: Largest IPv4 datagram: every UDP payload fits one read of this size.
MAX_DATAGRAM_BYTES = 65_535

#: Datagrams read per readiness callback before yielding to the loop.
READ_BATCH = 64


class UdpEndpoint:
    """One bound UDP socket dispatching datagrams to a handler."""

    def __init__(
        self,
        sock: socket.socket,
        handler: DatagramHandler,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self._sock: Optional[socket.socket] = sock
        self._handler = handler
        self._loop = loop
        self._backlog: Deque[Tuple[bytes, Address]] = deque()
        self._closing = False
        host, port = sock.getsockname()[:2]
        self.address: Address = (str(host), int(port))
        #: Datagrams lost to socket errors (ICMP unreachable and the like)
        #: on either direction.
        self.dropped_errors = 0
        loop.add_reader(sock.fileno(), self._on_readable)

    def _on_readable(self) -> None:
        sock = self._sock
        if sock is None or self._closing:
            return
        handler = self._handler
        for _ in range(READ_BATCH):
            try:
                data, addr = sock.recvfrom(MAX_DATAGRAM_BYTES)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.dropped_errors += 1
                continue
            handler(data, addr)
            if self._closing:  # the handler closed the endpoint
                return

    def sendto(self, data: bytes, addr: Address) -> None:
        sock = self._sock
        if sock is None or self._closing:
            return  # closed: dropped
        if self._backlog:
            self._backlog.append((data, addr))
            return
        try:
            sock.sendto(data, addr)
        except (BlockingIOError, InterruptedError):
            self._backlog.append((data, addr))
            self._loop.add_writer(sock.fileno(), self._on_writable)
        except OSError:
            self.dropped_errors += 1

    def _on_writable(self) -> None:
        sock = self._sock
        assert sock is not None
        backlog = self._backlog
        while backlog:
            data, addr = backlog[0]
            try:
                sock.sendto(data, addr)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.dropped_errors += 1
            backlog.popleft()
        self._loop.remove_writer(sock.fileno())
        if self._closing:
            self._close_socket()

    def close(self) -> None:
        """Stop reading and sending; the socket closes once the queue drains."""
        sock = self._sock
        if sock is None or self._closing:
            return
        self._closing = True
        self._loop.remove_reader(sock.fileno())
        if not self._backlog:
            self._close_socket()

    def _close_socket(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()


async def open_endpoint(
    handler: DatagramHandler, host: str = "127.0.0.1", port: int = 0
) -> UdpEndpoint:
    """Bind a UDP socket (port 0 = ephemeral) with a boosted rcvbuf."""
    loop = asyncio.get_running_loop()
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF_BYTES)
        except OSError:
            pass
        sock.bind((host, port))
        sock.setblocking(False)
        return UdpEndpoint(sock, handler, loop)
    except BaseException:
        sock.close()
        raise


__all__ = [
    "Address",
    "DatagramHandler",
    "MAX_DATAGRAM_BYTES",
    "RCVBUF_BYTES",
    "READ_BATCH",
    "UdpEndpoint",
    "open_endpoint",
]
