"""The UDP endpoint: batched reads, queued sends, counted errors.

Sockets whose kernel buffers are full or that report an error are
rare on loopback, so two of these wrap a real socket in one that
refuses on cue.
"""

import asyncio
import socket

from repro.serve.transport import READ_BATCH, UdpEndpoint, open_endpoint


class _Refusing:
    """A real socket whose first sends and reads fail on cue."""

    def __init__(self, sock, send_refusals=0, recv_error=None):
        self._sock = sock
        self.send_refusals = send_refusals
        self.recv_error = recv_error

    def sendto(self, data, addr):
        if self.send_refusals:
            self.send_refusals -= 1
            raise BlockingIOError
        return self._sock.sendto(data, addr)

    def recvfrom(self, size):
        if self.recv_error is not None:
            error, self.recv_error = self.recv_error, None
            raise error
        return self._sock.recvfrom(size)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _bound_socket():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.setblocking(False)
    return sock


async def _until(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.01)


class TestReads:
    def test_a_burst_past_one_batch_arrives_whole_and_in_order(self):
        asyncio.run(self._run())

    async def _run(self):
        received = []
        endpoint = await open_endpoint(lambda data, addr: received.append(data))
        sent = [b"%d" % i for i in range(2 * READ_BATCH + 5)]
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            for data in sent:
                sender.sendto(data, endpoint.address)
            try:
                await _until(lambda: len(received) == len(sent))
            finally:
                endpoint.close()
        assert received == sent
        assert endpoint.dropped_errors == 0

    def test_a_receive_error_is_counted_and_the_read_goes_on(self):
        asyncio.run(self._error())

    async def _error(self):
        received = []
        sock = _Refusing(_bound_socket(), recv_error=ConnectionRefusedError())
        endpoint = UdpEndpoint(
            sock, lambda data, addr: received.append(data), asyncio.get_running_loop()
        )
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            sender.sendto(b"after the error", endpoint.address)
            try:
                await _until(lambda: received)
            finally:
                endpoint.close()
        assert received == [b"after the error"]
        assert endpoint.dropped_errors == 1


class TestSends:
    def test_refused_sends_queue_and_drain_in_order(self):
        asyncio.run(self._run())

    async def _run(self):
        received = []
        receiver = await open_endpoint(lambda data, addr: received.append(data))
        sock = _Refusing(_bound_socket(), send_refusals=2)
        sender = UdpEndpoint(sock, lambda data, addr: None, asyncio.get_running_loop())
        sent = [b"%d" % i for i in range(5)]
        try:
            for data in sent:
                sender.sendto(data, receiver.address)
            assert sock.send_refusals == 1  # the rest queued behind the first
            await _until(lambda: len(received) == len(sent))
        finally:
            sender.close()
            receiver.close()
        assert received == sent
        assert sender.dropped_errors == 0

    def test_close_sends_what_is_queued_before_the_socket_closes(self):
        asyncio.run(self._close_queued())

    async def _close_queued(self):
        received = []
        receiver = await open_endpoint(lambda data, addr: received.append(data))
        raw = _bound_socket()
        sender = UdpEndpoint(
            _Refusing(raw, send_refusals=1),
            lambda data, addr: None,
            asyncio.get_running_loop(),
        )
        sent = [b"%d" % i for i in range(3)]
        try:
            for data in sent:
                sender.sendto(data, receiver.address)
            sender.close()
            sender.sendto(b"after close", receiver.address)
            assert raw.fileno() != -1  # open until the queue drains
            await _until(lambda: raw.fileno() == -1)
            await _until(lambda: len(received) == len(sent))
        finally:
            raw.close()
            receiver.close()
        assert received == sent
        assert sender.dropped_errors == 0

    def test_a_closed_endpoint_sends_nothing_and_holds_no_socket(self):
        asyncio.run(self._closed())

    async def _closed(self):
        endpoint = await open_endpoint(lambda data, addr: None)
        sock = endpoint._sock
        endpoint.close()
        endpoint.close()
        assert sock.fileno() == -1
        endpoint.sendto(b"late", ("127.0.0.1", 9))
        assert endpoint.dropped_errors == 0
