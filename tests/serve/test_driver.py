"""The serve driver's receive path: reassembly by offset, garbage dropped."""

import asyncio

from repro.media import flv
from repro.serve import protocol
from repro.serve.driver import ServeDriver, _Flow
from repro.serve.wire import EnvelopeKind, encode_envelope

CID = bytes(range(8))
PEER = ("127.0.0.1", 9)

#: A header and three video tags, 100-byte pieces apart.
STREAM = flv.file_header() + b"".join(
    flv.encode_tag(flv.TAG_VIDEO, 40 * i, bytes([0x27]) + bytes(150)) for i in range(3)
)


def _deliver(driver, offset, data, fin=False):
    packet = protocol.build_stream_packet(
        CID, 1, protocol.REQUEST_STREAM, offset, data, fin=fin
    )
    driver._on_datagram(encode_envelope(EnvelopeKind.DATA, b"", packet.encode()), PEER)


class TestReassembly:
    def test_out_of_order_duplicate_and_resent_data(self):
        asyncio.run(self._run())

    async def _run(self):
        driver = ServeDriver(PEER, campaign_seed=0)
        flow = _Flow(connection_id=CID, shlo=asyncio.get_running_loop().create_future())
        driver._flows[CID] = flow
        pieces = [(at, STREAM[at : at + 100]) for at in range(0, len(STREAM), 100)]
        last_at, last = pieces[-1]

        # The tail (with the FIN) and a middle piece overtake the head.
        _deliver(driver, last_at, last, fin=True)
        _deliver(driver, *pieces[2])
        _deliver(driver, *pieces[2])  # duplicate
        assert flow.stream.delivered_offset == 0
        assert flow.stream.buffered_bytes == len(last) + 100
        assert flow.frame_times == []

        _deliver(driver, *pieces[0])
        assert flow.stream.delivered_offset == 100
        # A RESEND answer repeats everything from the gap on.
        for at, data in pieces[1:-1]:
            _deliver(driver, at, data)
        _deliver(driver, last_at, last, fin=True)

        assert flow.stream.finished
        assert flow.stream.buffered_bytes == 0
        assert flow.bytes_received == len(STREAM)
        assert len(flow.frame_times) == 3
        assert driver.stats["undecodable"] == 0

        # A FIN contradicting the first is dropped and counted.
        _deliver(driver, len(STREAM) + 5, b"", fin=True)
        assert driver.stats["undecodable"] == 1
        assert flow.stream.finished
