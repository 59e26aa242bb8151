"""Stream send/receive machinery.

``SendStream`` hands out in-order STREAM frames for packetisation — the
frame it returns is the one the packet carries — and re-queues ranges
when packets are declared lost.
``RecvStream`` reassembles out-of-order STREAM frames and surfaces the
contiguous prefix to the application — which, at the Wira client, is the
FLV demuxer measuring first-frame completion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.quic.frames import StreamFrame


class SendStream:
    """Sender half of one stream.

    Fresh application bytes live in ``_buffer``; ranges from lost packets
    go to ``_retransmit`` and take priority, since first-frame recovery
    latency dominates high-percentile FFCT (§II-B).
    """

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self._buffer = bytearray()
        self._buffer_base = 0  # stream offset of _buffer[0]
        self._next_offset = 0  # next fresh byte to send
        self._fin_offset: Optional[int] = None
        self._fin_sent = False
        self._retransmit: List[Tuple[int, int]] = []  # (offset, length) pairs
        self.bytes_written = 0

    def write(self, data: bytes, fin: bool = False) -> None:
        """Append application data; ``fin`` marks the final byte."""
        if self._fin_offset is not None:
            raise ValueError("stream already finished")
        self._buffer += data
        self.bytes_written += len(data)
        if fin:
            self._fin_offset = self._buffer_base + len(self._buffer)

    def has_data_to_send(self) -> bool:
        if self._retransmit:
            return True
        if self._next_offset < self._buffer_base + len(self._buffer):
            return True
        return self._fin_offset is not None and not self._fin_sent

    def next_chunk(self, max_bytes: int) -> Optional[StreamFrame]:
        """The STREAM frame to transmit next, at most ``max_bytes`` of data."""
        if max_bytes <= 0:
            return None
        if self._retransmit:
            offset, length = self._retransmit[0]
            take = min(length, max_bytes)
            data = self._slice(offset, take)
            if take == length:
                self._retransmit.pop(0)
            else:
                self._retransmit[0] = (offset + take, length - take)
            fin = self._fin_offset is not None and offset + take == self._fin_offset
            return StreamFrame(self.stream_id, offset, data, fin)

        available = self._buffer_base + len(self._buffer) - self._next_offset
        if available <= 0:
            if self._fin_offset is not None and not self._fin_sent:
                self._fin_sent = True
                return StreamFrame(self.stream_id, self._next_offset, b"", True)
            return None
        take = min(available, max_bytes)
        data = self._slice(self._next_offset, take)
        offset = self._next_offset
        self._next_offset += take
        fin = self._fin_offset is not None and self._next_offset == self._fin_offset
        if fin:
            self._fin_sent = True
        return StreamFrame(self.stream_id, offset, data, fin)

    def on_chunk_lost(self, offset: int, length: int) -> None:
        """Re-queue a byte range carried by a lost packet."""
        if length <= 0:
            return
        self._retransmit.append((offset, length))
        self._retransmit.sort()
        self._coalesce()

    def resend_fin(self) -> None:
        """Re-arm the FIN after an empty FIN-only frame was lost."""
        self._fin_sent = False

    def _coalesce(self) -> None:
        merged: List[Tuple[int, int]] = []
        for offset, length in self._retransmit:
            if merged and offset <= merged[-1][0] + merged[-1][1]:
                last_offset, last_length = merged[-1]
                end = max(last_offset + last_length, offset + length)
                merged[-1] = (last_offset, end - last_offset)
            else:
                merged.append((offset, length))
        self._retransmit = merged

    def _slice(self, offset: int, length: int) -> bytes:
        start = offset - self._buffer_base
        if start < 0:
            raise ValueError(f"offset {offset} already discarded")
        return bytes(self._buffer[start : start + length])


class RecvStream:
    """Receiver half of one stream: reassembly plus completion tracking."""

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        # Segments past a hole.  Every one starts past the delivered
        # offset: a drain takes each one it reaches.
        self._segments: Dict[int, bytes] = {}
        self._delivered = 0  # contiguous prefix length handed to app
        self._fin_offset: Optional[int] = None
        self._received_end = 0  # highest stream offset any frame reached
        self.bytes_received = 0
        self.duplicate_bytes = 0

    @property
    def delivered_offset(self) -> int:
        return self._delivered

    @property
    def finished(self) -> bool:
        return self._fin_offset is not None and self._delivered >= self._fin_offset

    @property
    def buffered_bytes(self) -> int:
        """Bytes held past the delivered offset, waiting on a hole."""
        return sum(len(data) for data in self._segments.values())

    def on_frame(self, offset: int, data: bytes, fin: bool) -> bytes:
        """Ingest a STREAM frame; returns newly contiguous bytes.

        A frame that contradicts the stream's final size (RFC 9000's
        FINAL_SIZE_ERROR) raises ``ValueError`` before it touches the
        stream: a FIN at another offset than an earlier FIN or below
        bytes already received, or data ending past a known final size.
        """
        end = offset + len(data)
        if fin:
            if self._fin_offset is not None and self._fin_offset != end:
                raise ValueError("conflicting FIN offsets")
            if end < self._received_end:
                raise ValueError("FIN below bytes already received")
            self._fin_offset = end
        elif self._fin_offset is not None and end > self._fin_offset:
            raise ValueError("data past the final size")
        if end > self._received_end:
            self._received_end = end
        if data:
            self.bytes_received += len(data)
            if offset == self._delivered and not self._segments:
                # In order with nothing buffered: the frame's own bytes
                # are the newly contiguous bytes.
                self._delivered += len(data)
                return data
            if offset + len(data) <= self._delivered:
                self.duplicate_bytes += len(data)
            else:
                existing = self._segments.get(offset)
                if existing is None or len(existing) < len(data):
                    self._segments[offset] = data
                    if offset <= self._delivered:
                        # Only this segment can close the hole: every
                        # other one starts past the delivered offset.
                        return self._drain()
                else:
                    self.duplicate_bytes += len(data)
        return b""

    def _drain(self) -> bytes:
        segments = self._segments
        out = bytearray()
        for offset in sorted(segments):
            if offset > self._delivered:
                break
            data = segments.pop(offset)
            fresh = data[self._delivered - offset :]
            out += fresh
            self._delivered += len(fresh)
        return bytes(out)
