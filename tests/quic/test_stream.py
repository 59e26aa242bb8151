"""Tests for stream send/receive machinery."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic.stream import RecvStream, SendStream


class TestSendStream:
    def test_chunks_come_out_in_order(self):
        s = SendStream(0)
        s.write(b"abcdefghij")
        first = s.next_chunk(4)
        second = s.next_chunk(4)
        third = s.next_chunk(4)
        assert (first.offset, first.data) == (0, b"abcd")
        assert (second.offset, second.data) == (4, b"efgh")
        assert (third.offset, third.data) == (8, b"ij")
        assert s.next_chunk(4) is None

    def test_fin_set_on_last_chunk(self):
        s = SendStream(0)
        s.write(b"abc", fin=True)
        chunk = s.next_chunk(10)
        assert chunk.fin
        assert not s.has_data_to_send()

    def test_fin_split_across_chunks(self):
        s = SendStream(0)
        s.write(b"abcdef", fin=True)
        assert not s.next_chunk(4).fin
        assert s.next_chunk(4).fin

    def test_empty_fin_chunk(self):
        s = SendStream(0)
        s.write(b"ab")
        chunk = s.next_chunk(10)
        assert not chunk.fin
        s.write(b"", fin=True)
        fin_chunk = s.next_chunk(10)
        assert fin_chunk.fin and fin_chunk.data == b""

    def test_write_after_fin_rejected(self):
        s = SendStream(0)
        s.write(b"x", fin=True)
        with pytest.raises(ValueError):
            s.write(b"y")

    def test_retransmission_takes_priority(self):
        s = SendStream(0)
        s.write(b"0123456789")
        s.next_chunk(5)  # bytes 0-4 sent
        s.on_chunk_lost(0, 5)
        chunk = s.next_chunk(10)
        assert (chunk.offset, chunk.data) == (0, b"01234")
        nxt = s.next_chunk(10)
        assert (nxt.offset, nxt.data) == (5, b"56789")

    def test_retransmission_respects_budget(self):
        s = SendStream(0)
        s.write(b"0123456789")
        s.next_chunk(10)
        s.on_chunk_lost(0, 10)
        assert s.next_chunk(4).data == b"0123"
        assert s.next_chunk(10).data == b"456789"

    def test_lost_ranges_coalesce(self):
        s = SendStream(0)
        s.write(b"0123456789")
        s.next_chunk(10)
        s.on_chunk_lost(4, 4)
        s.on_chunk_lost(0, 5)  # overlaps the first range
        chunk = s.next_chunk(100)
        assert (chunk.offset, chunk.data) == (0, b"01234567")

    def test_retransmitted_tail_regains_fin(self):
        s = SendStream(0)
        s.write(b"abcd", fin=True)
        assert s.next_chunk(10).fin
        s.on_chunk_lost(0, 4)
        assert s.next_chunk(10).fin

    def test_resend_fin(self):
        s = SendStream(0)
        s.write(b"", fin=True)
        assert s.next_chunk(10).fin
        assert not s.has_data_to_send()
        s.resend_fin()
        assert s.has_data_to_send()
        assert s.next_chunk(10).fin


class TestRecvStream:
    def test_in_order_delivery(self):
        r = RecvStream(0)
        assert r.on_frame(0, b"abc", fin=False) == b"abc"
        assert r.on_frame(3, b"def", fin=False) == b"def"
        assert r.delivered_offset == 6

    def test_out_of_order_buffered(self):
        r = RecvStream(0)
        assert r.on_frame(3, b"def", fin=False) == b""
        assert r.on_frame(0, b"abc", fin=False) == b"abcdef"

    def test_overlapping_segments(self):
        r = RecvStream(0)
        r.on_frame(0, b"abc", fin=False)
        out = r.on_frame(1, b"bcde", fin=False)
        assert out == b"de"
        assert r.delivered_offset == 5

    def test_duplicate_segments_counted(self):
        r = RecvStream(0)
        r.on_frame(0, b"abc", fin=False)
        r.on_frame(0, b"abc", fin=False)
        assert r.duplicate_bytes == 3

    def test_fin_completion(self):
        r = RecvStream(0)
        r.on_frame(0, b"abc", fin=False)
        assert not r.finished
        r.on_frame(3, b"d", fin=True)
        assert r.finished

    def test_fin_before_data(self):
        r = RecvStream(0)
        r.on_frame(3, b"d", fin=True)
        assert not r.finished
        r.on_frame(0, b"abc", fin=False)
        assert r.finished

    def test_conflicting_fin_rejected(self):
        r = RecvStream(0)
        r.on_frame(0, b"ab", fin=True)
        with pytest.raises(ValueError):
            r.on_frame(0, b"abc", fin=True)

    def test_data_past_final_size_rejected(self):
        r = RecvStream(0)
        assert r.on_frame(0, b"hello", fin=True) == b"hello"
        with pytest.raises(ValueError):
            r.on_frame(3, b"lo world", fin=False)
        assert r.delivered_offset == 5
        assert r.finished and r.buffered_bytes == 0

    def test_data_past_final_size_rejected_before_delivery(self):
        r = RecvStream(0)
        r.on_frame(3, b"lo", fin=True)  # final size 5, nothing delivered yet
        with pytest.raises(ValueError):
            r.on_frame(0, b"hello!", fin=False)
        assert r.on_frame(0, b"hel", fin=False) == b"hello"
        assert r.finished

    def test_fin_below_received_bytes_rejected(self):
        r = RecvStream(0)
        r.on_frame(4, b"world", fin=False)  # buffered behind a hole, ends at 9
        with pytest.raises(ValueError):
            r.on_frame(0, b"hell", fin=True)
        assert not r.finished
        assert r.on_frame(0, b"hell", fin=False) == b"hellworld"

    def test_data_up_to_final_size_accepted(self):
        r = RecvStream(0)
        r.on_frame(2, b"cde", fin=True)
        assert r.on_frame(0, b"abcde", fin=False) == b"abcde"
        assert r.duplicate_bytes == 0 and r.finished

    def test_empty_fin_frame(self):
        r = RecvStream(0)
        r.on_frame(0, b"abc", fin=False)
        r.on_frame(3, b"", fin=True)
        assert r.finished


@given(st.binary(min_size=1, max_size=5000), st.integers(min_value=1, max_value=700), st.data())
def test_send_recv_round_trip_with_reordering(payload, chunk_size, data):
    """Property: any chunking + delivery order reassembles exactly."""
    s = SendStream(0)
    s.write(payload, fin=True)
    chunks = []
    while True:
        chunk = s.next_chunk(chunk_size)
        if chunk is None:
            break
        chunks.append(chunk)
    order = data.draw(st.permutations(range(len(chunks))))
    r = RecvStream(0)
    received = bytearray()
    for index in order:
        chunk = chunks[index]
        received += r.on_frame(chunk.offset, chunk.data, chunk.fin)
    assert bytes(received) == payload
    assert r.finished
