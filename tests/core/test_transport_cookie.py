"""Tests for the transport cookie and its sealing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cookie_crypto import CookieError, CookieSealer
from repro.core.transport_cookie import (
    MAX_CLOCK_SKEW,
    ClientCookieStore,
    HxQos,
    ServerCookieManager,
    decode_hqst,
    encode_hqst,
)

KEY = b"server-secret-key-0123456789abcd"


class TestCookieSealer:
    def test_seal_open_round_trip(self):
        sealer = CookieSealer(KEY)
        blob = sealer.seal(b"min_rtt=50ms;max_bw=8mbps", nonce_seed=1)
        assert sealer.open(blob) == b"min_rtt=50ms;max_bw=8mbps"

    def test_ciphertext_hides_plaintext(self):
        sealer = CookieSealer(KEY)
        blob = sealer.seal(b"secret-qos-values", nonce_seed=1)
        assert b"secret-qos-values" not in blob

    def test_distinct_nonces_give_distinct_blobs(self):
        sealer = CookieSealer(KEY)
        a = sealer.seal(b"same", nonce_seed=1)
        b = sealer.seal(b"same", nonce_seed=2)
        assert a != b

    def test_tampering_detected(self):
        sealer = CookieSealer(KEY)
        blob = bytearray(sealer.seal(b"payload", nonce_seed=1))
        blob[14] ^= 0x01
        with pytest.raises(CookieError):
            sealer.open(bytes(blob))

    def test_forgery_with_wrong_key_detected(self):
        blob = CookieSealer(KEY).seal(b"payload", nonce_seed=1)
        other = CookieSealer(b"different-key-0123456789abcdef00")
        with pytest.raises(CookieError):
            other.open(blob)

    def test_truncated_blob_rejected(self):
        sealer = CookieSealer(KEY)
        with pytest.raises(CookieError):
            sealer.open(b"short")

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            CookieSealer(b"tiny")

    @given(st.binary(max_size=256), st.integers(min_value=0, max_value=2**60))
    def test_round_trip_property(self, plaintext, seed):
        sealer = CookieSealer(KEY)
        assert sealer.open(sealer.seal(plaintext, seed)) == plaintext


class TestHxQos:
    def test_encode_decode(self):
        qos = HxQos(min_rtt=0.050, max_bw_bps=8_000_000.0, timestamp=123.456)
        decoded = HxQos.decode(qos.encode())
        assert decoded.min_rtt == pytest.approx(0.050)
        assert decoded.max_bw_bps == 8_000_000.0
        assert decoded.timestamp == pytest.approx(123.456)

    def test_bdp(self):
        qos = HxQos(min_rtt=0.050, max_bw_bps=8_000_000.0, timestamp=0.0)
        assert qos.bdp_bytes == 50_000

    def test_validation(self):
        with pytest.raises(ValueError):
            HxQos(min_rtt=0.0, max_bw_bps=1e6, timestamp=0.0)
        with pytest.raises(ValueError):
            HxQos(min_rtt=0.05, max_bw_bps=0.0, timestamp=0.0)

    def test_malformed_payload_rejected(self):
        with pytest.raises(CookieError):
            HxQos.decode(b"\xff")


class TestHqstTag:
    def test_unsupported_client(self):
        assert decode_hqst(encode_hqst(False)) == (False, None, None)

    def test_supported_without_cookie(self):
        assert decode_hqst(encode_hqst(True)) == (True, None, None)

    def test_supported_with_cookie(self):
        supported, ts, sealed = decode_hqst(
            encode_hqst(True, received_at_ms=5_000, sealed_frame=b"blob")
        )
        assert supported and ts == 5_000 and sealed == b"blob"

    def test_empty_value(self):
        assert decode_hqst(b"") == (False, None, None)

    def test_truncated_sealed_frame_rejected(self):
        value = encode_hqst(True, 0, b"blob-blob-blob")
        with pytest.raises(CookieError):
            decode_hqst(value[:-5])

    @given(st.binary(min_size=1, max_size=200), st.integers(min_value=0, max_value=2**40))
    def test_round_trip_property(self, sealed, ts):
        assert decode_hqst(encode_hqst(True, ts, sealed)) == (True, ts, sealed)


class TestClientCookieStore:
    def test_stores_latest_per_origin(self):
        store = ClientCookieStore()
        store.update("cdn-1", b"old", 1.0)
        store.update("cdn-1", b"new", 2.0)
        assert store.get("cdn-1") == (b"new", 2.0)

    def test_origins_independent(self):
        store = ClientCookieStore()
        store.update("cdn-1", b"a", 1.0)
        store.update("cdn-2", b"b", 2.0)
        assert store.get("cdn-1") == (b"a", 1.0)
        assert store.get("cdn-2") == (b"b", 2.0)

    def test_missing_origin(self):
        assert ClientCookieStore().get("nowhere") is None

    def test_ingest_from_hx_qos_frame(self):
        manager = ServerCookieManager(KEY)
        frame = manager.build_frame(HxQos(0.05, 8e6, 10.0))
        store = ClientCookieStore()
        assert store.on_hx_qos_frame("cdn-1", frame, now=11.0)
        sealed, received_at = store.get("cdn-1")
        assert received_at == 11.0


class TestServerCookieManager:
    def test_full_cycle_server_client_server(self):
        """The §IV-B loop: measure → seal → push → echo → validate."""
        manager = ServerCookieManager(KEY)
        qos = HxQos(min_rtt=0.050, max_bw_bps=8e6, timestamp=100.0)
        frame = manager.build_frame(qos)
        sealed = frame.decoded_metrics()["sealed"]
        # Client echoes `sealed` in its next CHLO; the (stateless) server
        # recovers the authentic metrics.
        recovered = manager.open_echoed(sealed, now=200.0)
        assert recovered.min_rtt == pytest.approx(0.050)
        assert recovered.max_bw_bps == 8e6

    def test_stale_cookie_rejected(self):
        """Corner case 2: T > Δ invalidates the synchronised Hx_QoS."""
        manager = ServerCookieManager(KEY, staleness_delta=3600.0)
        frame = manager.build_frame(HxQos(0.05, 8e6, timestamp=100.0))
        sealed = frame.decoded_metrics()["sealed"]
        assert manager.open_echoed(sealed, now=100.0 + 3601.0) is None
        assert manager.stale_cookies == 1

    def test_fresh_cookie_at_delta_boundary_accepted(self):
        manager = ServerCookieManager(KEY, staleness_delta=3600.0)
        frame = manager.build_frame(HxQos(0.05, 8e6, timestamp=100.0))
        sealed = frame.decoded_metrics()["sealed"]
        assert manager.open_echoed(sealed, now=100.0 + 3599.0) is not None

    def test_fabricated_cookie_rejected(self):
        """§VII: clients cannot fabricate favourable Hx_QoS values."""
        manager = ServerCookieManager(KEY)
        fake = HxQos(min_rtt=0.001, max_bw_bps=1e9, timestamp=100.0).encode()
        assert manager.open_echoed(b"\x00" * 12 + fake + b"\x00" * 16, now=100.0) is None
        assert manager.rejected_cookies == 1

    def test_cookie_from_another_server_key_rejected(self):
        frame = ServerCookieManager(KEY).build_frame(HxQos(0.05, 8e6, 100.0))
        sealed = frame.decoded_metrics()["sealed"]
        other = ServerCookieManager(b"other-key-0123456789abcdef000000")
        assert other.open_echoed(sealed, now=100.0) is None

    def test_manager_is_stateless_across_cookies(self):
        """Opening needs nothing but the key — the storage-offload point."""
        build_manager = ServerCookieManager(KEY)
        frames = [build_manager.build_frame(HxQos(0.01 * i, 1e6 * i, 50.0)) for i in range(1, 6)]
        fresh_manager = ServerCookieManager(KEY)  # no shared state
        for i, frame in enumerate(frames, start=1):
            qos = fresh_manager.open_echoed(frame.decoded_metrics()["sealed"], now=60.0)
            assert qos.max_bw_bps == pytest.approx(1e6 * i)

    def test_future_dated_cookie_rejected(self):
        """Regression: a timestamp ahead of the server clock must not pass
        the freshness check — ``now - timestamp > delta`` is false forever
        for a future-dated blob, so it needs its own upper bound."""
        manager = ServerCookieManager(KEY, staleness_delta=3600.0)
        frame = manager.build_frame(HxQos(0.05, 8e6, timestamp=1000.0))
        sealed = frame.decoded_metrics()["sealed"]
        assert manager.open_echoed(sealed, now=100.0) is None
        assert manager.stale_cookies == 1
        assert manager.rejected_cookies == 0

    def test_small_clock_skew_tolerated(self):
        manager = ServerCookieManager(KEY)
        frame = manager.build_frame(HxQos(0.05, 8e6, timestamp=104.0))
        sealed = frame.decoded_metrics()["sealed"]
        # 4 seconds ahead of the server clock: within the allowance.
        assert manager.open_echoed(sealed, now=100.0) is not None

    def test_skew_boundary(self):
        assert MAX_CLOCK_SKEW == 5.0
        manager = ServerCookieManager(KEY)
        frame = manager.build_frame(HxQos(0.05, 8e6, timestamp=110.0))
        sealed = frame.decoded_metrics()["sealed"]
        assert manager.open_echoed(sealed, now=104.0) is None  # 6s ahead
        assert manager.open_echoed(sealed, now=105.0) is not None  # exactly 5s

    def test_trailing_garbage_in_sealed_payload_rejected(self):
        """Strict HxQos parse: the sealed plaintext is exactly 3 varints."""
        sealer = CookieSealer(KEY)
        padded = HxQos(0.05, 8e6, 100.0).encode() + b"\x00\x01"
        blob = sealer.seal(padded, nonce_seed=9)
        manager = ServerCookieManager(KEY)
        assert manager.open_echoed(blob, now=100.0) is None
        assert manager.rejected_cookies == 1


class TestNonceSalting:
    """Regression: N managers sharing one key must not share nonces."""

    def test_unsalted_managers_collide_on_nonce(self):
        """The two-time-pad hazard the instance salt exists to prevent:
        without salts, two managers' first blobs carry the same nonce."""
        a = ServerCookieManager(KEY).build_frame(HxQos(0.05, 8e6, 1.0))
        b = ServerCookieManager(KEY).build_frame(HxQos(0.09, 2e6, 2.0))
        nonce_a = a.decoded_metrics()["sealed"][:12]
        nonce_b = b.decoded_metrics()["sealed"][:12]
        assert nonce_a == nonce_b

    def test_salted_managers_never_collide(self):
        """Same key, same counter values, different salts → disjoint
        nonce sequences across every pair of shard managers."""
        managers = [
            ServerCookieManager(KEY, instance_salt=b"shard:%d" % i) for i in range(4)
        ]
        nonces = set()
        for manager in managers:
            for step in range(8):
                frame = manager.build_frame(HxQos(0.05, 8e6, float(step)))
                nonce = frame.decoded_metrics()["sealed"][:12]
                assert nonce not in nonces
                nonces.add(nonce)
        assert len(nonces) == 4 * 8

    def test_cross_shard_open(self):
        """Salting namespaces only nonce derivation: a cookie sealed by
        one salted shard opens on any other shard holding the key."""
        sealer_shard = ServerCookieManager(KEY, instance_salt=b"shard:0")
        opener_shard = ServerCookieManager(KEY, instance_salt=b"shard:1")
        frame = sealer_shard.build_frame(HxQos(0.05, 8e6, timestamp=100.0))
        sealed = frame.decoded_metrics()["sealed"]
        recovered = opener_shard.open_echoed(sealed, now=150.0)
        assert recovered is not None
        assert recovered.min_rtt == pytest.approx(0.05)

    def test_default_salt_preserves_legacy_bytes(self):
        """The default empty salt must reproduce the pre-salt blobs, so
        existing sealed cookies and recorded traces stay valid."""
        legacy = CookieSealer(KEY).seal(b"payload", nonce_seed=7)
        salted_default = CookieSealer(KEY).seal(b"payload", nonce_seed=7, salt=b"")
        assert legacy == salted_default


class TestEncodeHqstValidation:
    """Regression: a receipt time without a frame must be an error, not
    silently dropped from the wire."""

    def test_neither(self):
        assert decode_hqst(encode_hqst(True)) == (True, None, None)

    def test_both(self):
        assert decode_hqst(encode_hqst(True, 7_000, b"blob")) == (True, 7_000, b"blob")

    def test_frame_without_timestamp(self):
        supported, ts, sealed = decode_hqst(encode_hqst(True, None, b"blob"))
        assert (supported, ts, sealed) == (True, 0, b"blob")

    def test_timestamp_without_frame_raises(self):
        with pytest.raises(ValueError, match="received_at_ms"):
            encode_hqst(True, 7_000, None)

    def test_timestamp_without_frame_raises_even_unsupported(self):
        with pytest.raises(ValueError, match="received_at_ms"):
            encode_hqst(False, 7_000, None)
