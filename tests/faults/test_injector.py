"""Tests for the seeded transport fault injector.

Unit-level checks of each mutation hook, plus live faulted sessions for
every fault kind: each must complete, count its actions, and replay
byte-identically from the session seed.
"""

import random

import pytest

from repro import obs
from repro.cdn.origin import Origin
from repro.cdn.session import SessionSpec, StreamingSession
from repro.core.cookie_crypto import CookieError, CookieSealer
from repro.core.schemes import WIRA
from repro.core.transport_cookie import (
    ClientCookieStore,
    HxQos,
    ServerCookieManager,
    decode_hqst,
    encode_hqst,
)
from repro.faults import (
    HUGE_FF_SIZE,
    FaultInjector,
    FaultKind,
    FaultPlan,
    single_fault_plans,
)
from repro.media.source import StreamProfile
from repro.quic.connection import HandshakeMode
from repro.simnet.engine import EventLoop
from repro.simnet.link import Datagram
from repro.simnet.path import NetworkConditions

KEY = b"server-secret-key-0123456789abcd"

CONDITIONS = NetworkConditions(
    bandwidth_bps=8_000_000.0, rtt=0.050, loss_rate=0.0, buffer_bytes=25_000
)


def make_injector(kind, seed=7, **plan_kwargs):
    loop = EventLoop()
    plan = FaultPlan(kind, **plan_kwargs)
    return FaultInjector(plan, loop, random.Random(seed)), loop


def sample_hqst():
    qos = HxQos(min_rtt=0.05, max_bw_bps=8e6, timestamp=100.0)
    sealed = CookieSealer(KEY).seal(qos.encode(), nonce_seed=1)
    return encode_hqst(True, received_at_ms=123, sealed_frame=sealed)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(FaultKind.DATAGRAM_BITFLIP, bitflip_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(FaultKind.HANDSHAKE_DROP, handshake_drops=-1)
        with pytest.raises(ValueError):
            FaultPlan(FaultKind.HANDSHAKE_DELAY, handshake_delay=-0.1)

    def test_ff_size_override_values(self):
        assert FaultPlan(FaultKind.FF_SIZE_ZERO).ff_size_override == 0
        assert FaultPlan(FaultKind.FF_SIZE_TINY).ff_size_override == 1
        assert FaultPlan(FaultKind.FF_SIZE_HUGE).ff_size_override == HUGE_FF_SIZE
        assert FaultPlan(FaultKind.COOKIE_CORRUPT).ff_size_override is None

    def test_single_fault_plans_covers_every_kind(self):
        plans = single_fault_plans()
        assert set(plans) == {kind.value for kind in FaultKind}
        for name, plan in plans.items():
            assert plan.kind.value == name

    def test_plans_are_picklable(self):
        import pickle

        for plan in single_fault_plans().values():
            assert pickle.loads(pickle.dumps(plan)) == plan


class TestMutateHqst:
    def test_cookie_corrupt_breaks_mac(self):
        injector, _ = make_injector(FaultKind.COOKIE_CORRUPT)
        mutated = injector.mutate_hqst(sample_hqst())
        assert mutated != sample_hqst()
        assert injector.counters == {"hqst_corrupted": 1}
        # The mutated tag either fails to decode, or decodes to a sealed
        # blob that the server's MAC check must reject.
        manager = ServerCookieManager(KEY)
        try:
            _supported, _ts, sealed = decode_hqst(mutated)
        except CookieError:
            return
        assert sealed is not None
        assert manager.open_echoed(mutated, now=100.0) is None

    def test_cookie_truncate_rejected_by_codec(self):
        injector, _ = make_injector(FaultKind.COOKIE_TRUNCATE)
        mutated = injector.mutate_hqst(sample_hqst())
        assert len(mutated) < len(sample_hqst())
        assert injector.counters == {"hqst_truncated": 1}
        with pytest.raises(CookieError):
            decode_hqst(mutated)

    def test_hqst_garbage_is_invalid_bool(self):
        injector, _ = make_injector(FaultKind.HQST_GARBAGE)
        mutated = injector.mutate_hqst(sample_hqst())
        assert mutated[0] == 0x7F
        with pytest.raises(CookieError):
            decode_hqst(mutated)

    def test_cookie_faults_leave_bare_tag_alone(self):
        # A cookieless CHLO (lone Bool) has nothing to corrupt/truncate.
        for kind in (FaultKind.COOKIE_CORRUPT, FaultKind.COOKIE_TRUNCATE):
            injector, _ = make_injector(kind)
            assert injector.mutate_hqst(b"\x01") == b"\x01"
            assert injector.counters == {}

    def test_non_cookie_fault_passes_through(self):
        injector, _ = make_injector(FaultKind.DATAGRAM_BITFLIP)
        tag = sample_hqst()
        assert injector.mutate_hqst(tag) == tag


class TestWrapSend:
    def test_bitflip_marks_datagram_corrupted(self):
        injector, _ = make_injector(FaultKind.DATAGRAM_BITFLIP, bitflip_rate=1.0)
        sent = []
        sender = injector.wrap_send(lambda d: sent.append(d) or True, "to_client")
        assert sender(Datagram(b"payload" * 10, size=100, packet=object()))
        assert len(sent) == 1
        assert sent[0].corrupted
        assert sent[0].size == 100
        # The mutated copy is new bytes: the sender's parse of the old
        # ones must not ride along.
        assert sent[0].packet is None
        assert injector.counters["datagram_bitflipped"] == 1

    def test_bitflip_rate_zero_passes_through(self):
        injector, _ = make_injector(FaultKind.DATAGRAM_BITFLIP, bitflip_rate=0.0)
        sent = []
        sender = injector.wrap_send(lambda d: sent.append(d) or True, "to_server")
        original = Datagram(b"x" * 50)
        sender(original)
        assert sent == [original]
        assert injector.counters == {}

    def test_handshake_drop_eats_leading_client_datagrams_only(self):
        injector, _ = make_injector(FaultKind.HANDSHAKE_DROP, handshake_drops=2)
        sent = []
        sender = injector.wrap_send(lambda d: sent.append(d) or True, "to_server")
        outcomes = [sender(Datagram(bytes([i]))) for i in range(4)]
        assert outcomes == [False, False, True, True]
        assert [d.payload[0] for d in sent] == [2, 3]
        assert injector.counters["handshake_dropped"] == 2

    def test_handshake_faults_do_not_touch_server_to_client(self):
        for kind in (FaultKind.HANDSHAKE_DROP, FaultKind.HANDSHAKE_DELAY):
            injector, _ = make_injector(kind)
            send = lambda d: True
            assert injector.wrap_send(send, "to_client") is send

    def test_handshake_delay_defers_via_loop(self):
        injector, loop = make_injector(
            FaultKind.HANDSHAKE_DELAY, handshake_delay_count=1, handshake_delay=0.25
        )
        sent_at = []
        sender = injector.wrap_send(lambda d: sent_at.append(loop.now) or True, "to_server")
        assert sender(Datagram(b"late"))
        assert sender(Datagram(b"ontime"))
        assert sent_at == [0.0]  # only the second went straight through
        loop.run()
        assert sent_at == [0.0, pytest.approx(0.25)]
        assert injector.counters["handshake_delayed"] == 1


class TestTraceBusEvents:
    def test_mutations_emit_fault_injected_events(self):
        with obs.tracing() as bus:
            injector, _ = make_injector(FaultKind.COOKIE_TRUNCATE)
            injector.mutate_hqst(sample_hqst())
        assert bus.counts.get("fault:injected") == 1
        event = bus.ring[-1]
        assert event[1] == "fault:injected"
        assert event[3]["kind"] == "cookie_truncate"
        assert event[3]["action"] == "hqst_truncated"

    def test_silent_without_bus(self, monkeypatch):
        monkeypatch.setattr(obs, "ACTIVE", None)  # even under WIRA_TRACE=1
        injector, _ = make_injector(FaultKind.HQST_GARBAGE)
        injector.mutate_hqst(sample_hqst())
        assert injector.counters == {"hqst_garbage": 1}


# ---------------------------------------------------------------------------
# Live faulted sessions: every kind completes and replays deterministically.


def make_origin(seed=1):
    origin = Origin()
    origin.add_stream(
        "demo",
        StreamProfile(first_frame_target_bytes=66_000, seed=seed,
                      complexity_sigma=0.02, size_jitter=0.02),
    )
    return origin


def run_faulted(plan, seed=3, scheme=WIRA):
    store = ClientCookieStore()
    manager = ServerCookieManager(KEY)
    origin = make_origin()
    prime_spec = SessionSpec(
        conditions=CONDITIONS,
        scheme=scheme,
        handshake_mode=HandshakeMode.ZERO_RTT,
        seed=seed,
    )
    prime = StreamingSession(
        prime_spec, origin, "demo", cookie_store=store, cookie_manager=manager
    ).run()
    assert prime.completed
    result = StreamingSession(
        prime_spec.with_(seed=seed + 1, epoch=5.0, fault_plan=plan),
        origin,
        "demo",
        cookie_store=store,
        cookie_manager=manager,
    ).run()
    return result


@pytest.mark.parametrize("name,plan", sorted(single_fault_plans().items()))
def test_every_fault_kind_completes_under_load(name, plan):
    result = run_faulted(plan)
    assert result.completed, f"fault {name} broke the session"
    assert result.ffct is not None
    assert result.fault_summary is not None
    if name.startswith("ff_size"):
        assert result.fault_summary.get("ff_size_overridden") == 1
    elif name.startswith("handshake"):
        assert sum(result.fault_summary.values()) >= 1
    elif name == "datagram_bitflip":
        # 2% of datagrams; a short session may legitimately flip none,
        # but the summary dict must still be attached.
        assert all(v >= 0 for v in result.fault_summary.values())
    else:
        assert sum(result.fault_summary.values()) == 1


@pytest.mark.parametrize("name", ["cookie_corrupt", "cookie_truncate", "hqst_garbage"])
def test_cookie_faults_deny_the_cookie_fast_path(name):
    plan = single_fault_plans()[name]
    result = run_faulted(plan)
    assert result.completed
    assert not result.used_cookie


def test_fault_plan_replays_byte_identically():
    """The session seed fully determines the fault realisation."""
    plan = FaultPlan(FaultKind.DATAGRAM_BITFLIP, bitflip_rate=0.1)
    a = run_faulted(plan, seed=11)
    b = run_faulted(plan, seed=11)
    assert a.ffct == b.ffct
    assert a.fault_summary == b.fault_summary
    assert a.final_server_stats == b.final_server_stats
    c = run_faulted(plan, seed=12)
    assert (a.ffct, a.fault_summary) != (c.ffct, c.fault_summary)
