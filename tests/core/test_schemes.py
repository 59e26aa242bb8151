"""The scheme-plugin registry: specs, the Table I constants, policies."""

import dataclasses
import pickle

import pytest

from repro.core.config import WiraConfig
from repro.core.initializer import InitialParams, table1_params
from repro.core.schemes import (
    BASELINE,
    STATIC_10,
    WIRA,
    WIRA_FF,
    WIRA_HX,
    InitContext,
    InitPolicy,
    SchemeDef,
    SchemeSpec,
    as_spec,
    eval_schemes,
    get_def,
    make_policy,
    register,
    scheme_names,
)
from repro.core.transport_cookie import HxQos

CONFIG = WiraConfig()
HX = HxQos(min_rtt=0.050, max_bw_bps=8e6, timestamp=0.0)


class TestSchemeSpec:
    def test_bare_value_round_trip(self):
        spec = SchemeSpec("wira")
        assert spec.value == "wira"
        assert as_spec(spec.value) == spec
        assert [f.name for f in dataclasses.fields(SchemeSpec)] == ["name"]

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec("")
        with pytest.raises(ValueError):
            SchemeSpec("bad name")

    def test_pickle_round_trip(self):
        spec = SchemeSpec("adaptive")
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestValueEquality:
    """Specs and value strings compare and hash by canonical value."""

    def test_spec_equals_spec_and_string(self):
        assert as_spec("wira") == WIRA
        assert as_spec("wira") == "wira"
        assert as_spec("wira") != BASELINE

    def test_dict_interop_both_directions(self):
        by_string = {"wira": 1}
        assert by_string[WIRA] == 1
        by_spec = {WIRA: 2}
        assert by_spec["wira"] == 2

    def test_set_equality(self):
        assert {as_spec("wira"), as_spec("baseline")} == {"wira", "baseline"}


class TestRegistry:
    def test_builtins_registered_in_order(self):
        names = scheme_names()
        assert names[:5] == ("baseline", "wira_ff", "wira_hx", "wira", "static_10")
        assert {"adaptive", "wira_bbr2", "wira_ar"} <= set(names)

    def test_constants_are_the_table1_rows_in_registration_order(self):
        constants = (BASELINE, WIRA_FF, WIRA_HX, WIRA, STATIC_10)
        assert tuple(c.value for c in constants) == scheme_names()[:5]
        assert set(eval_schemes()) <= set(constants)

    def test_eval_schemes_are_the_headline_four(self):
        assert [s.value for s in eval_schemes()] == [
            "baseline",
            "wira_ff",
            "wira_hx",
            "wira",
        ]

    def test_as_spec_rejects_unknown(self):
        """A scheme is a registered bare name and nothing else."""
        for text in ("not_a_scheme", "wira?{}", 'adaptive?{"q":0.5}', 'wira?{"cc":"nope"}'):
            with pytest.raises(ValueError):
                as_spec(text)
        with pytest.raises(TypeError):
            as_spec(7)

    def test_display_names_come_from_registry(self):
        assert as_spec("wira_ff").display_name == "Wira(FF)"
        assert WIRA_HX.display_name == "Wira(Hx)"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register(get_def("wira"))


class TestPolicies:
    def test_legacy_policies_match_table1(self):
        ctx = InitContext(config=CONFIG, ff_size=66_000, hx_qos=HX)
        for name in ("baseline", "wira_ff", "wira_hx", "wira", "static_10"):
            assert make_policy(name).initial_params(ctx) == table1_params(
                name, CONFIG, ff_size=66_000, hx_qos=HX
            )

    def test_legacy_policies_carry_no_transport_config(self):
        for name in ("baseline", "wira_ff", "wira_hx", "wira", "static_10"):
            assert make_policy(name).quic_config() is None

    def test_wira_bbr2_selects_bbrv2(self):
        qc = make_policy("wira_bbr2").quic_config()
        assert qc is not None and qc.congestion_controller == "bbrv2"

    def test_wira_ar_tightens_recovery(self):
        policy = make_policy("wira_ar")
        qc = policy.quic_config()
        assert qc is not None
        assert qc.loss_packet_threshold == 2
        assert qc.loss_time_factor == 1.0
        assert qc.pto_probe_count == 4
        assert qc.pto_backoff == 1.5
        # A config is mutable: every session gets its own.
        assert policy.quic_config() is not qc


class _FixedPolicy(InitPolicy):
    """Minimal third-party plugin: a constant window and rate."""

    __slots__ = ()

    def initial_params(self, ctx):
        return InitialParams(
            cwnd_bytes=32 * 1280,
            pacing_bps=4e6,
            used_ff_size=False,
            used_hx_qos=False,
            provisional=False,
        )


class TestOpenRegistration:
    def test_plugin_scheme_runs_a_real_session(self):
        """A scheme registered from outside flows through the session
        engine with zero engine edits — the point of the open API."""
        name = "fixed_test_plugin"
        if name not in scheme_names():
            register(
                SchemeDef(
                    name=name,
                    display_name="Fixed(Test)",
                    factory=lambda spec, seed: _FixedPolicy(spec, seed),
                )
            )
        from repro.cdn.origin import Origin
        from repro.cdn.session import SessionSpec, StreamingSession
        from repro.media.source import StreamProfile
        from repro.quic.connection import HandshakeMode
        from repro.simnet.path import NetworkConditions

        origin = Origin()
        origin.add_stream("s", StreamProfile(seed=5))
        result = StreamingSession(
            SessionSpec(
                conditions=NetworkConditions(
                    bandwidth_bps=8e6, rtt=0.05, loss_rate=0.0, buffer_bytes=25_000
                ),
                scheme=as_spec(name),
                handshake_mode=HandshakeMode.ONE_RTT,
                seed=1,
                target_video_frames=4,
            ),
            origin,
            "s",
        ).run()
        assert result.completed
        assert result.scheme == name
        assert result.initial_params is not None
        assert result.initial_params.cwnd_bytes == 32 * 1280
