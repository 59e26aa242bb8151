"""The scheme-plugin registry: specs, the Table I constants, policies."""

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
    display_name,
    eval_schemes,
    get_def,
    make_policy,
    register,
    scheme_names,
    transport_quic_config,
)
from repro.core.transport_cookie import HxQos

CONFIG = WiraConfig()
HX = HxQos(min_rtt=0.050, max_bw_bps=8e6, timestamp=0.0)


class TestSchemeSpec:
    def test_bare_value_round_trip(self):
        spec = SchemeSpec("wira")
        assert spec.value == "wira"
        assert SchemeSpec.parse("wira") == spec

    def test_parameterized_value_is_canonical_json(self):
        a = SchemeSpec("adaptive", params=(("q", 0.5), ("history", 8)))
        b = SchemeSpec("adaptive", params=(("history", 8), ("q", 0.5)))
        assert a.value == b.value  # params sort canonically
        assert SchemeSpec.parse(a.value) == a
        assert a.param("q") == 0.5
        assert a.param("missing", 7) == 7

    def test_json_round_trip(self):
        spec = SchemeSpec("adaptive", params=(("q", 0.25),))
        assert SchemeSpec.from_json(spec.to_json()) == spec

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec("")
        with pytest.raises(ValueError):
            SchemeSpec("bad name")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec("wira", params=(("k", object()),))
        with pytest.raises(ValueError):
            SchemeSpec("wira", params=(("k", 1), ("k", 2)))

    def test_pickle_round_trip(self):
        spec = SchemeSpec("adaptive", params=(("q", 0.5),))
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

    def test_parameterized_spec_not_equal_to_bare(self):
        assert SchemeSpec("adaptive", params=(("q", 0.5),)) != as_spec("adaptive")


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
        with pytest.raises(ValueError):
            as_spec("not_a_scheme")
        with pytest.raises(TypeError):
            as_spec(7)

    def test_display_names_come_from_registry(self):
        assert display_name("wira_ff") == "Wira(FF)"
        assert display_name(WIRA_HX) == "Wira(Hx)"

    def test_spec_properties_delegate_to_registry(self):
        assert WIRA.uses_frame_perception == get_def("wira").uses_frame_perception
        assert BASELINE.uses_transport_cookie is False

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
        qc = make_policy("wira_ar").quic_config()
        assert qc is not None
        assert qc.loss_packet_threshold == 2
        assert qc.pto_probe_count == 4
        assert qc.pto_backoff == 1.5

    def test_spec_params_override_transport_defaults(self):
        spec = SchemeSpec("wira_ar", params=(("pto_probe_count", 6),))
        qc = make_policy(spec).quic_config()
        assert qc is not None and qc.pto_probe_count == 6

    def test_transport_quic_config_none_without_transport_keys(self):
        assert transport_quic_config({}) is None
        assert transport_quic_config({"q": 0.5}) is None

    def test_transport_quic_config_cc_params_prefix(self):
        qc = transport_quic_config({"cc": "bbrv2", "cc.beta": 0.8})
        assert qc is not None
        assert qc.congestion_controller == "bbrv2"
        assert qc.cc_params == (("beta", 0.8),)


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
