"""Open scheme-plugin registry (the frontier beyond Table I).

Schemes are dispatched through a string-keyed registry, so new ones
plug in without editing the core:

* :class:`SchemeSpec` — a canonical-JSON-serializable scheme reference
  (``name`` plus optional scalar ``params``) that travels through
  ``SessionSpec``, ``FleetConfig``, the robustness matrix, and the serve
  wire's ``WSPC`` tag.  Specs and plain value strings compare and hash
  equal when they denote the same scheme, so either keys the same
  records.
* :class:`InitPolicy` — the plugin protocol.  ``initial_params(ctx)``
  computes the connection's initial window/rate from the signals Wira
  gathered; ``observe(result)`` is an optional feedback hook the
  deployment replay calls after every finished session of a chain, which
  is what lets the online per-OD adaptive initializer learn;
  ``quic_config()`` lets a scheme select its transport stack (e.g. a
  BBRv2-style controller or AutoRec-style recovery knobs) with zero
  session-code edits.
* :func:`register` / :func:`as_spec` / :func:`make_policy` — the
  registry surface the engines use.

The five Table I schemes are registered here as stateless policies over
:func:`repro.core.initializer.table1_params` and named by the module
constants :data:`BASELINE`, :data:`WIRA_FF`, :data:`WIRA_HX`,
:data:`WIRA` and :data:`STATIC_10`; their outputs are pinned by the
golden digests in ``tests/experiments/test_scheme_parity.py``.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.core.config import WiraConfig
from repro.core.transport_cookie import HxQos

if TYPE_CHECKING:
    from repro.cdn.session import SessionResult
    from repro.core.initializer import InitialParams
    from repro.quic.config import QuicConfig

#: Version of the serialized spec layout (``SchemeSpec.to_json``).
SCHEME_SPEC_SCHEMA_VERSION = 1

#: JSON-scalar parameter value.
ParamValue = Union[str, int, float, bool, None]

#: Canonical parameter storage: sorted ``(key, value)`` pairs.
Params = Tuple[Tuple[str, ParamValue], ...]

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _canonical_params(params: object) -> Params:
    """Normalize a params mapping/pair-iterable to the sorted tuple form."""
    if isinstance(params, Mapping):
        items = list(params.items())
    else:
        items = [(k, v) for k, v in params]  # type: ignore[union-attr]
    seen: Dict[str, ParamValue] = {}
    for key, value in items:
        if not isinstance(key, str) or not key:
            raise ValueError(f"scheme param keys must be non-empty strings, got {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise ValueError(
                f"scheme param {key!r} must be a JSON scalar, got {type(value).__name__}"
            )
        if key in seen:
            raise ValueError(f"duplicate scheme param {key!r}")
        seen[key] = value
    return tuple(sorted(seen.items()))


@dataclass(frozen=True, eq=False)
class SchemeSpec:
    """A serializable reference to a registered scheme.

    ``value`` is the canonical string form: the bare ``name`` when there
    are no params (the form on the wire and in every cache/checkpoint
    key), else ``name?{...}`` with the params as canonical JSON.
    Equality and hashing go through that string so a spec and the plain
    value string are interchangeable as dict keys.
    """

    name: str
    params: Params = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"invalid scheme name {self.name!r}")
        object.__setattr__(self, "params", _canonical_params(self.params))

    # -- canonical string form --------------------------------------------

    @property
    def value(self) -> str:
        if not self.params:
            return self.name
        blob = json.dumps(dict(self.params), sort_keys=True, separators=(",", ":"))
        return f"{self.name}?{blob}"

    @classmethod
    def parse(cls, text: str) -> "SchemeSpec":
        """Inverse of :attr:`value` (``name`` or ``name?{json params}``)."""
        name, sep, blob = text.partition("?")
        if not sep:
            return cls(name)
        try:
            payload = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed scheme params in {text!r}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"scheme params must be a JSON object, got {blob!r}")
        return cls(name, _canonical_params(payload))

    # -- JSON spec form (schema-versioned) --------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": SCHEME_SPEC_SCHEMA_VERSION,
            "name": self.name,
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "SchemeSpec":
        schema = payload.get("schema", SCHEME_SPEC_SCHEMA_VERSION)
        if schema != SCHEME_SPEC_SCHEMA_VERSION:
            raise ValueError(f"unsupported scheme spec schema {schema!r}")
        name = payload.get("name")
        if not isinstance(name, str):
            raise ValueError("scheme spec needs a string 'name'")
        params = payload.get("params", {})
        return cls(name, _canonical_params(params))

    # -- convenience -------------------------------------------------------

    def param(self, key: str, default: ParamValue = None) -> ParamValue:
        for k, v in self.params:
            if k == key:
                return v
        return default

    @property
    def display_name(self) -> str:
        base = get_def(self.name).display_name
        if not self.params:
            return base
        blob = json.dumps(dict(self.params), sort_keys=True, separators=(",", ":"))
        return f"{base} {blob}"

    @property
    def uses_frame_perception(self) -> bool:
        return get_def(self.name).uses_frame_perception

    @property
    def uses_transport_cookie(self) -> bool:
        return get_def(self.name).uses_transport_cookie

    # -- value equality ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SchemeSpec):
            return self.value == other.value
        if isinstance(other, str):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"SchemeSpec({self.value!r})"


#: Anything the engines accept where a scheme is expected.
SchemeLike = Union[SchemeSpec, str]


@dataclass(frozen=True)
class InitContext:
    """The signals available when initial parameters are computed.

    The deployment config, the parsed ``FF_Size`` (``None`` while the
    parser is still running — corner case 1), the validated ``Hx_QoS``
    cookie (``None`` when absent or stale — corner case 2), and the
    measured handshake RTT for 1-RTT connections.
    """

    config: WiraConfig
    ff_size: Optional[int] = None
    hx_qos: Optional[HxQos] = None
    measured_rtt: Optional[float] = None


class InitPolicy(abc.ABC):
    """One scheme's behaviour: initial parameters plus optional feedback.

    A policy instance lives for one OD pair's session chain.  The
    engines call :meth:`initial_params` (possibly twice per session —
    the provisional corner case) and :meth:`observe` once per finished
    session, in chain order.  ``initial_params`` must be a pure read of
    ``(policy state, ctx)``: only ``observe`` may mutate state, so the
    provisional second call cannot change what a chain learns.
    """

    __slots__ = ("spec", "seed")

    def __init__(self, spec: SchemeSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed

    @abc.abstractmethod
    def initial_params(self, ctx: InitContext) -> "InitialParams":
        """Table-I-style initial window/rate for one connection."""

    def observe(self, result: "SessionResult") -> None:
        """Feedback hook: one finished session of this policy's chain."""

    def quic_config(self) -> Optional["QuicConfig"]:
        """Transport stack override (CC / recovery), or ``None`` for default."""
        return None

    def state_digest(self) -> str:
        """Hex digest of mutable policy state ('' for stateless policies)."""
        return ""


@dataclass(frozen=True)
class SchemeDef:
    """One registry entry.

    ``factory(spec, seed)`` builds the per-chain policy.  ``headline``
    marks membership in the default evaluation set (the order of
    registration fixes scheme ordering everywhere — figures, fleet
    reports, robustness matrices).
    """

    name: str
    display_name: str
    factory: Callable[[SchemeSpec, int], InitPolicy]
    uses_frame_perception: bool = False
    uses_transport_cookie: bool = False
    headline: bool = False


_REGISTRY: Dict[str, SchemeDef] = {}


def register(defn: SchemeDef, replace: bool = False) -> SchemeDef:
    """Add a scheme to the registry (``replace=True`` to re-register)."""
    SchemeSpec(defn.name)  # validates the name
    if defn.name in _REGISTRY and not replace:
        raise ValueError(f"scheme {defn.name!r} is already registered")
    _REGISTRY[defn.name] = defn
    return defn


def get_def(name: str) -> SchemeDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown scheme {name!r} (registered: {known})") from None


def scheme_names() -> Tuple[str, ...]:
    """All registered scheme names, in registration order."""
    return tuple(_REGISTRY)


def eval_schemes() -> Tuple[SchemeSpec, ...]:
    """The headline evaluation set, in registration order."""
    return tuple(SchemeSpec(d.name) for d in _REGISTRY.values() if d.headline)


def as_spec(scheme: SchemeLike) -> SchemeSpec:
    """Normalize a spec or its value string to a spec.

    Raises ``ValueError`` for unknown scheme names, making this the one
    validation point for every external surface (fleet config, serve
    wire, CLIs).
    """
    if isinstance(scheme, SchemeSpec):
        spec = scheme
    elif isinstance(scheme, str):
        spec = SchemeSpec.parse(scheme)
    else:
        raise TypeError(f"not a scheme: {scheme!r}")
    get_def(spec.name)  # validates registration
    return spec


def make_policy(scheme: SchemeLike, seed: int = 0) -> InitPolicy:
    """Build the per-chain policy instance for a scheme."""
    spec = as_spec(scheme)
    return get_def(spec.name).factory(spec, seed)


# ---------------------------------------------------------------------------
# Built-in policies
# ---------------------------------------------------------------------------


class TableIPolicy(InitPolicy):
    """A stateless Table I scheme, optionally with a transport override.

    ``base`` names the Table I row to compute (§IV-C); ``transport``
    holds default transport params (cc name, recovery knobs) that spec
    params may override.  The five paper schemes use this directly; the
    BBRv2 and AutoRec frontier schemes are Wira's Table I row composed
    with a non-default transport stack.
    """

    __slots__ = ("base", "transport")

    def __init__(
        self,
        spec: SchemeSpec,
        seed: int = 0,
        base: Optional[str] = None,
        transport: Params = (),
    ) -> None:
        super().__init__(spec, seed)
        self.base = base if base is not None else spec.name
        merged = dict(transport)
        merged.update(dict(spec.params))
        self.transport = tuple(sorted(merged.items()))

    def initial_params(self, ctx: InitContext) -> "InitialParams":
        from repro.core.initializer import table1_params

        return table1_params(
            self.base,
            ctx.config,
            ff_size=ctx.ff_size,
            hx_qos=ctx.hx_qos,
            measured_rtt=ctx.measured_rtt,
        )

    def quic_config(self) -> Optional["QuicConfig"]:
        return transport_quic_config(self.transport)


#: Transport params understood by :func:`transport_quic_config`.  A
#: ``cc.<key>`` param becomes a keyword argument of the controller.
_TRANSPORT_KEYS = ("cc", "loss_packet_threshold", "loss_time_factor", "pto_probe_count", "pto_backoff")


def transport_quic_config(
    params: Union[Params, Mapping[str, ParamValue]]
) -> Optional["QuicConfig"]:
    """Build the ``QuicConfig`` a scheme's transport params call for.

    Accepts either a ``(key, value)`` pair tuple or a mapping.  Returns
    ``None`` when no transport param is present, so schemes without an
    override keep the exact legacy default-config path.
    """
    pairs = params.items() if isinstance(params, Mapping) else params
    relevant = {
        k: v for k, v in pairs if k in _TRANSPORT_KEYS or k.startswith("cc.")
    }
    if not relevant:
        return None
    from repro.quic.config import QuicConfig

    kwargs: Dict[str, object] = {}
    cc_params: Dict[str, float] = {}
    for key, value in relevant.items():
        if key == "cc":
            kwargs["congestion_controller"] = str(value)
        elif key.startswith("cc."):
            cc_params[key[3:]] = float(value)  # type: ignore[arg-type]
        elif key == "loss_packet_threshold":
            kwargs[key] = int(value)  # type: ignore[call-overload]
        else:
            kwargs[key] = float(value)  # type: ignore[arg-type]
    if cc_params:
        kwargs["cc_params"] = tuple(sorted(cc_params.items()))
    return QuicConfig(**kwargs)  # type: ignore[arg-type]


def _table1_factory(spec: SchemeSpec, seed: int) -> InitPolicy:
    return TableIPolicy(spec, seed)


def _wira_bbr2_factory(spec: SchemeSpec, seed: int) -> InitPolicy:
    return TableIPolicy(spec, seed, base="wira", transport=(("cc", "bbrv2"),))


#: AutoRec-style accelerated recovery: earlier time/packet loss
#: declaration, more PTO probes, gentler backoff.  First-frame tails
#: under loss are recovery-bound, not window-bound.
AUTOREC_TRANSPORT: Params = (
    ("loss_packet_threshold", 2),
    ("loss_time_factor", 1.0),
    ("pto_backoff", 1.5),
    ("pto_probe_count", 4),
)


def _wira_ar_factory(spec: SchemeSpec, seed: int) -> InitPolicy:
    return TableIPolicy(spec, seed, base="wira", transport=AUTOREC_TRANSPORT)


def _adaptive_factory(spec: SchemeSpec, seed: int) -> InitPolicy:
    from repro.core.adaptive import AdaptiveInitPolicy

    return AdaptiveInitPolicy(spec, seed)


def _register_builtins() -> None:
    register(SchemeDef("baseline", "Baseline", _table1_factory, headline=True))
    register(
        SchemeDef(
            "wira_ff",
            "Wira(FF)",
            _table1_factory,
            uses_frame_perception=True,
            headline=True,
        )
    )
    register(
        SchemeDef(
            "wira_hx",
            "Wira(Hx)",
            _table1_factory,
            uses_transport_cookie=True,
            headline=True,
        )
    )
    register(
        SchemeDef(
            "wira",
            "Wira",
            _table1_factory,
            uses_frame_perception=True,
            uses_transport_cookie=True,
            headline=True,
        )
    )
    register(SchemeDef("static_10", "init_cwnd=10", _table1_factory))
    # -- frontier schemes (ROADMAP item 3) --------------------------------
    register(
        SchemeDef(
            "adaptive",
            "Adaptive(OD)",
            _adaptive_factory,
            uses_frame_perception=True,
            uses_transport_cookie=True,
        )
    )
    register(
        SchemeDef(
            "wira_bbr2",
            "Wira+BBRv2",
            _wira_bbr2_factory,
            uses_frame_perception=True,
            uses_transport_cookie=True,
        )
    )
    register(
        SchemeDef(
            "wira_ar",
            "Wira+AutoRec",
            _wira_ar_factory,
            uses_frame_perception=True,
            uses_transport_cookie=True,
        )
    )


_register_builtins()

#: The five rows of Table I (§IV-C), in registration order.
BASELINE = SchemeSpec("baseline")
WIRA_FF = SchemeSpec("wira_ff")
WIRA_HX = SchemeSpec("wira_hx")
WIRA = SchemeSpec("wira")
STATIC_10 = SchemeSpec("static_10")
