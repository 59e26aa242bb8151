"""Open scheme-plugin registry (the frontier beyond Table I).

Schemes are dispatched through a string-keyed registry, so new ones
plug in without editing the core:

* :class:`SchemeSpec` — a reference to a registered scheme by name,
  which travels through ``SessionSpec``, ``FleetConfig``, the
  robustness matrix, and the serve wire's ``WSPC`` tag.  A spec and its
  name compare and hash equal, so either keys the same records.  A
  scheme takes no parameters: a variant is a new registered name.
* :class:`InitPolicy` — the plugin protocol.  ``initial_params(ctx)``
  computes the connection's initial window/rate from the signals Wira
  gathered; ``observe(result)`` is an optional feedback hook the
  deployment replay calls after every finished session of a chain, which
  is what lets the online per-OD adaptive initializer learn;
  ``quic_config()`` lets a scheme run on its own fixed transport stack
  (the BBRv2 controller, AutoRec-style recovery) with zero session-code
  edits.
* :func:`register` / :func:`as_spec` / :func:`make_policy` — the
  registry surface the engines use.

The five Table I schemes are registered here as stateless policies over
:func:`repro.core.initializer.table1_params` and named by the module
constants :data:`BASELINE`, :data:`WIRA_FF`, :data:`WIRA_HX`,
:data:`WIRA` and :data:`STATIC_10`; their outputs are pinned by the
golden digests of :mod:`repro.experiments.goldens`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from repro.core.config import WiraConfig
from repro.core.transport_cookie import HxQos
from repro.quic.config import QuicConfig

if TYPE_CHECKING:
    from repro.cdn.session import SessionResult
    from repro.core.initializer import InitialParams


@dataclass(frozen=True, eq=False)
class SchemeSpec:
    """A serializable reference to a registered scheme.

    ``value`` is the scheme's name: the form on the wire and in every
    record key.  Equality and hashing go through it, so a spec and the
    plain name are interchangeable as dict keys.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"invalid scheme name {self.name!r}")

    @property
    def value(self) -> str:
        return self.name

    @property
    def display_name(self) -> str:
        return get_def(self.name).display_name

    # -- value equality ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SchemeSpec):
            return self.name == other.name
        if isinstance(other, str):
            return self.name == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"SchemeSpec({self.name!r})"


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

    def quic_config(self) -> Optional[QuicConfig]:
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
    headline: bool = False


_REGISTRY: Dict[str, SchemeDef] = {}


def register(defn: SchemeDef) -> SchemeDef:
    """Add a scheme to the registry."""
    SchemeSpec(defn.name)  # validates the name
    if defn.name in _REGISTRY:
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
    """Normalize a spec or its name to a spec.

    Raises ``ValueError`` for anything but a registered name, making
    this the one validation point for every external surface (fleet
    config, serve wire, CLIs).
    """
    if isinstance(scheme, SchemeSpec):
        spec = scheme
    elif isinstance(scheme, str):
        spec = SchemeSpec(scheme)
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
    """A stateless Table I scheme, optionally on a fixed transport stack.

    ``base`` names the Table I row to compute (§IV-C); ``transport``
    builds the scheme's ``QuicConfig``, or is ``None`` for the session
    default.  The five paper schemes use this directly; the BBRv2 and
    AutoRec frontier schemes are Wira's Table I row on a non-default
    transport stack.
    """

    __slots__ = ("base", "transport")

    def __init__(
        self,
        spec: SchemeSpec,
        seed: int = 0,
        base: Optional[str] = None,
        transport: Optional[Callable[[], QuicConfig]] = None,
    ) -> None:
        super().__init__(spec, seed)
        self.base = base if base is not None else spec.name
        self.transport = transport

    def initial_params(self, ctx: InitContext) -> "InitialParams":
        from repro.core.initializer import table1_params

        return table1_params(
            self.base,
            ctx.config,
            ff_size=ctx.ff_size,
            hx_qos=ctx.hx_qos,
            measured_rtt=ctx.measured_rtt,
        )

    def quic_config(self) -> Optional[QuicConfig]:
        # Built per call: a QuicConfig is mutable, so no two sessions
        # may share one.
        return None if self.transport is None else self.transport()


def _table1_factory(spec: SchemeSpec, seed: int) -> InitPolicy:
    return TableIPolicy(spec, seed)


def _bbrv2_transport() -> QuicConfig:
    return QuicConfig(congestion_controller="bbrv2")


def _wira_bbr2_factory(spec: SchemeSpec, seed: int) -> InitPolicy:
    return TableIPolicy(spec, seed, base="wira", transport=_bbrv2_transport)


def _autorec_transport() -> QuicConfig:
    """AutoRec-style accelerated recovery: earlier time/packet loss
    declaration, more PTO probes, gentler backoff.  First-frame tails
    under loss are recovery-bound, not window-bound."""
    return QuicConfig(
        loss_packet_threshold=2,
        loss_time_factor=1.0,
        pto_probe_count=4,
        pto_backoff=1.5,
    )


def _wira_ar_factory(spec: SchemeSpec, seed: int) -> InitPolicy:
    return TableIPolicy(spec, seed, base="wira", transport=_autorec_transport)


def _adaptive_factory(spec: SchemeSpec, seed: int) -> InitPolicy:
    from repro.core.adaptive import AdaptiveInitPolicy

    return AdaptiveInitPolicy(spec, seed)


def _register_builtins() -> None:
    register(SchemeDef("baseline", "Baseline", _table1_factory, headline=True))
    register(SchemeDef("wira_ff", "Wira(FF)", _table1_factory, headline=True))
    register(SchemeDef("wira_hx", "Wira(Hx)", _table1_factory, headline=True))
    register(SchemeDef("wira", "Wira", _table1_factory, headline=True))
    register(SchemeDef("static_10", "init_cwnd=10", _table1_factory))
    # -- frontier schemes, beyond the paper's Table I ----------------------
    register(SchemeDef("adaptive", "Adaptive(OD)", _adaptive_factory))
    register(SchemeDef("wira_bbr2", "Wira+BBRv2", _wira_bbr2_factory))
    register(SchemeDef("wira_ar", "Wira+AutoRec", _wira_ar_factory))


_register_builtins()

#: The five rows of Table I (§IV-C), in registration order.
BASELINE = SchemeSpec("baseline")
WIRA_FF = SchemeSpec("wira_ff")
WIRA_HX = SchemeSpec("wira_hx")
WIRA = SchemeSpec("wira")
STATIC_10 = SchemeSpec("static_10")
