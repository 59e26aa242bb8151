"""Serve-mode load test: real sockets, sharded edge, sim as ground truth.

Drives a whole fleet campaign through ``repro.serve``: N shard workers
(in-process servers or real ``python -m repro.serve.shard`` processes)
behind the consistent-hash router, one :class:`ServeDriver` pushing
every planned session over UDP, and — the point of the exercise — the
**same campaign replayed in the simulator** as the reference.  The two
must agree exactly on the discrete outcomes (sessions, completions,
cookie deliveries, cookie uses) and within a documented tolerance on
the FFCT distribution, because the shards use the simulator as their
timing oracle; any disagreement is a wire bug, not noise.

Outputs are fleet-native: a :class:`CampaignAggregate`, the standard
JSON report, and the standard HTML report with a serve-vs-sim
comparison section appended.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fleet.aggregate import CampaignAggregate, merge_chunks
from repro.fleet.engine import FleetConfig, run_chunk
from repro.fleet.report import build_report
from repro.serve.driver import ServeDriver, ServeSessionOutcome, WireFailure
from repro.serve.ring import HashRing
from repro.serve.router import Router
from repro.serve.shard import ShardServer
from repro.serve.transport import Address, UdpEndpoint, open_endpoint
from repro.serve.wire import EnvelopeKind, decode_envelope, encode_envelope
from repro.workload.population import DeploymentConfig, FleetPopulation

#: Default FFCT agreement tolerance: relative on the sim value, plus an
#: absolute floor for near-zero FFCTs.  The replay clock is asyncio
#: wall time, so each measured FFCT carries scheduling jitter roughly
#: bounded by the event-loop lag under load; the floor absorbs that,
#: the relative term scales with congested-path FFCTs.
FFCT_REL_TOL = 0.20
FFCT_ABS_TOL = 0.075  # seconds

SHARD_SPAWN_TIMEOUT = 30.0


@dataclass(frozen=True)
class ServeLoadtestConfig:
    """One serve campaign (fleet config + serve topology)."""

    population: DeploymentConfig = field(default_factory=DeploymentConfig)
    schemes: Tuple[str, ...] = ("baseline", "wira")
    shards: int = 2
    #: Chains in flight at once (each chain's sessions run in order).
    concurrency: int = 64
    #: Spawn real worker processes; False runs shards in-process (fast,
    #: still real sockets — used by tests).
    subprocess_shards: bool = True
    #: After this many chains complete, add one more shard mid-run to
    #: exercise reshard + sticky affinity.  None = never.
    reshard_after_chains: Optional[int] = None

    def cookie_key(self) -> bytes:
        return hashlib.sha256(
            b"wira-serve-key:%d" % self.population.seed
        ).digest()

    def shard_salt(self, shard_id: int) -> bytes:
        return hashlib.sha256(
            b"wira-serve-salt:%d:%d" % (self.population.seed, shard_id)
        ).digest()[:16]

    def fleet_config(self) -> FleetConfig:
        return FleetConfig(population=self.population, schemes=self.schemes)


class ControlClient:
    """Request/reply over CONTROL envelopes to shard admin sockets."""

    def __init__(self) -> None:
        self.endpoint: Optional[UdpEndpoint] = None
        self._pending: Dict[int, "asyncio.Future[Dict[str, object]]"] = {}
        self._next_req = 1

    async def start(self) -> None:
        self.endpoint = await open_endpoint(self._on_datagram)

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()

    def _on_datagram(self, data: bytes, addr: Address) -> None:
        try:
            envelope = decode_envelope(data)
            if envelope.kind != EnvelopeKind.CONTROL:
                return
            reply = json.loads(envelope.payload.decode("utf-8"))
            req_id = int(reply.get("req", -1))
        except (ValueError, UnicodeDecodeError):
            return
        future = self._pending.pop(req_id, None)
        if future is not None and not future.done():
            future.set_result(reply)

    async def request(
        self, addr: Address, op: str, attempts: int = 5, timeout: float = 1.0
    ) -> Dict[str, object]:
        assert self.endpoint is not None
        loop = asyncio.get_running_loop()
        for _ in range(attempts):
            req_id = self._next_req
            self._next_req += 1
            future: "asyncio.Future[Dict[str, object]]" = loop.create_future()
            self._pending[req_id] = future
            blob = json.dumps({"op": op, "req": req_id}).encode("utf-8")
            self.endpoint.sendto(
                encode_envelope(EnvelopeKind.CONTROL, b"", blob), addr
            )
            try:
                return await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError:
                self._pending.pop(req_id, None)
        raise RuntimeError(f"shard at {addr} did not answer {op!r}")


@dataclass
class _ShardHandle:
    name: str
    shard_id: int
    address: Address
    server: Optional[ShardServer] = None  # in-process
    process: Optional[subprocess.Popen] = None  # worker process


async def _spawn_shard(
    config: ServeLoadtestConfig, shard_id: int, workdir: Path
) -> _ShardHandle:
    name = f"shard-{shard_id}"
    if not config.subprocess_shards:
        server = ShardServer(
            shard_id=shard_id,
            cookie_key=config.cookie_key(),
            instance_salt=config.shard_salt(shard_id),
        )
        address = await server.start()
        return _ShardHandle(name, shard_id, address, server=server)
    ready_file = workdir / f"{name}.ready.json"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve.shard",
            "--shard-id",
            str(shard_id),
            "--cookie-key-hex",
            config.cookie_key().hex(),
            "--salt-hex",
            config.shard_salt(shard_id).hex(),
            "--ready-file",
            str(ready_file),
        ],
    )
    deadline = time.monotonic() + SHARD_SPAWN_TIMEOUT
    while not ready_file.exists():
        if process.poll() is not None:
            raise RuntimeError(f"{name} exited before binding (rc={process.returncode})")
        if time.monotonic() > deadline:
            process.kill()
            raise RuntimeError(f"{name} did not come up in {SHARD_SPAWN_TIMEOUT}s")
        await asyncio.sleep(0.05)
    ready = json.loads(ready_file.read_text())
    return _ShardHandle(
        name, shard_id, (str(ready["host"]), int(ready["port"])), process=process
    )


async def _stop_shard(handle: _ShardHandle, control: ControlClient) -> None:
    if handle.server is not None:
        await handle.server.close()
        return
    assert handle.process is not None
    try:
        await control.request(handle.address, "shutdown", attempts=3, timeout=1.0)
    except RuntimeError:
        handle.process.kill()
    try:
        handle.process.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        handle.process.kill()
        handle.process.wait(timeout=10.0)


def _simulate_reference(config: ServeLoadtestConfig) -> CampaignAggregate:
    """The exact campaign, replayed in-process by the fleet engine."""
    fleet = config.fleet_config()
    payloads = [run_chunk(fleet, i) for i in range(fleet.n_chunks)]
    return merge_chunks(fleet.schemes, fleet.sketch_alpha, payloads)


#: Report fields of a scheme (``build_report(...)["schemes"][value]``)
#: the socket campaign must reproduce exactly, and the FFCT statistics
#: it must reproduce within the tolerance.
EXACT_FIELDS: Tuple[str, ...] = ("sessions", "completed", "cookie_delivered", "used_cookie")
FFCT_STATS: Tuple[str, ...] = ("mean", "p50", "p90")


def compare_schemes(
    serve: CampaignAggregate,
    sim: CampaignAggregate,
    rel_tol: float,
    abs_tol: float,
) -> Dict[str, object]:
    """Per-scheme serve-vs-sim comparison of the two campaign reports.

    Discrete outcomes (:data:`EXACT_FIELDS` and ``ffct.count``) must
    match exactly (the shard sims ARE the reference sims); the FFCT
    :data:`FFCT_STATS` must agree within ``abs_tol + rel_tol *
    sim_value`` — the documented socket-jitter tolerance.
    """
    serve_schemes = build_report(serve, "serve")["schemes"]
    sim_schemes = build_report(sim, "sim")["schemes"]
    assert isinstance(serve_schemes, dict) and isinstance(sim_schemes, dict)
    out: Dict[str, object] = {"rel_tol": rel_tol, "abs_tol": abs_tol, "schemes": {}}
    all_ok = True
    for value in sorted(serve_schemes):
        serve_n, sim_n = serve_schemes[value], sim_schemes[value]
        serve_ffct = serve_n["ffct"] or {}
        sim_ffct = sim_n["ffct"] or {}
        exact_ok = all(serve_n[k] == sim_n[k] for k in EXACT_FIELDS) and serve_ffct.get(
            "count", 0
        ) == sim_ffct.get("count", 0)
        ffct_checks: Dict[str, object] = {}
        ffct_ok = True
        for stat in FFCT_STATS:
            serve_v, sim_v = serve_ffct.get(stat), sim_ffct.get(stat)
            if serve_v is None or sim_v is None:
                ok = serve_v is None and sim_v is None
                delta = None
            else:
                delta = abs(float(serve_v) - float(sim_v))
                ok = delta <= abs_tol + rel_tol * abs(float(sim_v))
            ffct_checks[f"ffct_{stat}"] = {
                "serve": serve_v,
                "sim": sim_v,
                "delta": delta,
                "ok": ok,
            }
            ffct_ok = ffct_ok and ok
        scheme_ok = exact_ok and ffct_ok
        all_ok = all_ok and scheme_ok
        out["schemes"][value] = {  # type: ignore[index]
            "serve": serve_n,
            "sim": sim_n,
            "exact_ok": exact_ok,
            "ffct": ffct_checks,
            "ok": scheme_ok,
        }
    out["ok"] = all_ok
    return out


def comparison_html_section(comparison: Dict[str, object]) -> str:
    """The serve-vs-sim table appended to the fleet HTML report."""
    from repro.fleet.htmlreport import _esc  # shared escaping helper

    rows = [
        "<section><h2>Serve vs sim (socket-measured vs oracle)</h2>",
        '<table class="kv"><thead><tr><th>scheme</th><th>metric</th>'
        "<th>serve</th><th>sim</th><th>status</th></tr></thead><tbody>",
    ]
    schemes = comparison.get("schemes", {})
    assert isinstance(schemes, dict)
    for value in sorted(schemes):
        entry = schemes[value]
        for k in EXACT_FIELDS:
            serve_v = entry["serve"][k]
            sim_v = entry["sim"][k]
            status = "match" if serve_v == sim_v else "MISMATCH"
            rows.append(
                f"<tr><td>{_esc(value)}</td><td>{_esc(k)}</td>"
                f"<td>{_esc(serve_v)}</td><td>{_esc(sim_v)}</td>"
                f"<td>{_esc(status)}</td></tr>"
            )
        for stat, check in entry["ffct"].items():
            serve_v = check["serve"]
            sim_v = check["sim"]
            status = "within tolerance" if check["ok"] else "OUT OF TOLERANCE"
            fmt = lambda v: "—" if v is None else f"{float(v) * 1e3:.1f} ms"
            rows.append(
                f"<tr><td>{_esc(value)}</td><td>{_esc(stat)}</td>"
                f"<td>{_esc(fmt(serve_v))}</td><td>{_esc(fmt(sim_v))}</td>"
                f"<td>{_esc(status)}</td></tr>"
            )
    verdict = "PASS" if comparison.get("ok") else "FAIL"
    rows.append("</tbody></table>")
    rows.append(
        f'<p class="key">gates: exact discrete outcomes; FFCT within '
        f"abs {_esc(comparison.get('abs_tol'))}s + rel "
        f"{_esc(comparison.get('rel_tol'))} · verdict: {_esc(verdict)}</p>"
    )
    rows.append("</section>")
    return "\n".join(rows)


async def _run_campaign(
    config: ServeLoadtestConfig, workdir: Path
) -> Tuple[CampaignAggregate, Dict[str, object]]:
    """Everything socket-side: shards, router, driver, chain fan-out."""
    handles: List[_ShardHandle] = []
    control = ControlClient()
    router: Optional[Router] = None
    driver: Optional[ServeDriver] = None
    try:
        for shard_id in range(config.shards):
            handles.append(await _spawn_shard(config, shard_id, workdir))
        ring = HashRing(h.name for h in handles)
        router = Router(ring, {h.name: h.address for h in handles})
        front = await router.start()
        await control.start()

        driver = ServeDriver(front, campaign_seed=config.population.seed)
        await driver.start()

        population = FleetPopulation(config.population)
        aggregate = CampaignAggregate(config.schemes)
        outcomes: List[ServeSessionOutcome] = []
        failures: List[str] = []
        chains_done = 0
        resharded = False
        semaphore = asyncio.Semaphore(config.concurrency)
        lock = asyncio.Lock()

        async def run_chain(od_index: int) -> None:
            nonlocal chains_done, resharded
            assert driver is not None and router is not None
            chain = population.chain(od_index)
            od_key = f"od-{od_index}"
            stream_name = f"stream-{od_index}"
            async with semaphore:
                chain_outcomes: List[ServeSessionOutcome] = []
                for scheme_value in config.schemes:
                    for planned in chain:
                        try:
                            outcome = await driver.run_session(
                                planned,
                                scheme_value,
                                od_key,
                                stream_name,
                                config.population.video_frames_per_session,
                            )
                        except WireFailure as exc:
                            failures.append(str(exc))
                            return
                        chain_outcomes.append(outcome)
            async with lock:
                for outcome in chain_outcomes:
                    aggregate.fold(
                        outcome.scheme_value, outcome.planned, outcome.result
                    )
                    outcomes.append(outcome)
                chains_done += 1
                if (
                    config.reshard_after_chains is not None
                    and chains_done >= config.reshard_after_chains
                    and not resharded
                ):
                    resharded = True
                    extra = await _spawn_shard(config, len(handles), workdir)
                    handles.append(extra)
                    router.add_shard(extra.name, extra.address)

        await asyncio.gather(
            *(run_chain(i) for i in range(config.population.n_od_pairs))
        )

        shard_stats = []
        for handle in handles:
            shard_stats.append(await control.request(handle.address, "stats"))

        telemetry: Dict[str, object] = {
            "shards": shard_stats,
            "router": dict(router.stats),
            "driver": dict(driver.stats),
            "wire_failures": failures,
            "sessions_measured": len(outcomes),
            "retransmit_requests": sum(o.retransmit_requests for o in outcomes),
            "resharded": resharded,
            "shard_count_final": len(handles),
        }
        return aggregate, telemetry
    finally:
        if driver is not None:
            driver.close()
        if router is not None:
            router.close()
        for handle in handles:
            await _stop_shard(handle, control)
        control.close()


def run_loadtest(config: ServeLoadtestConfig) -> Dict[str, object]:
    """Run the socket campaign + the sim reference; return the verdict.

    The returned payload is the ``serve-smoke`` CI artifact: per-scheme
    comparison with gates, shard/router/driver counters, and the
    standard fleet report of the socket-measured campaign.
    """
    with tempfile.TemporaryDirectory(prefix="wira-serve-") as tmp:
        serve_aggregate, telemetry = asyncio.run(
            _run_campaign(config, Path(tmp))
        )
    sim_aggregate = _simulate_reference(config)
    comparison = compare_schemes(serve_aggregate, sim_aggregate, FFCT_REL_TOL, FFCT_ABS_TOL)
    rejected = sum(
        int(s.get("rejected_cookies", 0)) for s in telemetry["shards"]  # type: ignore[union-attr]
    )
    gates = {
        "comparison_ok": bool(comparison["ok"]),
        "wire_failures": len(telemetry["wire_failures"]),  # type: ignore[arg-type]
        "rejected_cookies": rejected,
        "ok": bool(comparison["ok"])
        and not telemetry["wire_failures"]
        and rejected == 0,
    }
    report = build_report(serve_aggregate, key=f"serve-{config.population.seed}")
    return {
        "config": {
            "population": vars(config.population),
            "schemes": list(config.schemes),
            "shards": config.shards,
            "concurrency": config.concurrency,
            "subprocess_shards": config.subprocess_shards,
            "reshard_after_chains": config.reshard_after_chains,
        },
        "gates": gates,
        "comparison": comparison,
        "telemetry": telemetry,
        "report": report,
        "aggregate": serve_aggregate.to_json(),
    }


def render_serve_html(results: Dict[str, object], config: ServeLoadtestConfig) -> str:
    """The fleet HTML report of the socket campaign, plus the verdict."""
    from repro.fleet.htmlreport import render_html_report

    aggregate = CampaignAggregate.from_json(results["aggregate"])  # type: ignore[arg-type]
    comparison = results["comparison"]
    assert isinstance(comparison, dict)
    return render_html_report(
        results["report"],  # type: ignore[arg-type]
        aggregate,
        config={"schemes": list(config.schemes), "shards": config.shards},
        title="Wira serve-mode campaign",
        extra_sections=[comparison_html_section(comparison)],
    )


__all__ = [
    "EXACT_FIELDS",
    "FFCT_ABS_TOL",
    "FFCT_REL_TOL",
    "FFCT_STATS",
    "ControlClient",
    "ServeLoadtestConfig",
    "compare_schemes",
    "comparison_html_section",
    "render_serve_html",
    "run_loadtest",
]
