"""The four workloads: one per real leg of the repository.

Every workload has the same shape, so the measuring child and the traced
run drive them alike:

``prepare()``  generate inputs from the seeds (population, cell list,
               shards + router + driver up);
``warmup()``   a fixed two-chain pass through the *same* entry point, so
               lazy imports and first-call set-up are paid before timing
               and work moved into set-up shows in ``setup_s``;
``run()``      the timed region: one call into the leg's public entry
               point, nothing else;
``outcome()``  output checks and digest, after the clock has stopped;
``close()``    release sockets and scratch files.

**The simulated world is pinned; ``--seed`` draws what the host does
around it.**  Host time per session is set by the sampled stream bitrate
(lognormal, σ = 0.5) and chain length, so ``sessions_per_s`` of a
12-chain population moves ±22 % from one population seed to the next
(measured) — no run that fits the time cap averages that out, and a
spread that wide hides every regression the bounds exist to catch.  The
paper's direction (Wira's mean FFCT below the baseline's) is a 1–7 %
effect that changes sign between small populations, and 3 of 40 seed
pairs tried on the robustness matrix fail one of its gates.  So the
three population workloads replay OD pairs of the deployment the paper's
figures replay (:data:`POPULATION_SEED`), the matrix runs the seeds the
repository's own gate runs (:data:`MATRIX_SEED`, stride 12), and
``--seed`` draws only host-side randomness: every child's
``PYTHONHASHSEED`` (see :mod:`bench.measure`), and on the serve edge the
connection ids, the cookie key and shard salts, and the order in which
clients pick up chains with equally many sessions left.  Simulated
outcomes must not depend on any of that, which is what comparing
``outcome_digest`` across runs checks.
``--sim-seed`` moves the simulated world itself, for a confirming run on
inputs no optimisation was written against.

Sizes follow ``--seconds`` through one constant per workload, measured
on the landing commit (2 cores, CPython 3.11): a later, faster commit
finishes the same work sooner.
"""

from __future__ import annotations

import asyncio
import hashlib
import heapq
import importlib
import os
import random
import shutil
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from bench import OUT
from bench.verify import Outcome, check_figure, check_fleet, check_matrix, check_serve

#: Seed of ``HEADLINE_CONFIG``, the deployment Figs 11–15 replay.
POPULATION_SEED = 42

#: First seed of ``RobustnessConfig().seeds`` — (7, 19), stride 12 — the
#: matrix CI gates on.
MATRIX_SEED = 7

#: Worker processes of the fleet campaign: two, or the host's one core.
FLEET_JOBS = min(2, os.cpu_count() or 1)

#: Clients of the closed loop.  32 saturates the single asyncio thread;
#: 8 leaves it ~40 % busy and throughput is then set by simulated session
#: length, not by the code.
SERVE_CLIENTS = 32
SERVE_LIGHT_CLIENTS = 8

#: ``figure_replay`` regions sized for at least this many seconds are
#: checked for the paper's direction (Wira's mean FFCT below the
#: baseline's).  The gain is 5–10 % from 12 OD pairs of this population
#: up to 64 and negative on the first 8, which is what a smoke run or the
#: traced slice replays.
FULL_SIZE_SECONDS = 10.0

#: The traced run's span recorder: ``hook(name)`` opens a unit span and
#: returns the function that closes it, given the unit's session count.
SpanHook = Callable[[str], Callable[[int], None]]


class Workload:
    """Shared shape; see the module docstring."""

    name = ""
    why = ""
    #: Input units (OD pairs, cells) the landing commit gets through per
    #: second of timed region; sizes the inputs from ``--seconds``.
    units_per_second = 1.0
    min_units = 2

    #: Seed of the simulated inputs when ``--sim-seed`` is not given.
    pinned_seed = POPULATION_SEED
    #: Modules of the program this leg runs; imported before ``prepare``.
    imports: Tuple[str, ...] = ()
    #: ``(module, function)`` the traced run wraps to record one span per
    #: unit of work; ``None`` where the workload records its own.
    unit: Optional[Tuple[str, str]] = None

    def __init__(self, seed: int, seconds: float, sim_seed: Optional[int] = None) -> None:
        self.seed = seed
        self.sim_seed = self.pinned_seed if sim_seed is None else sim_seed
        self.units = max(self.min_units, round(self.units_per_second * seconds))
        self.full_size = seconds >= FULL_SIZE_SECONDS
        #: Sessions the generated inputs plan; ``outcome`` checks it.
        self.planned = 0
        #: Set by the traced run; ``None`` on every end-to-end run.
        self.span_hook: Optional[SpanHook] = None

    def import_program(self) -> None:
        for module in self.imports:
            importlib.import_module(module)

    def prepare(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self) -> Any:
        raise NotImplementedError

    def outcome(self, raw: Any) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def renew(self) -> None:
        """Fresh per-pass state; only the traced run makes more than one pass."""

    def counters(self) -> Dict[str, int]:
        """Running totals the program keeps itself; the traced run takes differences."""
        return {}

    def unit_sessions(self, args: Tuple[Any, ...], result: Any) -> int:
        """Sessions one call of :attr:`unit` ran, from its arguments and result."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """What was run, for the machine-readable result."""
        return {"units": self.units, "planned_sessions": self.planned}


class FigureReplay(Workload):
    name = "figure_replay"
    why = (
        "the leg every figure runs through: 20-frame sessions under four "
        "schemes on the batched kernel, so the per-packet QUIC path does most of the work"
    )
    units_per_second = 2.1  # OD pairs; ~15 sessions each over four schemes
    imports = ("repro.experiments.runner",)
    # The batched kernel replays chains in groups of up to 16 per scheme.
    unit = ("repro.experiments.common", "replay_chains_wave_batched")

    def prepare(self) -> None:
        from repro.experiments.common import EVAL_SCHEMES
        from repro.workload.population import Deployment, DeploymentConfig

        self.schemes = EVAL_SCHEMES
        self.config = DeploymentConfig(n_od_pairs=self.units, seed=self.sim_seed)
        self.warm_config = DeploymentConfig(n_od_pairs=2, seed=self.sim_seed + 1)
        chains = Deployment(self.config).generate()
        self.planned = len(self.schemes) * sum(len(chain) for chain in chains)

    def _replay(self, config: Any) -> Any:
        from repro.experiments.runner import run_deployment

        return run_deployment(config, self.schemes, use_cache=False, jobs=1)

    def warmup(self) -> None:
        self._replay(self.warm_config)

    def run(self) -> Any:
        return self._replay(self.config)

    def outcome(self, raw: Any) -> Outcome:
        return check_figure(raw, self.planned, direction=self.full_size)

    def unit_sessions(self, args: Tuple[Any, ...], result: Any) -> int:
        return sum(len(chain) for chain in result)


class FleetCampaign(Workload):
    name = "fleet_campaign"
    why = (
        "short first-frame sessions sharded over two workers with a checkpoint and a "
        "snapshot per chunk: media generation, sampling, fold/merge and IPC weigh most here"
    )
    units_per_second = 15.5  # OD pairs; ~8.4 four-frame sessions each over two schemes
    min_units = 4
    schemes = ("baseline", "wira")
    chunk_chains = 10
    imports = ("repro.fleet",)
    unit = ("repro.fleet.engine", "run_chunk")

    def __init__(self, seed: int, seconds: float, sim_seed: Optional[int] = None) -> None:
        super().__init__(seed, seconds, sim_seed)
        self.jobs = FLEET_JOBS
        self.workdir = OUT / f"fleet-{os.getpid()}"
        self.checkpoint_bytes = 0

    def _config(self, n_od_pairs: int, seed: int, chunk_chains: int) -> Any:
        from repro.fleet import FleetConfig
        from repro.workload.population import DeploymentConfig

        return FleetConfig(
            population=DeploymentConfig(
                n_od_pairs=n_od_pairs, seed=seed, video_frames_per_session=4
            ),
            schemes=self.schemes,
            chunk_chains=chunk_chains,
            checkpoint_every=1,
        )

    def prepare(self) -> None:
        from repro.workload.population import FleetPopulation

        self.config = self._config(self.units, self.sim_seed, self.chunk_chains)
        # Two chunks of two chains: both workers start, both take the
        # batched path a full chunk takes.
        self.warm_config = self._config(4, self.sim_seed + 1, 2)
        population = FleetPopulation(self.config.population)
        self.planned = len(self.schemes) * sum(len(chain) for chain in population.iter_chains())
        self.workdir.mkdir(parents=True, exist_ok=True)

    def _campaign(self, config: Any, label: str) -> Any:
        from repro.fleet import run_campaign

        checkpoint = self.workdir / f"{label}.json"
        total = run_campaign(
            config,
            checkpoint_path=checkpoint,
            telemetry_dir=self.workdir / f"{label}.telemetry",
            jobs=self.jobs,
        )
        self.checkpoint_bytes = checkpoint.stat().st_size
        return total

    def warmup(self) -> None:
        self._campaign(self.warm_config, "warmup")

    def run(self) -> Any:
        return self._campaign(self.config, "campaign")

    def outcome(self, raw: Any) -> Outcome:
        outcome = check_fleet(raw, self.planned)
        outcome.sim["fleet.checkpoint_bytes"] = float(self.checkpoint_bytes)
        return outcome

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def unit_sessions(self, args: Tuple[Any, ...], result: Any) -> int:
        return sum(int(scheme["sessions"]) for scheme in result["schemes"].values())

    def describe(self) -> Dict[str, object]:
        return {**super().describe(), "jobs": self.jobs, "chunks": self.config.n_chunks}


class AdverseMatrix(Workload):
    name = "adverse_matrix"
    why = (
        "the same QUIC and link layers on the solo event loop under bursty loss, reordering, "
        "outages and cookie faults, one scheme per cell: a fast-but-wrong recovery change "
        "shows here as failed sessions"
    )
    units_per_second = 82.0  # two-session cells
    min_units = 14
    pinned_seed = MATRIX_SEED
    seed_stride = 12
    imports = ("repro.experiments.robustness",)
    unit = ("repro.experiments.robustness", "run_cell")

    def prepare(self) -> None:
        from repro.experiments.robustness import (
            MATRIX_SCHEMES,
            RobustnessConfig,
            build_schedules,
            enumerate_cells,
            fault_plan_matrix,
        )

        defaults = RobustnessConfig()
        schedules = tuple(build_schedules(defaults.conditions))
        faults = tuple(fault_plan_matrix())
        per_seed = len(MATRIX_SCHEMES) * len(faults) * len(schedules)
        n_seeds = max(1, round(self.units / per_seed))
        schedule_names: Optional[Tuple[str, ...]] = None
        if self.units < per_seed:
            # Below one seed's worth (smoke runs only) drop whole
            # schedules, never schemes: every gate needs its baseline.
            keep = max(1, round(len(schedules) * self.units / per_seed))
            schedule_names = schedules[:keep]
        self.config = RobustnessConfig(
            seeds=tuple(self.sim_seed + self.seed_stride * i for i in range(n_seeds)),
            schedule_names=schedule_names,
        )
        self.warm_config = RobustnessConfig(
            seeds=(self.sim_seed + 1,),
            schemes=MATRIX_SCHEMES[:1] + MATRIX_SCHEMES[3:4],  # baseline, wira
            schedule_names=("steady",),
            fault_names=("none",),
        )
        self.units = len(enumerate_cells(self.config))
        self.planned = 2 * self.units

    def _matrix(self, config: Any) -> Any:
        from repro.experiments.robustness import run_matrix

        return run_matrix(config, jobs=1)

    def warmup(self) -> None:
        self._matrix(self.warm_config)

    def run(self) -> Any:
        return self._matrix(self.config)

    def outcome(self, raw: Any) -> Outcome:
        return check_matrix(raw, self.config)

    def unit_sessions(self, args: Tuple[Any, ...], result: Any) -> int:
        return 2

    def describe(self) -> Dict[str, object]:
        return {**super().describe(), "matrix_seeds": list(self.config.seeds)}


class ServeEdge(Workload):
    """The benchmark's own closed-loop generator over the serve edge.

    Public pieces only: two in-process ``ShardServer``s, a ``HashRing``,
    a ``Router``, one ``ServeDriver`` on one UDP socket.  ``clients``
    coroutines of one thread each send their next session only after the
    previous one completed (closed loop): a slow edge receives less load.
    All traffic crosses the host's loopback interface; link rates and
    wire latency are not measured.

    A client takes the chain with the most sessions left.  Sessions of a
    chain run one after another in real time, so a long chain taken late
    would keep one client busy long after the other 31 ran out of work,
    and the rate of the region would be set by when that chain happened
    to start (measured: ±15 % between two random orders of the same
    work).  Taken first, the long chains end well inside the region and
    the loop stays full until the last few sessions: ``sessions_per_s``
    over the whole region is the saturated rate, by one definition at
    every size.
    """

    name = "serve_edge"
    why = (
        "the only workload where serve.* and socket I/O do work: 32 closed-loop clients "
        "saturate the one asyncio thread over real loopback UDP, so the rate is CPU-bound"
    )
    units_per_second = 5.2  # OD pairs; ~7.7 six-frame sessions each over two schemes
    min_units = 4
    schemes = ("baseline", "wira")
    frames = 6
    shards = 2
    imports = ("repro.serve.driver", "repro.serve.router", "repro.serve.shard")

    def __init__(self, seed: int, seconds: float, sim_seed: Optional[int] = None) -> None:
        super().__init__(seed, seconds, sim_seed)
        self.clients = SERVE_CLIENTS
        #: Drivers opened so far.  Every pass gets its own (``renew``) and
        #: replays its chains under OD keys of its own, so connection ids,
        #: client cookies and the shards' per-chain state (origin caches)
        #: never carry over from the pass before.
        self.drivers = 0
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._servers: List[Any] = []
        self._router: Any = None
        self._driver: Any = None
        self._retired: Dict[str, int] = {}

    def prepare(self) -> None:
        from repro.workload.population import DeploymentConfig, FleetPopulation

        # The two chains past the timed range are the warm-up's.
        self.population_config = DeploymentConfig(
            n_od_pairs=self.units + 2,
            seed=self.sim_seed,
            video_frames_per_session=self.frames,
        )
        population = FleetPopulation(self.population_config)
        chains = [(index, population.chain(index)) for index in range(self.units + 2)]
        # What a client takes from the queue: one chain under one scheme.
        # Shards and the driver key their state by (scheme, OD pair), so
        # these are independent of each other.
        self.work = [(i, s, chain) for i, chain in chains[: self.units] for s in self.schemes]
        # Sessions replay in real time, so the warm-up is kept to the two
        # sessions of a chain that differ: the first, and one that echoes
        # the first's cookie.
        self.warm_work = [
            (i, s, chain[:2]) for i, chain in chains[self.units :] for s in self.schemes
        ]
        # Among chains with equally many sessions left, clients take work
        # in a seed-drawn order: which sessions overlap on the loop differs
        # per seed, the work does not.
        random.Random(f"bench-serve-order:{self.seed}").shuffle(self.work)
        self.planned = sum(len(chain) for _, _, chain in self.work)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        from repro.serve.ring import HashRing
        from repro.serve.router import Router
        from repro.serve.shard import ShardServer

        key = hashlib.sha256(b"bench-serve-key:%d" % self.seed).digest()
        addresses = {}
        for shard_id in range(self.shards):
            salt = hashlib.sha256(b"bench-serve-salt:%d:%d" % (self.seed, shard_id)).digest()
            server = ShardServer(shard_id=shard_id, cookie_key=key, instance_salt=salt[:16])
            self._servers.append(server)
            addresses[f"shard-{shard_id}"] = await server.start()
        self._router = Router(HashRing(addresses), addresses)
        self._front = await self._router.start()
        await self._open_driver()

    async def _open_driver(self) -> None:
        from repro.serve.driver import ServeDriver

        if self._driver is not None:
            for name, count in self._driver.stats.items():
                self._retired[name] = self._retired.get(name, 0) + count
            self._driver.close()
        self.drivers += 1
        digest = hashlib.sha256(b"bench-serve-driver:%d:%d" % (self.seed, self.drivers)).digest()
        self._driver = ServeDriver(self._front, campaign_seed=int.from_bytes(digest[:6], "big"))
        await self._driver.start()

    async def _campaign(
        self, work: Sequence[Tuple[int, str, Any]], clients: int, tag: str
    ) -> Tuple[List[Any], List[str]]:
        from repro.serve.driver import WireFailure

        assert self.loop is not None
        # What waits is a chain whose next session may start.  A client
        # takes the one with the most sessions left, runs that one session
        # and puts the chain back if it has more.  Sessions of a chain stay
        # in order (the cookie hand-off needs that); ``work``'s order
        # decides among chains with equally many left.
        ready = [(-len(chain), rank, i, s, chain) for rank, (i, s, chain) in enumerate(work)]
        heapq.heapify(ready)
        outcomes: List[Any] = []
        failures: List[str] = []

        async def client() -> None:
            while ready:
                left, rank, od_index, scheme, chain = heapq.heappop(ready)
                position = len(chain) + left
                done = self.span_hook("run_session") if self.span_hook else None
                try:
                    outcome = await self._driver.run_session(
                        chain[position], scheme, f"od{tag}-{od_index}", f"stream-{od_index}", self.frames
                    )
                except WireFailure as exc:
                    # The chain's cookie hand-off is broken: drop the rest.
                    failures.append(str(exc))
                    continue
                finally:
                    if done is not None:
                        done(1)
                outcomes.append(outcome)
                if left + 1 < 0:
                    heapq.heappush(ready, (left + 1, rank, od_index, scheme, chain))

        await asyncio.gather(*(client() for _ in range(clients)))
        return outcomes, failures

    def _run_campaign(self, work: Sequence[Tuple[int, str, Any]], clients: int, tag: str) -> Any:
        assert self.loop is not None
        return self.loop.run_until_complete(self._campaign(work, clients, tag))

    def warmup(self) -> None:
        self._run_campaign(self.warm_work, len(self.warm_work), "w")
        self.renew()

    def run(self) -> Any:
        return self._run_campaign(self.work, self.clients, str(self.drivers))

    def renew(self) -> None:
        assert self.loop is not None
        self.loop.run_until_complete(self._open_driver())

    def counters(self) -> Dict[str, int]:
        """Totals the shards, the router and every driver so far have counted."""
        driver = {
            name: count + self._retired.get(name, 0) for name, count in self._driver.stats.items()
        }
        counters = {
            "datagrams": self._router.stats["forwarded"] + self._router.stats["returned"],
            "dropped": self._router.stats["undecodable"]
            + self._router.stats["unroutable"]
            + driver["undecodable"]
            + driver["unknown_flow"],
            "repair_requests": driver["retransmit_requests"],
            "rejected_cookies": 0,
        }
        for server in self._servers:
            counters["dropped"] += server.stats["undecodable"] + server.stats["unknown_flow"]
            counters["rejected_cookies"] += server.cookie_manager.rejected_cookies
        return counters

    def outcome(self, raw: Any) -> Outcome:
        outcomes, failures = raw
        rejected = self.counters()["rejected_cookies"]
        return check_serve(outcomes, self.planned, failures, rejected, self.frames)

    def close(self) -> None:
        if self.loop is None:
            return
        loop, self.loop = self.loop, None
        if self._driver is not None:
            self._driver.close()
        if self._router is not None:
            self._router.close()
        for server in self._servers:
            loop.run_until_complete(server.close())
        # Let the transports' close callbacks run before the loop goes.
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()

    def describe(self) -> Dict[str, object]:
        assert self.loop is not None
        return {
            **super().describe(),
            "loop": type(self.loop).__name__,
            "clients": self.clients,
            "load": "closed loop",
            "network": "loopback",
            "shards": self.shards,
        }


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (FigureReplay, FleetCampaign, AdverseMatrix, ServeEdge)
}
