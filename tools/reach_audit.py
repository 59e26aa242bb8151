"""Reach audit: which functions under ``src/repro`` no entry point calls.

Runs every real entry point of the repository once, at smoke size, in
this process and under :mod:`cProfile`, then lists each function defined
under ``src/repro`` that no run called.  The runs:

* the benchmark's four workloads (``bench.workloads``: prepare, warm-up,
  timed run, output check) and its isolated drives;
* every figure and table, through ``benchmarks/``, and the four examples;
* each CLI: ``wira_fleet`` run / resume / status / verify / report,
  ``wira_serve run`` (shard subprocesses, then in-process with a
  reshard), ``wira_trace`` validate / summarize / diff, the
  robustness and frontier gates, and the golden digests;
* two replays traced to disk.

What a run hands to another process (a pool worker, a shard subprocess)
is not seen here; every pool task also runs in-process in some run
above, and :data:`KEPT` names the shard subprocess's own entry.

A function that only ``tests/`` reaches is deleted, or listed in
:data:`KEPT` with the reason it stays.  The audit exits 1 when a
function is unreached and not kept, or kept and reached (so the list
cannot rot), and 2 when an entry point itself fails::

    PYTHONPATH=src:. python -m tools.reach_audit [--json reach.json]

It takes about five minutes on one core, most of it ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import runpy
import sys
import tempfile
import traceback
import types
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_BENCH = "bench/drives.py times it by name; it goes when the benchmark stops naming it"
_FAILURE = (
    "runs only when something goes wrong (a datagram lost on loopback, a full store, "
    "an unknown protocol, a peer error), which no smoke run provokes"
)
_LONG = "runs only in sessions or campaigns longer than a smoke run"
_SUBPROCESS = "runs in a shard subprocess, which the profiler does not see"
_INTERFACE = "interface declaration: every implementation overrides it"
_SWITCH = "public switch of a process-wide mode, the counterpart of the call that sets it"
_VIEW = "read-only view the unit tests assert through instead of a private attribute"
_ORACLE = "closed form or inverse the unit tests check the simulator's output against"
_API = "documented public API of its class, covered by its unit tests"

#: ``module:qualname`` of a function no run reaches, and why it stays.  A
#: key may also name a whole class (``module:Class``) or module.
KEPT: Dict[str, str] = {
    "repro.simnet.batch": _BENCH,
    "repro.simnet.calqueue": _BENCH,
    "repro.experiments.runner:clear_caches": (
        "drops the in-process memo: the one way to replay a memoized deployment afresh"
    ),
    # Failure paths.
    "repro.core.parser_backends:UnknownProtocolError.__init__": _FAILURE,
    "repro.serve.driver:ServeDriver._request_repair": _FAILURE,
    "repro.serve.protocol:build_resend_request": _FAILURE,
    "repro.serve.protocol:parse_resend_request": _FAILURE,
    "repro.serve.shard:ShardServer._resend_from": _FAILURE,
    # Drains sends the kernel refused with EAGAIN (a full send buffer);
    # receive errors are counted inside the reached read loop.
    "repro.serve.transport:UdpEndpoint._on_writable": _FAILURE,
    # Long sessions: PROBE_RTT after 10 s without a new minimum RTT, and
    # the sent-packet sweep past 8 192 outstanding packets.
    "repro.quic.cc.bbr:BbrSender._enter_probe_rtt": _LONG,
    "repro.quic.cc.bbr:BbrSender._handle_probe_rtt": _LONG,
    "repro.quic.loss_recovery:LossRecovery._garbage_collect": _LONG,
    "repro.quic.sent_packet:SentPacket.resolved": _LONG,
    # The shard worker process.
    "repro.serve.shard:main": _SUBPROCESS,
    "repro.serve.shard:_amain": _SUBPROCESS,
    "repro.serve.shard:_parse_args": _SUBPROCESS,
    "repro.serve.shard:ShardServer.run_until_shutdown": _SUBPROCESS,
    # Interfaces and their contracts.
    "repro.quic.cc.base:CongestionController": _INTERFACE,
    "repro.core.schemes:InitPolicy": _INTERFACE,
    "repro.simnet.link:LossModel": _INTERFACE,
    "repro.simnet.link:WirePacket": _INTERFACE,
    "repro.simnet.path:Path.deliver_to_client": "placeholder until the owner wires a receiver",
    "repro.simnet.path:Path.deliver_to_server": "placeholder until the owner wires a receiver",
    "repro.core.adaptive:AdaptiveInitPolicy.state_digest": (
        "the InitPolicy contract that a stateful policy's state is digestible"
    ),
    "repro.simnet.engine:Event.__repr__": "debugging aid",
    # Switches of process-wide modes.
    "repro.obs:disable": _SWITCH,
    "repro.obs:enabled": _SWITCH,
    "repro.obs:env_trace_dir": _SWITCH,
    # What the unit tests check the simulator against.  The one-shot
    # dict a composed checkpoint must encode to; the AMF decoder, which
    # reads back what the live source encodes (no receive path decodes
    # onMetaData).
    "repro.fleet.checkpoint:CheckpointState.to_json": _ORACLE,
    "repro.media.amf:decode_on_metadata": _ORACLE,
    "repro.media.amf:decode_value": _ORACLE,
    "repro.media.amf:_decode_properties": _ORACLE,
    "repro.media.amf:_decode_short_string": _ORACLE,
    "repro.media.amf:_need": _ORACLE,
    "repro.media.flv:demux": _ORACLE,
    "repro.media.flv:script_frame": _ORACLE,
    "repro.media.flv:FlvTag.to_media_frame": _ORACLE,
    "repro.media.frames:Gop.first_frame_bytes": _ORACLE,
    "repro.quic.frames:AckFrame.acked_packet_numbers": _ORACLE,
    "repro.quic.frames:HandshakeDoneFrame.encode": _ORACLE,
    "repro.quic.frames:HandshakeDoneFrame.wire_size": _ORACLE,
    "repro.quic.frames:PaddingFrame.encode": _ORACLE,
    "repro.quic.frames:PaddingFrame.wire_size": _ORACLE,
    "repro.quic.frames:PingFrame.encode": _ORACLE,
    "repro.quic.frames:PingFrame.wire_size": _ORACLE,
    "repro.simnet.schedule:GilbertElliott.stationary_loss_rate": _ORACLE,
    "repro.simnet.path:NetworkConditions.bdp_bytes": _ORACLE,
    "repro.serve.ring:HashRing.without_node": _ORACLE,
    "repro.serve.ring:moved_fraction": _ORACLE,
    # Views and class APIs the unit tests go through.
    "repro.core.frame_perception:FrameParser.ff_complete": _VIEW,
    "repro.core.schemes:scheme_names": _VIEW,
    "repro.fleet.engine:FleetConfig.with_": _API,
    "repro.media.hls:TsFrame.is_video": _VIEW,
    "repro.media.rtmp:RtmpMessage.is_video": _VIEW,
    "repro.metrics.sketch:QuantileSketch": _API,
    "repro.metrics.sketch:StatAccumulator.total": _VIEW,
    "repro.metrics.stats:Cdf": _API,
    "repro.quic.ack_manager:AckManager.largest_received": _VIEW,
    "repro.quic.frames:HxQosFrame.metric": _VIEW,
    "repro.quic.pacer:Pacer.rate_bps": _VIEW,
    "repro.quic.packet:Packet.is_long_header": _VIEW,
    "repro.quic.stream:SendStream.resend_fin": _API,
    "repro.serve.ring:HashRing": _API,
    "repro.serve.store:BoundedKeyedStore.keys": _VIEW,
    "repro.simnet.link:LinkStats": _VIEW,
}

#: A defined function: ``(real path, first line, qualified name)``.
Key = Tuple[str, int, str]


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def defined_functions() -> Dict[Key, str]:
    """Every named function under ``src/repro``, as ``module:qualname``."""
    found: Dict[Key, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        real = os.path.realpath(path)
        module = _module_name(path)
        stack = [compile(path.read_text(encoding="utf-8"), real, "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if not const.co_name.startswith("<"):
                        key = (real, const.co_firstlineno, const.co_qualname)
                        found[key] = f"{module}:{const.co_qualname}"
    return found


def reached_functions(profile: cProfile.Profile) -> Set[Key]:
    reached: Set[Key] = set()
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, types.CodeType):
            real = os.path.realpath(code.co_filename)
            reached.add((real, code.co_firstlineno, code.co_qualname))
    return reached


# ---------------------------------------------------------------------------
# Entry points.


@contextlib.contextmanager
def _argv(argv: List[str]) -> Iterator[None]:
    saved = sys.argv
    sys.argv = argv
    try:
        yield
    finally:
        sys.argv = saved


def _check(status: Optional[int], what: str) -> None:
    if status not in (0, None):
        raise RuntimeError(f"{what} exited {status}")


def run_bench(tmp: Path) -> None:
    from bench import drives
    from bench.workloads import WORKLOADS

    for cls in WORKLOADS.values():
        workload = cls(seed=1, seconds=0.0)
        try:
            workload.import_program()
            workload.prepare()
            workload.warmup()
            outcome = workload.outcome(workload.run())
        finally:
            workload.close()
        if outcome.failed or outcome.problems:
            raise RuntimeError(f"{cls.name}: {outcome.failed} failed, {outcome.problems}")
    drives.run_all()


def run_figures(tmp: Path) -> None:
    """Every figure and table as ``benchmarks/`` regenerates and checks it."""
    import pytest

    argv = [str(ROOT / "benchmarks"), "-q", "-p", "no:cacheprovider"]
    _check(int(pytest.main(argv)), "pytest benchmarks")


def run_examples(tmp: Path) -> None:
    for script, args in (
        ("quickstart.py", []),
        ("frame_perception_demo.py", []),
        ("transport_cookie_demo.py", []),
        ("live_cdn_deployment.py", ["2"]),
    ):
        path = ROOT / "examples" / script
        with _argv([str(path), *args]):
            runpy.run_path(str(path), run_name="__main__")


def run_fleet_cli(tmp: Path) -> None:
    from tools.wira_fleet.cli import main

    checkpoint = str(tmp / "fleet.json")
    run = ["run", "--od-pairs", "6", "--seed", "3", "--schemes", "baseline", "wira"]
    run += ["--chunk-chains", "2", "--checkpoint-every", "1", "--checkpoint", checkpoint]
    for argv in (
        run + ["--jobs", "1", "--out", str(tmp / "fleet-report.json")],
        ["resume", "--checkpoint", checkpoint, "--jobs", "1", "--quiet"],
        ["status", "--checkpoint", checkpoint],
        ["status", "--checkpoint", checkpoint, "--live", "--polls", "1", "--interval", "0"],
        ["verify", "--checkpoint", checkpoint],
        ["report", "--checkpoint", checkpoint, "--html", str(tmp / "fleet.html")],
    ):
        _check(main(argv), f"wira_fleet {argv[0]}")


def run_serve_cli(tmp: Path) -> None:
    from tools.wira_serve.cli import main

    common = ["run", "--seed", "5", "--video-frames", "4"]
    _check(main(common + ["--od-pairs", "3", "--out", str(tmp / "serve.json")]), "wira_serve run")
    # The shard sweeps every five seconds of wall time.  Three OD pairs
    # finish right at that mark, so whether the sweep ran was a coin
    # toss; ten keep the in-process edge up for about twice as long.
    in_process = ["--od-pairs", "10", "--in-process", "--reshard-after", "1"]
    in_process += ["--html", str(tmp / "serve.html")]
    _check(main(common + in_process), "wira_serve run --in-process")


def run_gates(tmp: Path) -> None:
    from repro.experiments import frontier, goldens, robustness

    _check(goldens.main(), "goldens")
    _check(robustness.main(["--quick", "--jobs", "1"]), "robustness --quick")
    frontier_args = ["--quick", "--jobs", "1", "--html", str(tmp / "frontier.html")]
    _check(frontier.main(frontier_args), "frontier --quick")


def run_modes(tmp: Path) -> None:
    """Two traced replays, and ``wira_trace`` over them."""
    from repro import obs
    from repro.core.schemes import BASELINE, WIRA
    from repro.experiments.runner import run_deployment
    from repro.workload.population import DeploymentConfig
    from tools.wira_trace.cli import main

    config = DeploymentConfig(n_od_pairs=2, seed=11, video_frames_per_session=4)
    for scheme in (BASELINE, WIRA):
        with obs.tracing(trace_dir=tmp / scheme.value):
            run_deployment(config, (scheme,), jobs=1)
    a, b = str(tmp / BASELINE.value), str(tmp / WIRA.value)
    for argv in (["validate", a], ["summarize", "--json", a], ["diff", a, b]):
        _check(main(argv), f"wira_trace {argv[0]}")


RUNS: Tuple[Tuple[str, Callable[[Path], None]], ...] = (
    ("bench", run_bench),
    ("figures", run_figures),
    ("examples", run_examples),
    ("wira_fleet", run_fleet_cli),
    ("wira_serve", run_serve_cli),
    ("gates", run_gates),
    ("modes", run_modes),
)


# ---------------------------------------------------------------------------


def audit() -> Dict[str, object]:
    """Run every entry point; the defined, reached and unreached functions."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        for name, run in RUNS:
            tmp = Path(scratch) / name
            tmp.mkdir()
            quiet = io.StringIO()
            try:
                with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                    profile.enable()
                    try:
                        run(tmp)
                    finally:
                        profile.disable()
            except Exception:
                sys.stderr.write(quiet.getvalue()[-4000:])
                raise
            print(f"reach: {name} done", file=sys.stderr)
    defined = defined_functions()
    reached = reached_functions(profile)
    unreached = sorted(
        (name, f"{os.path.relpath(key[0], ROOT)}:{key[1]}")
        for key, name in defined.items()
        if key not in reached
    )
    covering = {name: kept_entry(name) for name, _ in unreached}
    used = set(covering.values())
    return {
        "defined": len(defined),
        "reached": len(defined) - len(unreached),
        "kept": {name: covering[name] for name, _ in unreached if covering[name]},
        "unreached": [
            {"function": name, "where": where} for name, where in unreached if not covering[name]
        ],
        "kept_but_reached": sorted(set(KEPT) - used),
    }


def kept_entry(name: str) -> Optional[str]:
    """The :data:`KEPT` entry covering ``module:qualname``, if any.

    An entry names the function itself, an enclosing class, or the
    whole module.
    """
    module, _, qualname = name.partition(":")
    parts = qualname.split(".")
    for end in range(len(parts), 0, -1):
        entry = f"{module}:{'.'.join(parts[:end])}"
        if entry in KEPT:
            return entry
    return module if module in KEPT else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reach_audit",
        description="List the functions under src/repro that no entry point calls.",
    )
    parser.add_argument("--json", metavar="PATH", help="also write the result here")
    args = parser.parse_args(argv)
    try:
        result = audit()
    except Exception:  # an entry point broke: nothing to conclude
        traceback.print_exc()
        print("reach: an entry point failed", file=sys.stderr)
        return 2
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    unreached = result["unreached"]
    stale = result["kept_but_reached"]
    assert isinstance(unreached, list) and isinstance(stale, list)
    for item in unreached:
        print(f"unreached  {item['function']}  ({item['where']})")
    for name in stale:
        print(f"reached but kept  {name}")
    print(
        f"reach: {result['reached']} of {result['defined']} functions reached, "
        f"{len(result['kept'])} kept, {len(unreached)} unreached, {len(stale)} stale"  # type: ignore[arg-type]
    )
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
