"""One run of one workload: one fresh child, one timed region.

A *run* is what the benchmark contract calls one invocation: a fresh
process that sets the workload up, times one call into the leg's entry
point on ``--seconds`` worth of work, checks the outputs and exits.  A
fresh process, not a repetition inside one, so nothing a region computed
can be reused by the next — a cache that survives between calls cannot
buy a better number here than a user's single call gets — and so that
``peak_rss_mb`` and ``setup_s`` are those of one call.  Medians and
ranges are taken over runs (:func:`bench.cli.summarize`), never inside
one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, Optional

from bench import ROOT

#: Nothing a child does takes this long; the contract allows a run 180 s.
CHILD_TIMEOUT_S = 150.0

#: The end-to-end metrics, in print order, with their units.
END_TO_END = {
    "sessions_per_s": "sessions/s",
    "cpu_ms_per_session": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class ChildFailed(RuntimeError):
    """A child exited non-zero or printed no result."""


def _child_env(seed: int) -> Dict[str, str]:
    """The parent's environment minus every ``WIRA_*`` knob, hash seed set.

    Tracing, the sanitizer, a job count or a cache directory inherited
    from the caller's shell would change what is measured; the defaults
    are the configuration the end-to-end metrics describe.

    ``PYTHONHASHSEED`` is one of the inputs ``--seed`` draws: it moves
    where every ``str``-keyed dict and set puts its entries, which is
    host state the simulated outcomes must not depend on, and pinning it
    per seed makes a run's process state repeat with its seed.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("WIRA_")}
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def spawn_child(
    workload: str,
    seed: int,
    sim_seed: Optional[int],
    seconds: float,
    *flags: str,
) -> Dict[str, object]:
    """Run ``python -m bench.child`` to completion; return its JSON line."""
    command = [
        sys.executable,
        "-m",
        "bench.child",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        *flags,
    ]
    if sim_seed is not None:
        command += ["--sim-seed", str(sim_seed)]
    command += ["--spawned-at", repr(time.time())]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=_child_env(seed),
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited {done.returncode} without a result")
    return json.loads(lines[-1])


def measure(
    workload: str, seed: int, seconds: float, sim_seed: Optional[int] = None
) -> Dict[str, object]:
    """One end-to-end run; see :mod:`bench.child`."""
    return spawn_child(workload, seed, sim_seed, seconds)


def trace(
    workload: str, seed: int, seconds: float, sim_seed: Optional[int] = None
) -> Dict[str, object]:
    """One traced run on a slice of a run's work; see :mod:`bench.trace`."""
    return spawn_child(workload, seed, sim_seed, seconds, "--trace")


def is_correct(result: Dict[str, object]) -> bool:
    return int(result["failed"]) == 0 and not result["problems"]  # type: ignore[call-overload]
