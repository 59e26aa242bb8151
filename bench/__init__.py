"""One benchmark for the four real legs of this repository.

``figure_replay``, ``fleet_campaign``, ``adverse_matrix`` and
``serve_edge`` each run through the leg's public entry point, from
outside: nothing under ``src/`` or ``tools/`` knows this package exists.
``python -m bench run`` prints the four end-to-end metrics per workload,
``python -m bench trace`` attributes host time to the repository's
layers, ``python -m bench compare`` sets two result files side by side.
See ``bench/README.md`` for what each number means and how to compare
two commits.

FFCT and every other *simulated* statistic repeats exactly for a seed
and is used for output checks and per-layer counters only.  All four
end-to-end metrics are *host* time or host memory.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout this package sits in (``bench/`` is a top-level directory).
ROOT = Path(__file__).resolve().parent.parent

#: Everything the benchmark writes lands here (git-ignored).
OUT = Path(__file__).resolve().parent / "out"


def require_repro() -> None:
    """Make ``repro`` importable from ``<checkout>/src``, or exit non-zero.

    The benchmark measures the sources of the checkout it runs in, never
    an installed copy, so ``src`` goes first on the path.  In a directory
    that holds only the benchmark there is nothing to measure.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
