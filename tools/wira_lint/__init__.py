"""wira-lint: repo-specific whole-program determinism linter.

Every figure in this reproduction (Figs 11-15, Table 1) depends on
properties the Python toolchain does not enforce:

* **bit-exact determinism** — all randomness must flow through
  caller-supplied seeded :class:`random.Random` instances and no
  simulation code may consult the wall clock, even transitively through
  helpers in other modules;
* **transport invariants** — hot-path classes stay ``__slots__``-packed,
  merge paths never depend on dict iteration order, and time/rate
  floats are never compared with ``==``;
* **contract registries** — obs event names, sanitizer invariant names,
  and ``WIRA_*`` settings knobs each have a single registry that code
  must agree with in both directions.

``wira-lint`` is a stdlib-only (``ast``) engine encoding those rules.
Per-file rules run file by file; whole-program rules run over a
project-wide symbol table and approximate call graph:

=======  ==============================================================
Code     Rule
=======  ==============================================================
WL001    no wall-clock reads in simulation code
WL002    no unseeded / hard-coded-seed randomness in simulation code
WL003    no float equality on time/rate quantities
WL004    registered hot-path classes must declare ``__slots__``
WL005    no dict-order-dependent iteration in (or feeding) merge paths
WL006    typed zones (quic/, simnet/) require full annotations
WL007    no bare ``print()`` in library code
WL009    pragmas must suppress at least one live finding
WL010    no transitive wall-clock reads in the replay zone (taint)
WL011    no transitive process-global RNG use in the replay zone (taint)
WL012    ``WIRA_*`` env knobs must flow through ``runtime.Settings``
WL013    emitted obs event names <-> ``events.EVENT_NAMES`` (both ways)
WL014    raised sanitizer invariants <-> ``INVARIANTS`` (both ways)
WL015    classes passed as ``EventLoop`` must provide its surface
=======  ==============================================================

Violations can be suppressed per line with a trailing pragma::

    rng = rng or random.Random(0)  # wira-lint: disable=WL002

or per file with a standalone pragma line near the top::

    # wira-lint: disable-file=WL003

Pragmas are the only suppression, and stale ones are themselves
findings (WL009).

Run ``python -m tools.wira_lint src/ tests/`` from the repository root
(or the ``wira-lint`` console script); see ``--help`` for the JSON
reporter and rule selection.
"""

from tools.wira_lint.engine import (
    Violation,
    lint_file,
    lint_paths,
    lint_source,
    lint_sources,
)
from tools.wira_lint.rules import RULES, Rule

__all__ = [
    "RULES",
    "Rule",
    "Violation",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_sources",
]
