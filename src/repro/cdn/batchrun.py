"""A name the benchmark still reaches for; no code lives here.

Sessions used to run batched through this module.  They now replay one
at a time on the solo :class:`~repro.simnet.engine.EventLoop` — see
EXPERIMENTS.md, "One loop, one chain at a time" — and the batched
session driver is deleted.

``bench/trace.py`` wraps every loop constructor a session can run on by
``getattr`` on a fixed list of ``(module, name)`` pairs, and
``("repro.cdn.batchrun", "BatchEventLoop")`` is one of them; only a
``benchmark`` PR may edit ``bench/``.  This re-export keeps that lookup
resolving until a change to the benchmark drops the pair, at which
point this file goes too.
"""

from repro.simnet.batch import BatchEventLoop

__all__ = ["BatchEventLoop"]
