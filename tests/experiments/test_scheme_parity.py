"""Golden parity: legacy schemes are byte-identical through the registry.

The digests, and the functions that compute them, live in
:mod:`repro.experiments.goldens` — one definition each, which
``python -m repro.experiments.goldens`` also runs without a test runner
(CI's ``interpreters`` job does, on every supported CPython).
"""

from repro.experiments import goldens


class TestGoldenParity:
    def test_figure_replay_digest(self):
        assert goldens.figure_digest() == goldens.FIGURE_DIGEST

    def test_fleet_chunk_digest(self):
        assert goldens.fleet_digest() == goldens.FLEET_DIGEST

    def test_robustness_matrix_digest(self):
        assert goldens.robust_digest() == goldens.ROBUST_DIGEST
