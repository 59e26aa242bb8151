"""HTML campaign report: self-contained, deterministic, complete."""

import re

from repro.fleet import FleetConfig, Progress, build_report, render_html_report, run_campaign
from repro.workload import DeploymentConfig

SCHEMES = ("baseline", "wira")


def small_config(**kwargs):
    defaults = dict(
        population=DeploymentConfig(n_od_pairs=4, seed=3),
        schemes=SCHEMES,
        chunk_chains=2,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


def rendered(config=None, **kwargs):
    config = config or small_config()
    aggregate = run_campaign(config, jobs=1)
    report = build_report(aggregate, config.key())
    return (
        render_html_report(report, aggregate, config=config.to_json(), **kwargs),
        report,
        aggregate,
    )


class TestSelfContainment:
    def test_no_external_references(self):
        document, _, _ = rendered()
        assert "http://" not in document
        assert "https://" not in document
        assert '<link' not in document
        assert 'src=' not in document  # no external scripts/images

    def test_inline_style_and_script_present(self):
        document, _, _ = rendered()
        assert "<style>" in document
        assert "<script>" in document
        assert document.startswith("<!DOCTYPE html>")
        assert document.rstrip().endswith("</html>")

    def test_light_and_dark_palettes_inlined(self):
        document, _, _ = rendered()
        # Light and dark series-1 slots, swapped by the media query alone:
        # nothing sets a theme attribute, so no rule may wait for one.
        assert "#2a78d6" in document
        assert "#3987e5" in document
        assert "prefers-color-scheme: dark" in document
        assert "data-theme" not in document


class TestContent:
    def test_header_carries_key_and_config(self):
        document, report, _ = rendered()
        assert str(report["campaign_key"]) in document
        assert "population.n_od_pairs" in document
        assert "chunk_chains" in document

    def test_cdf_polyline_per_scheme_with_labels(self):
        document, _, _ = rendered()
        polylines = re.findall(r'<polyline class="line (s\d)"', document)
        assert polylines == ["s1", "s2"]  # sorted scheme order, fixed slots
        for scheme in SCHEMES:
            assert f">{scheme}</text>" in document

    def test_cdf_polylines_are_monotone(self):
        # Each curve climbs from q = 0 on the x axis (y = 256) to q = 1 at
        # the top of the plot (y = 16), and FFCT never falls along it.
        document, _, _ = rendered()
        curves = re.findall(r'<polyline class="line s\d" points="([^"]*)"', document)
        assert len(curves) == len(SCHEMES)
        for points in curves:
            xs, ys = zip(*(map(float, p.split(",")) for p in points.split()))
            assert ys[0] == 256.0 and ys[-1] == 16.0
            assert list(xs) == sorted(xs)
            assert list(ys) == sorted(ys, reverse=True)

    def test_summary_table_has_quantiles(self):
        document, report, _ = rendered()
        assert "<th>p50</th>" in document
        assert "<th>p99</th>" in document
        p50 = report["schemes"]["baseline"]["ffct"]["p50"]
        assert f"{p50 * 1000:.1f}ms" in document

    def test_phase_table_untraced(self, monkeypatch):
        # Every session carries its phase breakdown, so an untraced
        # campaign renders the table with values; only a campaign in
        # which no first frame arrived gets the placeholder.
        from repro import obs

        monkeypatch.setattr(obs, "ACTIVE", None)
        document, report, aggregate = rendered()
        mean = report["schemes"]["baseline"]["phases"]["mean"]["transmit"]
        assert mean > 0 and f"{mean * 1000:.1f}ms" in document
        assert "No phase data" not in document
        for entry in report["schemes"].values():
            entry["phases"] = None
        assert "No phase data" in render_html_report(report, aggregate)

    def test_telemetry_section_optional(self):
        document, _, _ = rendered()
        assert "Live telemetry" not in document
        with_telemetry, report, _ = rendered(
            progress=Progress(
                chunks_done=2, n_chunks=2, elapsed_s=1.5, sessions_per_s=24.0, eta_s=0.0
            )
        )
        assert "Live telemetry" in with_telemetry
        assert "<th>sessions / second</th><td>24.0</td>" in with_telemetry
        assert f"<th>sessions replayed</th><td>{report['total_sessions']}</td>" in with_telemetry

    def test_hover_data_embedded_as_json(self):
        document, _, _ = rendered()
        assert 'id="cdf-data"' in document
        assert '"xmaxMs"' in document


class TestDeterminism:
    def test_same_inputs_same_bytes(self):
        config = small_config()
        first, _, _ = rendered(config)
        second, _, _ = rendered(config)
        assert first == second

    def test_user_strings_are_escaped(self):
        config = small_config()
        aggregate = run_campaign(config, jobs=1)
        report = build_report(aggregate, config.key())
        document = render_html_report(
            report, aggregate, title='<script>alert("x")</script>'
        )
        assert '<script>alert' not in document
        assert "&lt;script&gt;" in document
