"""Self-contained HTML campaign reports.

One campaign → one ``.html`` file an operator can open, attach to an
issue, or archive from CI — **no external assets**: styles, the CDF
chart (inline SVG), and the hover script are all embedded, built from
the standard library alone.

Content mirrors the JSON report (:mod:`repro.fleet.report`) and adds
what JSON cannot show: scheme-vs-scheme FFCT CDF strips rendered from
each scheme's :class:`~repro.metrics.sketch.QuantileSketch`, the FFCT
phase-decomposition table, and an optional throughput section read
from the campaign's :class:`~repro.fleet.telemetry.Progress`.  Like the JSON
report, the HTML is deterministic — no timestamps, no host details —
so artifact bytes are comparable across CI runs of the same campaign.

The visual language follows the repo's chart conventions: categorical
series colors are assigned to schemes in fixed sorted order (never
cycled), text wears ink tokens (identity is carried by a colored swatch
beside the label, not by coloring the text), one axis pair, thin 2px
lines, and a dark mode that is its own validated palette, not a filter.
"""

from __future__ import annotations

import html
import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cdn.session import PHASES
from repro.fleet.aggregate import CampaignAggregate
from repro.fleet.telemetry import Progress

#: Categorical series slots (light, dark) in fixed assignment order —
#: blue, orange, aqua, yellow.  Schemes take slots in sorted-name order;
#: a hypothetical fifth scheme would render uncolored, never a 5th hue.
SERIES_SLOTS: Tuple[Tuple[str, str], ...] = (
    ("#2a78d6", "#3987e5"),
    ("#eb6834", "#d95926"),
    ("#1baf7a", "#199e70"),
    ("#eda100", "#c98500"),
)

#: CDF sampling resolution: the cumulative probabilities each curve is
#: drawn through, 64 even steps from 0 to 1.
_CDF_STEPS = tuple(i / 64 for i in range(65))

# Chart geometry (SVG user units).
_PLOT_W = 560
_PLOT_H = 240
_MARGIN_L = 56
_MARGIN_R = 140
_MARGIN_T = 16
_MARGIN_B = 40
_SVG_W = _MARGIN_L + _PLOT_W + _MARGIN_R
_SVG_H = _MARGIN_T + _PLOT_H + _MARGIN_B


def _fmt_ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "–"
    return f"{seconds * 1000:.1f}ms"


def _fmt_pct(fraction: Optional[float]) -> str:
    if fraction is None:
        return "–"
    return f"{fraction * 100:.1f}%"


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _scheme_series(aggregate: CampaignAggregate) -> List[Tuple[str, List[Tuple[float, float]]]]:
    """(scheme, CDF series) per scheme with data, sorted by scheme name."""
    out: List[Tuple[str, List[Tuple[float, float]]]] = []
    for value in sorted(aggregate.schemes):
        sketch = aggregate.schemes[value].ffct_sketch
        if sketch.count == 0:
            continue
        out.append((value, [(sketch.quantile(q), q) for q in _CDF_STEPS]))
    return out


def _nice_ceiling(value_ms: float) -> float:
    """Round up to a tidy axis maximum (1/2/2.5/5 × 10^k milliseconds)."""
    if value_ms <= 0:
        return 1.0
    magnitude = 1.0
    while magnitude * 10 <= value_ms:
        magnitude *= 10
    for factor in (1.0, 2.0, 2.5, 5.0, 10.0):
        if value_ms <= magnitude * factor:
            return magnitude * factor
    return magnitude * 10


def _cdf_chart(aggregate: CampaignAggregate) -> str:
    """Inline SVG: one FFCT CDF polyline per scheme, shared axes."""
    series = _scheme_series(aggregate)
    if not series:
        return (
            '<p class="placeholder">No completed sessions — '
            "no FFCT distribution to plot.</p>"
        )
    # X axis spans to the slowest scheme's ~p99.5 so the tail is visible
    # without letting a single max sample flatten every curve.
    xmax_ms = _nice_ceiling(
        max(aggregate.schemes[v].ffct_sketch.quantile(0.995) for v, _ in series) * 1000.0
    )
    parts: List[str] = []
    parts.append(
        f'<svg class="cdf" viewBox="0 0 {_SVG_W} {_SVG_H}" role="img" '
        'aria-label="First-frame completion time CDF by scheme">'
    )
    # Gridlines + y ticks at 0/.25/.5/.75/1 — recessive hairlines.
    for i in range(5):
        q = i / 4
        y = _MARGIN_T + _PLOT_H * (1 - q)
        parts.append(
            f'<line class="grid" x1="{_MARGIN_L}" y1="{y:.1f}" '
            f'x2="{_MARGIN_L + _PLOT_W}" y2="{y:.1f}"/>'
        )
        parts.append(
            f'<text class="tick" x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
            f'text-anchor="end">{q:.2f}</text>'
        )
    # X ticks at quarters of the axis maximum.
    for i in range(5):
        x = _MARGIN_L + _PLOT_W * i / 4
        value = xmax_ms * i / 4
        parts.append(
            f'<text class="tick" x="{x:.1f}" y="{_MARGIN_T + _PLOT_H + 18}" '
            f'text-anchor="middle">{value:.0f}</text>'
        )
    parts.append(
        f'<line class="axis" x1="{_MARGIN_L}" y1="{_MARGIN_T + _PLOT_H}" '
        f'x2="{_MARGIN_L + _PLOT_W}" y2="{_MARGIN_T + _PLOT_H}"/>'
    )
    parts.append(
        f'<text class="tick" x="{_MARGIN_L + _PLOT_W / 2:.1f}" '
        f'y="{_SVG_H - 4}" text-anchor="middle">FFCT (ms)</text>'
    )
    hover_data: List[Dict[str, object]] = []
    for slot, (scheme, points) in enumerate(series):
        coords: List[str] = []
        for value_s, q in points:
            value_ms = min(value_s * 1000.0, xmax_ms)
            x = _MARGIN_L + _PLOT_W * (value_ms / xmax_ms)
            y = _MARGIN_T + _PLOT_H * (1 - q)
            coords.append(f"{x:.1f},{y:.1f}")
        css = f"s{slot + 1}" if slot < len(SERIES_SLOTS) else "sx"
        parts.append(
            f'<polyline class="line {css}" points="{" ".join(coords)}"/>'
        )
        # Direct label at the curve's end: swatch carries identity, text
        # stays in ink.
        label_y = _MARGIN_T + 14 * slot + 10
        swatch_x = _MARGIN_L + _PLOT_W + 10
        parts.append(
            f'<line class="line {css}" x1="{swatch_x}" y1="{label_y - 4}" '
            f'x2="{swatch_x + 16}" y2="{label_y - 4}"/>'
        )
        parts.append(
            f'<text class="label" x="{swatch_x + 22}" y="{label_y}">'
            f"{_esc(scheme)}</text>"
        )
        hover_data.append(
            {
                "scheme": scheme,
                "points": [[round(v * 1000.0, 3), round(q, 4)] for v, q in points],
            }
        )
    parts.append('<line class="cursor" id="cdf-cursor" x1="0" y1="0" x2="0" y2="0" visibility="hidden"/>')
    parts.append("</svg>")
    parts.append('<div class="tooltip" id="cdf-tip" hidden></div>')
    payload = json.dumps(
        {
            "xmaxMs": xmax_ms,
            "plot": [_MARGIN_L, _MARGIN_T, _PLOT_W, _PLOT_H],
            "series": hover_data,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    parts.append(
        f'<script type="application/json" id="cdf-data">{payload}</script>'
    )
    return "\n".join(parts)


def _summary_table(report: Mapping[str, object]) -> str:
    schemes = report.get("schemes")
    if not isinstance(schemes, Mapping) or not schemes:
        return '<p class="placeholder">No scheme summaries.</p>'
    improvements = report.get("ffct_improvement_over_baseline")
    rows: List[str] = []
    for value in sorted(schemes):
        entry = schemes[value]
        if not isinstance(entry, Mapping):
            continue
        ffct = entry.get("ffct")
        ffct = ffct if isinstance(ffct, Mapping) else {}
        cells = [
            f"<th>{_esc(value)}</th>",
            f'<td>{_esc(entry.get("sessions", 0))}</td>',
            f'<td>{_fmt_pct(entry.get("completion_rate"))}</td>',  # type: ignore[arg-type]
            f'<td>{_fmt_ms(ffct.get("mean"))}</td>',  # type: ignore[arg-type]
            f'<td>{_fmt_ms(ffct.get("p50"))}</td>',  # type: ignore[arg-type]
            f'<td>{_fmt_ms(ffct.get("p90"))}</td>',  # type: ignore[arg-type]
            f'<td>{_fmt_ms(ffct.get("p99"))}</td>',  # type: ignore[arg-type]
        ]
        gain: Optional[object] = None
        if isinstance(improvements, Mapping):
            scheme_gain = improvements.get(value)
            if isinstance(scheme_gain, Mapping):
                gain = scheme_gain.get("p50")
        cells.append(
            f"<td>{_fmt_pct(gain)}</td>"  # type: ignore[arg-type]
            if gain is not None
            else "<td>–</td>"
        )
        rows.append("<tr>" + "".join(cells) + "</tr>")
    return (
        '<table><thead><tr><th>scheme</th><th>sessions</th>'
        "<th>completed</th><th>FFCT mean</th><th>p50</th><th>p90</th>"
        "<th>p99</th><th>p50 vs baseline</th></tr></thead>"
        "<tbody>" + "".join(rows) + "</tbody></table>"
    )


def _phase_section(report: Mapping[str, object]) -> str:
    schemes = report.get("schemes")
    if not isinstance(schemes, Mapping):
        return ""
    rows: List[str] = []
    for value in sorted(schemes):
        entry = schemes[value]
        if not isinstance(entry, Mapping):
            continue
        phases = entry.get("phases")
        if not isinstance(phases, Mapping):
            continue
        means = phases.get("mean")
        if not isinstance(means, Mapping):
            continue
        cells = [f"<th>{_esc(value)}</th>"]
        total = 0.0
        for name in PHASES:
            mean = means.get(name)
            cells.append(f"<td>{_fmt_ms(mean)}</td>")  # type: ignore[arg-type]
            if isinstance(mean, (int, float)):
                total += float(mean)
        cells.append(f"<td>{_fmt_ms(total)}</td>")
        rows.append("<tr>" + "".join(cells) + "</tr>")
    if not rows:
        return (
            '<p class="placeholder">No phase data — no session reached its first '
            "frame in the simulator (sessions measured over sockets carry none).</p>"
        )
    header = "".join(f"<th>{_esc(name)}</th>" for name in PHASES)
    return (
        "<table><thead><tr><th>scheme</th>"
        + header
        + "<th>total</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _config_rows(config: Optional[Mapping[str, object]]) -> str:
    if not isinstance(config, Mapping):
        return ""
    rows: List[str] = []
    population = config.get("population")
    if isinstance(population, Mapping):
        for key in sorted(population):
            rows.append(
                f"<tr><th>population.{_esc(key)}</th>"
                f"<td>{_esc(population[key])}</td></tr>"
            )
    for key in ("schemes", "chunk_chains", "checkpoint_every", "sketch_alpha"):
        if key in config:
            value = config[key]
            shown = ", ".join(map(str, value)) if isinstance(value, (list, tuple)) else value
            rows.append(f"<tr><th>{_esc(key)}</th><td>{_esc(shown)}</td></tr>")
    return "".join(rows)


def _telemetry_section(progress: Optional[Progress], sessions: object) -> str:
    if progress is None:
        return ""
    rows: List[str] = []
    for label, value in (
        ("chunks completed", progress.chunks_done),
        ("sessions replayed", sessions),
        ("wall-clock (s)", progress.elapsed_s),
        ("sessions / second", progress.sessions_per_s),
    ):
        if value is None:
            continue
        shown = f"{value:.1f}" if isinstance(value, float) else str(value)
        rows.append(f"<tr><th>{_esc(label)}</th><td>{_esc(shown)}</td></tr>")
    return (
        "<h2>Live telemetry</h2><table class=\"kv\"><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


_STYLE = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --series-4: #eda100;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --series-4: #c98500;
  }
}
body {
  margin: 0; padding: 2rem; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 880px; margin: 0 auto; }
section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 1.25rem 1.5rem; margin-bottom: 1.25rem;
}
h1 { font-size: 1.3rem; margin: 0 0 .25rem; }
h2 { font-size: 1.05rem; margin: 1rem 0 .5rem; }
.key { color: var(--text-secondary); font-family: ui-monospace, monospace; font-size: .85rem; }
table { border-collapse: collapse; width: 100%; margin: .5rem 0; }
th, td {
  text-align: right; padding: .3rem .6rem;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th:first-child, td:first-child { text-align: left; }
thead th { color: var(--text-secondary); font-weight: 600; }
tbody th { color: var(--text-primary); font-weight: 500; }
table.kv th { width: 40%; }
.placeholder { color: var(--muted); }
svg.cdf { width: 100%; height: auto; display: block; }
svg.cdf .grid { stroke: var(--grid); stroke-width: 1; }
svg.cdf .axis { stroke: var(--axis); stroke-width: 1; }
svg.cdf .tick { fill: var(--muted); font-size: 11px; }
svg.cdf .label { fill: var(--text-secondary); font-size: 12px; }
svg.cdf .line { fill: none; stroke-width: 2; }
svg.cdf .line.s1 { stroke: var(--series-1); }
svg.cdf .line.s2 { stroke: var(--series-2); }
svg.cdf .line.s3 { stroke: var(--series-3); }
svg.cdf .line.s4 { stroke: var(--series-4); }
svg.cdf .line.sx { stroke: var(--muted); stroke-dasharray: 4 3; }
svg.cdf .cursor { stroke: var(--axis); stroke-width: 1; stroke-dasharray: 2 2; }
.tooltip {
  position: fixed; pointer-events: none; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 6px;
  padding: .4rem .6rem; font-size: 12px; color: var(--text-secondary);
  box-shadow: 0 2px 8px rgba(0,0,0,.15);
}
footer { color: var(--muted); font-size: .8rem; }
"""

_SCRIPT = """
(function () {
  var data = document.getElementById("cdf-data");
  var svg = document.querySelector("svg.cdf");
  var tip = document.getElementById("cdf-tip");
  var cursor = document.getElementById("cdf-cursor");
  if (!data || !svg || !tip || !cursor) return;
  var cfg = JSON.parse(data.textContent);
  var plot = cfg.plot;
  function atOrBelow(points, xMs) {
    var q = 0;
    for (var i = 0; i < points.length; i++) {
      if (points[i][0] <= xMs) q = points[i][1]; else break;
    }
    return q;
  }
  svg.addEventListener("mousemove", function (ev) {
    var rect = svg.getBoundingClientRect();
    var scale = rect.width / svg.viewBox.baseVal.width;
    var ux = (ev.clientX - rect.left) / scale;
    if (ux < plot[0] || ux > plot[0] + plot[2]) { tip.hidden = true; cursor.setAttribute("visibility", "hidden"); return; }
    var xMs = (ux - plot[0]) / plot[2] * cfg.xmaxMs;
    cursor.setAttribute("x1", ux); cursor.setAttribute("x2", ux);
    cursor.setAttribute("y1", plot[1]); cursor.setAttribute("y2", plot[1] + plot[3]);
    cursor.setAttribute("visibility", "visible");
    var lines = ["FFCT \\u2264 " + xMs.toFixed(1) + "ms"];
    cfg.series.forEach(function (s) {
      lines.push(s.scheme + ": " + (atOrBelow(s.points, xMs) * 100).toFixed(1) + "%");
    });
    tip.textContent = lines.join("  \\u00b7  ");
    tip.style.left = (ev.clientX + 14) + "px";
    tip.style.top = (ev.clientY + 14) + "px";
    tip.hidden = false;
  });
  svg.addEventListener("mouseleave", function () {
    tip.hidden = true;
    cursor.setAttribute("visibility", "hidden");
  });
})();
"""


def render_html_report(
    report: Mapping[str, object],
    aggregate: CampaignAggregate,
    config: Optional[Mapping[str, object]] = None,
    progress: Optional[Progress] = None,
    title: str = "Fleet campaign report",
    extra_sections: Optional[Sequence[str]] = None,
) -> str:
    """Render one campaign as a self-contained HTML document.

    ``report`` is the JSON report (:func:`~repro.fleet.report.build_report`),
    ``aggregate`` the merged campaign aggregate the CDF curves are drawn
    from, ``config`` the campaign's config JSON for the header, and
    ``progress`` the snapshots' progress record for the throughput rows.
    ``extra_sections`` are pre-rendered ``<section>`` blocks appended
    before the footer (serve mode adds its vs-sim comparison there).
    Deterministic: same inputs → same bytes.
    """
    key = report.get("campaign_key", "")
    total = report.get("total_sessions", 0)
    head = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8"/>',
        '<meta name="viewport" content="width=device-width, initial-scale=1"/>',
        f"<title>{_esc(title)}</title>",
        f"<style>{_STYLE}</style>",
        "</head>",
        "<body><main>",
        "<section>",
        f"<h1>{_esc(title)}</h1>",
        f'<p class="key">campaign {_esc(key)} · {_esc(total)} sessions · '
        f'sketch α={_esc(report.get("sketch_alpha", ""))}</p>',
    ]
    config_rows = _config_rows(config)
    if config_rows:
        head.append('<h2>Configuration</h2><table class="kv"><tbody>')
        head.append(config_rows)
        head.append("</tbody></table>")
    head.append("</section>")
    body = [
        "<section><h2>First-frame completion time — CDF by scheme</h2>",
        _cdf_chart(aggregate),
        "</section>",
        "<section><h2>Scheme summary</h2>",
        _summary_table(report),
        "<h2>FFCT phase breakdown (mean per session)</h2>",
        _phase_section(report),
        _telemetry_section(progress, total),
        "</section>",
        *(extra_sections or ()),
        "<footer>Generated by wira-fleet · deterministic artifact "
        "(no timestamps) · quantiles are DDSketch estimates "
        f"(α={_esc(report.get('sketch_alpha', ''))}).</footer>",
        f"<script>{_SCRIPT}</script>",
        "</main></body></html>",
    ]
    return "\n".join(head + body)


__all__ = [
    "SERIES_SLOTS",
    "render_html_report",
]
