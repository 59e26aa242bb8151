"""Table I — scheme-to-parameter mapping (executable documentation)."""

from repro.experiments import table1
from repro.metrics.report import Table


def test_bench_table1_parameter_configurations():
    rows = table1.run()
    table1.verify(rows)

    table = Table(
        "Table I — init_cwnd / init_pacing per scheme "
        "(FF=66KB, MaxBW=8Mbps, MinRTT=50ms)",
        ["scheme", "init_cwnd", "init_pacing", "cwnd (bytes)", "pacing (Mbps)"],
    )
    for row in rows:
        table.add_row(
            row.scheme.display_name,
            row.cwnd_formula,
            row.pacing_formula,
            row.cwnd_bytes,
            f"{row.pacing_bps / 1e6:.2f}",
        )
    table.print()
