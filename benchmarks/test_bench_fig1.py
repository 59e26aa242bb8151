"""Fig 1 — first-frame size diversity (paper: mean 43.1 KB, p30<30 KB,
p80>60 KB inter-stream; 45–130 KB intra-stream)."""

from repro.experiments import fig1
from repro.metrics.report import Table


def test_bench_fig1_first_frame_sizes():
    result = fig1.run(1_000, 40)

    table = Table(
        "Fig 1(a) — inter-stream FF_Size (paper: mean 43.1KB, 30% < 30KB, 20% > 60KB)",
        ["metric", "paper", "measured"],
    )
    table.add_row("mean FF_Size", "43.1KB", f"{result.mean_kb:.1f}KB")
    table.add_row("P(FF < 30KB)", "~30%", f"{result.frac_below_30kb * 100:.1f}%")
    table.add_row("P(FF > 60KB)", "~20%", f"{result.frac_above_60kb * 100:.1f}%")
    table.print()

    intra = Table(
        "Fig 1(b) — intra-stream FF_Size every 5s (paper example: 45-130KB)",
        ["metric", "measured"],
    )
    intra.add_row("min", f"{result.intra_min_kb:.1f}KB")
    intra.add_row("max", f"{result.intra_max_kb:.1f}KB")
    intra.add_row("max/min ratio", f"{result.intra_max_kb / result.intra_min_kb:.2f}x")
    intra.print()

    # Shape assertions: the three published statistics hold.
    assert 38 < result.mean_kb < 49
    assert 0.24 < result.frac_below_30kb < 0.37
    assert 0.14 < result.frac_above_60kb < 0.27
    # Intra-stream variation is material (paper's example spans ~2.9x).
    assert result.intra_max_kb / result.intra_min_kb > 1.4
