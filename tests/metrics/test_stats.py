"""Tests for statistics helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.collector import MetricSeries
from repro.metrics.report import Table, format_ms, format_pct
from repro.metrics.stats import Cdf, coefficient_of_variation, mean, percentile


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_percentile_endpoints(self):
        data = [5.0, 1.0, 3.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 5.0
        assert percentile(data, 50) == 3.0

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_percentile_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_single_sample_is_constant(self):
        for q in (0, 50, 90, 100):
            assert percentile([7.5], q) == 7.5

    def test_cv_of_constant_is_zero(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_cv_known_value(self):
        # std_pop([1,3]) = 1, mean = 2 -> CV = 0.5
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)

    def test_cv_scale_invariant(self):
        a = coefficient_of_variation([1.0, 2.0, 3.0])
        b = coefficient_of_variation([10.0, 20.0, 30.0])
        assert a == pytest.approx(b)

    @given(st.lists(st.floats(min_value=1, max_value=1e6), min_size=2, max_size=50))
    def test_percentile_monotone_property(self, data):
        qs = [percentile(data, q) for q in (0, 25, 50, 75, 100)]
        assert qs == sorted(qs)


class TestCdf:
    def test_at_and_quantile(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(2.0) == 0.5
        assert cdf.at(0.5) == 0.0
        assert cdf.at(10.0) == 1.0
        assert cdf.quantile(0.5) == pytest.approx(2.5)

    def test_fraction_above(self):
        cdf = Cdf([10.0, 20.0, 30.0, 40.0, 50.0])
        assert cdf.fraction_above(30.0) == pytest.approx(0.4)

    def test_series_monotone(self):
        cdf = Cdf([3.0, 1.0, 2.0])
        series = cdf.series(points=10)
        values = [v for v, _ in series]
        assert values == sorted(values)
        assert series[0][1] == 0.0 and series[-1][1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf([])

    def test_single_sample(self):
        cdf = Cdf([2.0])
        assert len(cdf) == 1
        assert cdf.min == cdf.max == 2.0
        assert cdf.at(1.9) == 0.0
        assert cdf.at(2.0) == 1.0
        for q in (0.0, 0.5, 1.0):
            assert cdf.quantile(q) == 2.0
        assert cdf.series(points=4) == [(2.0, i / 4) for i in range(5)]


class TestCollector:
    def test_series_accumulates_and_skips_none(self):
        series = MetricSeries()
        series.add(0.1)
        series.add(None)
        series.add(0.3)
        assert len(series) == 2
        assert series.avg == pytest.approx(0.2)

    def test_improvement_over(self):
        ours = MetricSeries()
        base = MetricSeries()
        for v in (0.9, 0.9):
            ours.add(v)
        for v in (1.0, 1.0):
            base.add(v)
        assert ours.improvement_over(base) == pytest.approx(0.1)

    def test_improvement_over_percentile(self):
        ours = MetricSeries()
        base = MetricSeries()
        for v in (0.5, 0.9):
            ours.add(v)
        for v in (1.0, 1.0):
            base.add(v)
        assert ours.improvement_over(base, q=90) == pytest.approx(1 - 0.86)

    def test_improvement_over_empty_series_is_none(self):
        # Regression: an incomparable pair used to read as 0.0 — "no
        # improvement" — instead of "not measurable".
        empty = MetricSeries()
        filled = MetricSeries()
        filled.add(1.0)
        assert empty.improvement_over(filled) is None
        assert filled.improvement_over(empty) is None
        assert empty.improvement_over(empty) is None

    def test_improvement_over_zero_baseline_is_none(self):
        ours = MetricSeries()
        ours.add(0.5)
        base = MetricSeries()
        base.add(0.0)
        assert ours.improvement_over(base) is None

    def test_improvement_over_none_renders_as_dash(self):
        empty = MetricSeries()
        assert format_pct(empty.improvement_over(empty), signed=True) == "-"


class TestReport:
    def test_format_helpers(self):
        assert format_ms(0.1425) == "142.5ms"
        assert format_ms(None) == "-"
        assert format_pct(0.106) == "10.6%"
        assert format_pct(0.106, signed=True) == "+10.6%"

    def test_table_renders_aligned(self):
        table = Table("T", ["a", "bb"])
        table.add_row("x", "y")
        rendered = table.render()
        assert "a" in rendered and "x" in rendered
        assert len(rendered.splitlines()) == 4

    def test_table_cell_count_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")
