"""The serve-vs-sim gate compares two campaign reports, field by field.

``compare_schemes`` reads :func:`~repro.fleet.report.build_report`'s
per-scheme entries: the discrete outcomes it must see equal are report
fields, and a difference in any one of them fails the gate.  No socket
is opened; both sides are simulated aggregates.
"""

import pytest

from repro.fleet import CampaignAggregate, FleetConfig, build_report, run_chunk
from repro.serve.loadtest import EXACT_FIELDS, FFCT_STATS, compare_schemes
from repro.workload import DeploymentConfig

CONFIG = FleetConfig(
    population=DeploymentConfig(n_od_pairs=4, seed=3, video_frames_per_session=4),
    schemes=("baseline", "wira"),
    chunk_chains=4,
)


@pytest.fixture(scope="module")
def payload():
    return run_chunk(CONFIG, 0)


def test_exact_fields_are_build_report_fields(payload):
    entry = build_report(CampaignAggregate.from_json(payload), "k")["schemes"]["wira"]
    assert set(EXACT_FIELDS) <= set(entry)
    assert set(FFCT_STATS) | {"count"} <= set(entry["ffct"])
    comparison = compare_schemes(
        CampaignAggregate.from_json(payload), CampaignAggregate.from_json(payload), 0.0, 0.0
    )
    assert comparison["ok"]
    # Each side of the comparison is the report's entry itself.
    assert comparison["schemes"]["wira"]["serve"] == entry
    assert comparison["schemes"]["wira"]["sim"] == entry
    assert sorted(comparison["schemes"]["wira"]["ffct"]) == sorted(
        f"ffct_{stat}" for stat in FFCT_STATS
    )


@pytest.mark.parametrize("field", [*EXACT_FIELDS, "ffct.count"])
def test_any_exact_field_off_by_one_fails_the_gate(payload, field):
    served = CampaignAggregate.from_json(payload)
    scheme = served.schemes["wira"]
    if field == "ffct.count":
        scheme.ffct_stats.count += 1
    else:
        setattr(scheme, field, getattr(scheme, field) + 1)
    # A tolerance wide enough that only the exact fields can fail.
    comparison = compare_schemes(served, CampaignAggregate.from_json(payload), 10.0, 10.0)
    assert not comparison["ok"]
    assert not comparison["schemes"]["wira"]["exact_ok"]
    assert comparison["schemes"]["baseline"]["ok"]
