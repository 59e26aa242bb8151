"""Tests for the robustness gate matrix (scheme × fault × schedule)."""

import dataclasses
import hashlib
import json

import pytest

from repro import obs
from repro.cdn.session import StreamingSession
from repro.core.schemes import BASELINE, WIRA, as_spec
from repro.experiments import common, robustness
from repro.experiments.robustness import (
    MATRIX_SCHEMES,
    CellResult,
    RobustnessConfig,
    build_schedules,
    enumerate_cells,
    evaluate_gates,
    fault_plan_matrix,
    main,
    prime_chain,
    run_cell,
    run_matrix,
    run_robustness,
    run_seed,
)
from repro.faults import FaultKind


SMALL = RobustnessConfig(
    seeds=(7,),
    schemes=(BASELINE, WIRA),
    schedule_names=("steady", "flap"),
    fault_names=("none", "cookie_corrupt"),
)


def cell(scheme=WIRA, fault="none", schedule="steady", seed=7,
         ffct=0.1, completed=True, primed=True):
    return CellResult(
        scheme=scheme,
        fault=fault,
        schedule=schedule,
        seed=seed,
        primed_completed=primed,
        completed=completed,
        ffct=ffct,
        used_cookie=True,
        fault_summary=None,
    )


class TestMatrixDefinition:
    def test_schedule_set(self):
        schedules = build_schedules(SMALL.conditions)
        assert schedules["steady"] is None
        assert set(schedules) == {
            "steady", "bw_collapse", "bw_surge", "bursty_ge",
            "reorder_dup", "flap", "surge_flap",
        }
        for name, sched in schedules.items():
            if name != "steady":
                assert not sched.is_inert

    def test_fault_axis_is_every_kind_plus_control(self):
        faults = fault_plan_matrix()
        assert faults["none"] is None
        assert set(faults) == {"none"} | {k.value for k in FaultKind}

    def test_enumerate_cells_order_and_size(self):
        cells = enumerate_cells(SMALL)
        assert len(cells) == 2 * 2 * 2 * 1  # schemes × faults × schedules × seeds
        assert cells[0] == (BASELINE, "none", "steady", 7)
        assert cells == enumerate_cells(SMALL)  # stable

    def test_enumerate_cells_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="schedule"):
            enumerate_cells(RobustnessConfig(schedule_names=("nope",)))
        with pytest.raises(ValueError, match="fault"):
            enumerate_cells(RobustnessConfig(fault_names=("nope",)))

    def test_quick_config_is_reduced(self):
        quick = RobustnessConfig.quick()
        assert len(enumerate_cells(quick)) < len(enumerate_cells(RobustnessConfig()))


class TestEvaluateGates:
    def test_all_clean_passes(self):
        results = [cell(BASELINE, ffct=0.1), cell(WIRA, ffct=0.08)]
        report = evaluate_gates(results, SMALL)
        assert report["passed"]
        assert report["failures"] == []
        (gate,) = report["ratio_gates"]
        assert gate["ratio"] == pytest.approx(0.8)

    def test_incomplete_session_fails_completion_gate(self):
        report = evaluate_gates([cell(completed=False, ffct=None)], SMALL)
        assert not report["passed"]
        assert "incomplete session" in report["failures"][0]

    def test_unprimed_chain_fails_completion_gate(self):
        report = evaluate_gates([cell(primed=False)], SMALL)
        assert not report["passed"]

    def test_ratio_above_bound_fails(self):
        results = [cell(BASELINE, ffct=0.1), cell(WIRA, ffct=0.2)]
        report = evaluate_gates(results, SMALL)
        assert not report["passed"]
        assert "FFCT degradation" in report["failures"][0]

    def test_schedule_override_lifts_bound(self):
        # 2.0x would fail the global 1.5 bound; flap's override allows it.
        results = [
            cell(BASELINE, schedule="flap", ffct=0.1),
            cell(WIRA, schedule="flap", ffct=0.2),
        ]
        report = evaluate_gates(results, SMALL)
        assert report["passed"]
        (gate,) = report["ratio_gates"]
        assert gate["bound"] == pytest.approx(8.0)

    def test_fault_override_lifts_bound(self):
        results = [
            cell(BASELINE, fault="ff_size_zero", ffct=0.1),
            cell(WIRA, fault="ff_size_zero", ffct=0.3),
        ]
        report = evaluate_gates(results, SMALL)
        assert report["passed"]
        assert report["ratio_gates"][0]["bound"] == pytest.approx(4.0)

    def test_mean_over_seeds(self):
        results = [
            cell(BASELINE, seed=7, ffct=0.1),
            cell(BASELINE, seed=19, ffct=0.3),
            cell(WIRA, seed=7, ffct=0.2),
            cell(WIRA, seed=19, ffct=0.2),
        ]
        report = evaluate_gates(results, SMALL)
        (gate,) = report["ratio_gates"]
        assert gate["baseline_mean_ffct"] == pytest.approx(0.2)
        assert gate["ratio"] == pytest.approx(1.0)

    def test_gate_without_a_baseline_fails(self):
        report = evaluate_gates([cell(WIRA, fault="ff_size_zero", schedule="flap")], SMALL)
        assert not report["passed"]
        assert report["ratio_gates"] == []
        (failure,) = report["failures"]
        assert "no baseline" in failure
        assert "wira" in failure and "fault=ff_size_zero" in failure
        assert "schedule=flap" in failure

    def test_matrix_without_a_baseline_does_not_pass(self):
        report = run_robustness(
            RobustnessConfig(
                seeds=(7,), schemes=(WIRA,), schedule_names=("flap",), fault_names=("none",)
            )
        )
        assert not report["passed"]
        assert report["failures"] == [
            "no baseline FFCT: wira under fault=none schedule=flap "
            "has no baseline mean to gate against"
        ]

    def test_report_is_json_serialisable(self):
        report = evaluate_gates([cell(BASELINE), cell(WIRA)], SMALL)
        parsed = json.loads(json.dumps(report))
        assert parsed["config"]["schemes"] == ["baseline", "wira"]
        assert len(parsed["cells"]) == 2


class TestMatrixExecution:
    def test_serial_and_parallel_runs_are_identical(self):
        """Pool sharding must not change a single cell (ISSUE gate)."""
        serial = run_matrix(SMALL, jobs=1)
        parallel = run_matrix(SMALL, jobs=2)
        assert serial == parallel
        assert len(serial) == len(enumerate_cells(SMALL))

    def test_small_matrix_passes_gates(self):
        results = run_matrix(SMALL, jobs=1)
        report = evaluate_gates(results, SMALL)
        assert report["passed"], report["failures"]
        for result in results:
            assert result.completed

    def test_cookie_fault_cells_lose_the_cookie(self):
        results = run_matrix(SMALL, jobs=1)
        for result in results:
            if result.fault == "cookie_corrupt":
                assert not result.used_cookie
                assert result.fault_summary == {"hqst_corrupted": 1}
            elif result.fault == "none":
                assert result.used_cookie
                assert result.fault_summary is None

    @pytest.mark.parametrize(
        "scheme,seed",
        [
            ("wira", 42),
            ("wira", 43),
            ("wira_bbr2", 43),
            ("wira_bbr2", 42),
        ],
    )
    def test_bitflip_under_surge_flap_completes(self, scheme, seed):
        config = RobustnessConfig()
        result = run_cell(
            as_spec(scheme),
            "datagram_bitflip",
            fault_plan_matrix()["datagram_bitflip"],
            "surge_flap",
            build_schedules(config.conditions)["surge_flap"],
            seed,
            config,
        )
        assert result.primed_completed
        assert result.completed and result.ffct is not None


#: sha256 of ``--quick --output``'s bytes, ``--jobs 1`` and ``--jobs 2``
#: alike, since a PTO's probes leave past a full congestion window
#: (RFC 9002 §7.5): 33 ``flap`` cells finish 25-68 ms sooner than at the
#: commit before, which blocked them behind the window.
QUICK_REPORT_DIGEST = "8bac21a104f3bb277e0d40ca6ce2090397cc8df561cf1f618ec403c0dd9a3f6b"

COOKIE_FAULTS = ("cookie_corrupt", "cookie_truncate", "hqst_garbage")

#: Faults that leave no usable cookie: ``wira_hx`` runs the baseline's
#: session and ``wira`` runs ``wira_ff``'s.
NO_COOKIE_FAULTS = (*COOKIE_FAULTS, "handshake_drop")


@pytest.fixture(autouse=True)
def untraced(monkeypatch):
    """Ambient tracing off: a traced matrix shares nothing, and the
    counts below pin what is shared.  Pool workers are forked per run,
    so they see this state."""
    monkeypatch.delenv("WIRA_TRACE", raising=False)
    monkeypatch.setattr(obs, "ACTIVE", None)


def standalone(cell_, config):
    """The cell run on its own: primes for itself, shares nothing."""
    scheme, fault_name, schedule_name, seed = cell_
    return run_cell(
        scheme,
        fault_name,
        fault_plan_matrix()[fault_name],
        schedule_name,
        build_schedules(config.conditions)[schedule_name],
        seed,
        config,
    )


def assert_same_cells(got, expected):
    """Cell results equal field by field, naming the first that differs."""
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        for field in dataclasses.fields(theirs):
            assert getattr(mine, field.name) == getattr(theirs, field.name), (
                f"{theirs.scheme.value} {theirs.fault} {theirs.schedule}: {field.name}"
            )


def count_simulated(monkeypatch):
    """A list whose length counts every ``StreamingSession.run`` from here on."""
    labels = []
    run = StreamingSession.run

    def counted(session):
        labels.append(session.spec.trace_label)
        return run(session)

    monkeypatch.setattr(StreamingSession, "run", counted)
    return labels


#: Every matrix scheme, every fault without a usable cookie, an FF_Size
#: fault and the control, under two schedules.
SHARING_CONFIG = RobustnessConfig(
    seeds=(7,),
    schedule_names=("steady", "bursty_ge"),
    fault_names=("none", *NO_COOKIE_FAULTS, "ff_size_huge"),
)


@pytest.fixture(scope="module")
def standalone_cells():
    ambient_bus, obs.ACTIVE = obs.ACTIVE, None  # module scope outlives the autouse fixture
    try:
        return [standalone(c, SHARING_CONFIG) for c in enumerate_cells(SHARING_CONFIG)]
    finally:
        obs.ACTIVE = ambient_bus


class TestSharedSessions:
    """A seed's schemes share the sessions they would run alike; no cell can tell."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matrix_equals_every_cell_run_standalone(self, standalone_cells, jobs):
        assert_same_cells(run_matrix(SHARING_CONFIG, jobs=jobs), standalone_cells)

    def test_taken_fault_summaries_are_not_aliased(self):
        config = RobustnessConfig(
            seeds=(7,), schemes=(BASELINE, as_spec("wira_hx")), schedule_names=("steady",),
            fault_names=("cookie_corrupt",),
        )
        baseline, wira_hx = run_matrix(config, jobs=1)
        assert baseline.fault_summary == wira_hx.fault_summary == {"hqst_corrupted": 1}
        assert baseline.fault_summary is not wira_hx.fault_summary

    def test_default_matrix_simulates_each_distinct_session_once(self, monkeypatch):
        labels = count_simulated(monkeypatch)
        results = run_matrix(RobustnessConfig(), jobs=1)
        assert len(results) == 980
        assert len(labels) == 736  # 994 when nothing is shared
        assert sum(label.endswith("-prime") for label in labels) == 8

    def test_run_cell_is_called_once_per_cell_through_the_module_global(self, monkeypatch):
        calls = []
        original = robustness.run_cell

        def counted(*args, **kwargs):
            calls.append((args[0], args[1], args[3], args[5]))
            return original(*args, **kwargs)

        monkeypatch.setattr(robustness, "run_cell", counted)
        run_matrix(SMALL, jobs=1)
        assert sorted(calls, key=repr) == sorted(enumerate_cells(SMALL), key=repr)


class TestRowPriming:
    """Each scheme of a seed primes once, through the same sharing rule
    as the cells; no cell can tell."""

    @pytest.mark.parametrize(
        "scheme", [as_spec(s) for s in MATRIX_SCHEMES], ids=lambda s: s.value
    )
    def test_row_cells_equal_their_standalone_runs(self, scheme):
        """``scheme`` runs last in its seed, so it takes whatever the
        other schemes' sessions allow, its prime included."""
        others = tuple(as_spec(s) for s in MATRIX_SCHEMES if as_spec(s) != scheme)
        config = RobustnessConfig(
            seeds=(7,),
            schemes=(*others, scheme),
            schedule_names=("steady", "bursty_ge"),
            fault_names=("none", *COOKIE_FAULTS, "ff_size_huge"),
        )
        cells = enumerate_cells(config)
        mine = [i for i, c in enumerate(cells) if c[0] == scheme]
        results = run_seed(cells, config)
        assert_same_cells(
            [results[i] for i in mine], [standalone(cells[i], config) for i in mine]
        )

    @pytest.mark.parametrize("fault", COOKIE_FAULTS)
    def test_cookie_fault_does_not_reach_the_next_cell(self, fault):
        config = RobustnessConfig()
        cells = [(WIRA, fault, "steady", 7), (WIRA, "none", "steady", 7)]
        faulted, clean = run_seed(cells, config)
        assert not faulted.used_cookie
        assert clean.used_cookie
        assert clean == standalone(cells[1], config)

    def test_cells_measure_from_copies_of_the_primed_state(self):
        """The primed cookie state is a value: a cell applies it to its
        own store and manager, and a faulted cell changes it for no other."""
        config = RobustnessConfig()
        primed = prime_chain(WIRA, 7, config)
        entry, nonce_counter, _, _ = primed.after
        assert entry is not None and nonce_counter == 1
        faulted = run_cell(
            WIRA, "cookie_corrupt", fault_plan_matrix()["cookie_corrupt"], "steady", None,
            7, config, primed,
        )
        clean = run_cell(WIRA, "none", None, "steady", None, 7, config, primed)
        assert primed == prime_chain(WIRA, 7, config, origin=primed.origin)
        assert not faulted.used_cookie and clean.used_cookie
        assert clean == standalone((WIRA, "none", "steady", 7), config)

    def test_task_rejects_cells_of_another_seed(self):
        with pytest.raises(ValueError, match="one seed"):
            run_seed([(WIRA, "none", "steady", 7), (WIRA, "none", "steady", 19)], SMALL)

    def test_quick_matrix_simulates_rows_plus_cells_sessions(self, monkeypatch):
        labels = count_simulated(monkeypatch)
        results = run_matrix(RobustnessConfig.quick(), jobs=1)
        assert len(results) == 200
        # 205 when nothing is shared, 400 when every cell primed.
        assert len(labels) == 164
        assert sum(label.endswith("-prime") for label in labels) == 4

    def test_quick_report_bytes_are_pinned_and_jobs_independent(self, tmp_path):
        for jobs in (1, 2):
            out = tmp_path / f"report-j{jobs}.json"
            assert main(["--quick", "--jobs", str(jobs), "--output", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == QUICK_REPORT_DIGEST

    def test_task_trace_scopes(self, monkeypatch):
        """Traced, nothing is shared: every session of a seed opens its
        own scope, the primes first, then the cells (fault, schedule) by
        (fault, schedule)."""
        labels = []
        scope = obs.TraceBus.session

        def recording(bus, label):
            labels.append(label)
            return scope(bus, label)

        monkeypatch.setattr(obs.TraceBus, "session", recording)
        with obs.tracing():
            run_seed(enumerate_cells(SMALL), SMALL)
        assert labels == [
            "rb-baseline-s7-prime",
            "rb-wira-s7-prime",
            *(
                f"rb-{scheme}-{fault}-{schedule}-s7"
                for fault in ("none", "cookie_corrupt")
                for schedule in ("steady", "flap")
                for scheme in ("baseline", "wira")
            ),
        ]


class TestCli:
    def test_cli_writes_report_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["--quick", "--jobs", "1", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"]
        assert report["config"]["cells"] == len(
            enumerate_cells(RobustnessConfig.quick())
        )
        assert "PASSED" in capsys.readouterr().out

    def test_cli_bound_override_can_fail_gates(self, tmp_path):
        # An absurdly tight bound makes at least one ratio gate fail.
        code = main(["--quick", "--jobs", "1", "--bound", "0.0001"])
        assert code == 1
