"""Transport fault injection (adverse-input testing under load).

See :mod:`repro.faults.injector` for the model.  Typical use::

    from repro.faults import FaultKind, FaultPlan

    spec = SessionSpec(
        conditions, WIRA,
        fault_plan=FaultPlan(FaultKind.COOKIE_CORRUPT), seed=7,
    )
    result = StreamingSession(spec, origin, "stream").run()
    assert result.completed            # graceful degradation
    assert result.fault_summary        # the fault actually fired
"""

from repro.faults.injector import (
    HUGE_FF_SIZE,
    FaultInjector,
    FaultKind,
    FaultPlan,
    single_fault_plans,
)

__all__ = [
    "HUGE_FF_SIZE",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "single_fault_plans",
]
