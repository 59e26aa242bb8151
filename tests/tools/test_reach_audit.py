"""The reach audit's bookkeeping; the audit itself runs in CI (minutes)."""

from tools import reach_audit


def test_defined_functions_are_named_code_under_src():
    names = set(reach_audit.defined_functions().values())
    assert "repro.experiments.runner:run_deployment" in names
    assert "repro.simnet.engine:EventLoop.run" in names
    assert not any("<lambda>" in name or "<genexpr>" in name for name in names)


def test_kept_entry_covers_a_function_its_class_or_its_module(monkeypatch):
    monkeypatch.setattr(reach_audit, "KEPT", {"m:A.f": "", "m:B": "", "n": ""})
    assert reach_audit.kept_entry("m:A.f") == "m:A.f"
    assert reach_audit.kept_entry("m:A.g") is None
    assert reach_audit.kept_entry("m:B.g.<locals>.h") == "m:B"
    assert reach_audit.kept_entry("n:C.anything") == "n"
    assert reach_audit.kept_entry("n2:x") is None


def test_every_kept_entry_names_code_that_exists():
    """A deleted function must leave the table in the same change."""
    names = set(reach_audit.defined_functions().values())
    for entry in reach_audit.KEPT:
        prefix = entry + ("." if ":" in entry else ":")
        assert entry in names or any(name.startswith(prefix) for name in names), entry
