"""The observability surface: what ``repro.obs`` and ``repro.engine``
export, and that the retired simulation stack stays retired."""

import importlib

import pytest

import repro.engine
import repro.obs


@pytest.mark.parametrize(
    "module",
    [
        "repro.engine.telemetry",
        "repro.obs.ops_session",
        "repro.obs.ops_report",
        "repro.obs.slo",
        "repro.obs.timeseries",
        "repro.obs.alerts",
        "repro.obs.drift",
    ],
)
def test_retired_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_every_obs_export_resolves():
    missing = [name for name in repro.obs.__all__ if not hasattr(repro.obs, name)]
    assert missing == []
    retired = {"TimeSeriesStore", "SLOMonitor", "AlertLog", "psi", "run_ops_session"}
    assert retired.isdisjoint(dir(repro.obs))


def test_engine_exports_the_snapshot_not_a_facade():
    assert "telemetry_snapshot" in repro.engine.__all__
    assert not hasattr(repro.engine, "Telemetry")
