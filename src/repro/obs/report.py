"""The unified JSON report envelope every observability surface emits.

Profiles (``repro profile``), training run metrics (``RunMetrics``),
metrics registries, span-log summaries and the serving bundle all
serialize as the same top-level shape, so downstream tooling
(dashboards, CI artifact diffing, the bench trajectory files) can
dispatch on ``kind`` without per-source parsing::

    {
      "schema": "repro.obs/v1",
      "kind": "op_profile" | "training_run" | "metrics_registry" | "serving" | ...,
      "meta": {...},     # producer-specific context (world, config, host)
      "data": {...}      # the payload
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Bump when the envelope itself (not a payload) changes shape.
REPORT_SCHEMA = "repro.obs/v1"


def make_report(
    kind: str,
    data: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Wrap ``data`` in the standard observability envelope."""
    if not kind:
        raise ValueError("report kind must be a non-empty string")
    return {
        "schema": REPORT_SCHEMA,
        "kind": kind,
        "meta": dict(meta or {}),
        "data": data,
    }


def make_serving_report(
    registry: Optional[Any] = None,
    tracer: Optional[Any] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One ``kind="serving"`` envelope for the whole serving surface.

    Bundles whichever serving observability sources exist — a
    :class:`~repro.obs.metrics_registry.MetricsRegistry` payload
    (``metrics``) plus its Prometheus text (``exposition``), and a
    :class:`~repro.obs.spans.Tracer` sampling summary (``spans``) — so
    one artifact answers "what did this worker serve and how" without
    stitching files.  Omitted sources simply leave their section out.
    """
    data: Dict[str, Any] = {}
    if registry is not None:
        data["metrics"] = registry.payload()
        data["exposition"] = registry.exposition()
    if tracer is not None:
        data["spans"] = tracer.summary()
    return make_report("serving", data, meta=meta)


def is_report(obj: Any) -> bool:
    """Cheap structural check used by tests and artifact consumers."""
    return (
        isinstance(obj, dict)
        and obj.get("schema") == REPORT_SCHEMA
        and isinstance(obj.get("kind"), str)
        and isinstance(obj.get("meta"), dict)
        and isinstance(obj.get("data"), dict)
    )


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a report as stable, human-diffable JSON."""
    if not is_report(report):
        raise ValueError("not a repro.obs report envelope")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
