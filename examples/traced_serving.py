"""Traced serving: span trees, sampling, and the metrics registry.

Trains GroupSA briefly, installs a Tracer around engine-backed
serving, prints the span tree of one request, then serves mixed
traffic with head sampling plus always-keep rules for slow requests,
and finally writes the three observability artifacts: a Chrome trace,
a JSONL span log, and a Prometheus metrics exposition.

    python examples/traced_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.core import GroupSAConfig
from repro.data import split_interactions, yelp_like
from repro.engine import EngineConfig
from repro.obs import Tracer, make_serving_report, write_span_chrome_trace
from repro.serving import RecommendationService
from repro.training import TrainingConfig, train_groupsa


def print_tree(spans) -> None:
    children = {}
    for item in spans:
        children.setdefault(item.parent_id, []).append(item)

    def walk(parent_id, depth):
        for item in sorted(children.get(parent_id, []), key=lambda s: s.start):
            attrs = " ".join(f"{k}={v}" for k, v in sorted(item.attrs.items()))
            print(f"  {'  ' * depth}{item.name:28s} {item.duration * 1e3:7.3f} ms  {attrs}")
            walk(item.span_id, depth + 1)

    walk(None, 0)


def main() -> None:
    world = yelp_like(scale=0.01)
    split = split_interactions(world.dataset, rng=0)
    model, __, __h = train_groupsa(
        split, GroupSAConfig(), TrainingConfig(user_epochs=10, group_epochs=15)
    )
    train = split.train

    service = RecommendationService(model=model, dataset=train)
    engine = service.enable_engine(EngineConfig(max_batch_size=64))

    # 1. Trace one request end to end (sample_rate=1.0 keeps everything).
    with Tracer(sample_rate=1.0, seed=0) as tracer:
        result = service.recommend_for_group(0, k=5)
    print(f"group 0 top-5: {result.items}  (trace {result.trace_id})")
    print_tree(tracer.traces()[result.trace_id])

    # 2. Serve mixed traffic under production-style sampling: keep 10%
    #    at random, plus every request slower than 5 ms or errored.
    rng = np.random.default_rng(0)
    with Tracer(
        sample_rate=0.1, slow_ms=5.0, seed=0, jsonl_path="serve_spans.jsonl"
    ) as tracer:
        for user in rng.integers(0, train.num_users, size=200):
            service.recommend_for_user(int(user), k=10)
        for group in rng.integers(0, train.num_groups, size=50):
            service.recommend_for_group(int(group), k=10)
    summary = tracer.summary()
    print(
        f"\ntraces: {summary['traces_started']} started, "
        f"{summary['traces_kept']} kept "
        f"({summary['kept_head']} head, {summary['kept_slow']} slow, "
        f"{summary['kept_error']} error)"
    )

    # 3. Export the artifacts.
    events = write_span_chrome_trace(tracer, "serve_trace.json")
    print(f"chrome trace: serve_trace.json ({events} events)")
    print("span log:     serve_spans.jsonl")
    with open("serve_metrics.prom", "w", encoding="utf-8") as handle:
        handle.write(engine.registry.exposition())
    print("exposition:   serve_metrics.prom")

    report = make_serving_report(registry=engine.registry, tracer=tracer)
    histograms = report["data"]["metrics"]["histograms"]
    p99_ms = histograms["stage.engine.request"]["p99"] * 1e3
    print(f"engine.request p99: {p99_ms:.3f} ms  (full history, no reservoir)")
    service.close()


if __name__ == "__main__":
    main()
